"""First-order Trotter-Suzuki step circuits and (controlled) time evolution.

One step factorizes exp(-i dt H) into the model's two parts, each realized by
explicit 1- and 2-qubit blocks:

* Hubbard: all hopping blocks over allowed neighbor pairs (ascending index),
  then all interaction blocks diag(1,1,1,e^{-i dt U}) on (site, site+M);
* pairing: phase gates R(-2 eps_p dt) on every level qubit, then for each
  p > q the block with cos(g_pq dt) / +i sin(g_pq dt) entries.

Within each part gates are applied in ascending qubit order; the order is
frozen here because any fixed order is valid at first order.  `_step_gates`
builds the step as two coefficient tables over the gates' local states and
their target pairs, for one step size or for an array of them, from cos, sin
and exp of finite angles, so every gate is unitary and conserves the Hamming
weight by construction; a non-finite angle raises `SimulationError`.
`trotter_step` wraps the same tables as a gate-level `Circuit`, whose gates
each check their own unitarity.  `_gate_action` (local values, partners, and
the one check that no partner leaves the basis) and `_apply_table` (the one
in-place update) apply such tables for `_sector_step` and for the noise
route's gates and depolarizing slots alike.

`controlled_evolve` serves the one register `genfunc.gf_series` builds, the
model's qubits plus an ancilla on top, and evolves only its ancilla-|1> half,
which is exact for the block-diagonal [[I, 0], [0, U]].  It multiplies the
tables out into a step matrix S on the conserved sectors that half occupies,
raises it to the n_steps-th power by repeated squaring, and applies the one
propagator U(t) = S^n_steps.  The sectors are those of `models.sector_labels`:
the Hamming weight for pairing, and N_up and N_down separately for Hubbard,
whose hopping blocks each move one fermion within its own spin chain.  Every
gate of both factorizations is diagonal or acts only inside {|01>, |10>}, so
the amplitudes outside those sectors are zero and stay exactly zero;
Hubbard-4's mixture, for one, evolves on the 36 states of its (2, 2) sector,
not the 70 of weight 4.  The step matrix is built on the sectors alone,
starting from the product of the leading gates that couple nothing (pairing's
level phases): a gate scales each sector state by its diagonal entry and mixes
in the one partner state that differs on the two targets, in place.  A gate
that couples a sector state to a partner outside the sectors raises
`SimulationError` instead of leaking amplitude.

Three memos (`functools.lru_cache`) hold what repeats.  The propagator keeps
one (model, t, n_steps, occupied sectors) entry, so the members of a mixture
evaluated at one time point share one power.  It takes its step from a second
one-entry memo keyed on (model, step size, sectors), so the points of one step
size share one build when they come one after another, as `gf_series` visits
them.  The power is taken at each point by `np.linalg.matrix_power`, whose
multiplication order the recorded outputs follow.  The sector basis is held
for a few (model, sectors) keys.  A `PairingModel` is keyed by identity (its
arrays are read-only copies), a `HubbardModel` by value.

The gate-level `Circuit`, a tuple of `GateMatrix` that `controlled` turns into
gates on (ancilla, *targets), is the oracle the sector step is tested against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .models import HubbardModel, PairingModel, sector_labels
from .statevector import GateMatrix, SimulationError, StateVector, apply_gate, controlled_matrix

REFERENCE_DT_PAIRING = 0.002  # dt * (level spacing)
REFERENCE_DT_HUBBARD = 0.02  # dt * J


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list; gates[0] is applied first."""

    gates: tuple[GateMatrix, ...]
    n_qubits: int
    n_steps: int = 1

    def apply(self, state: StateVector) -> StateVector:
        for gate in self.gates:
            state = apply_gate(state, gate)
        return state

    def controlled(self, ancilla: int) -> "Circuit":
        """Each gate controlled on (ancilla, *targets); `GateMatrix` refuses a repeated qubit or a 4th target."""
        gates = tuple(GateMatrix(controlled_matrix(g), (ancilla, *g.targets), g.name) for g in self.gates)
        return Circuit(gates, max(self.n_qubits, ancilla + 1), self.n_steps)


# A 1-qubit gate on q sits in the tables on the pair (q, q): its local value
# 2 s_q + s_q is 0 or 3 only, so its phase sits at v = 11 and nothing couples.


def _step_gates(model, dt) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One first-order step as coefficient tables (diag, off, pairs), in step order.

    Gate g on the target pair pairs[g] = (a, b) keeps diag[g, v] of a state of
    local value v = 2 s_a + s_b and takes off[g, v] of its partner, the state
    with both targets flipped; off is zero at v in {00, 11}.  A phase,
    interaction or 1-qubit R gate holds e^{i phi} in diag at v = 11, a
    pair-coupling or hopping block cos(lam) in diag and +-i sin(lam) in off at
    v in {01, 10}; every other entry is the identity's.  dt is one step size or
    an array of them, whose shape the (G, 4) tables then carry in front.
    """
    dt = np.asarray(dt, dtype=float)
    if np.any(dt <= 0):
        raise SimulationError(f"dt must be > 0, got {dt}")
    dt = dt[..., None]  # one row of each part's gate parameters per step size
    if isinstance(model, PairingModel):
        # level phase gates R(-2 eps_p dt), then the pair-coupling blocks on (q, p) for p > q
        m = model.n_levels
        pairs = np.array([(p, p) for p in range(m)] + [(q, p) for p in range(1, m) for q in range(p)])
        phased, coupled = slice(0, m), slice(m, None)
        phases = -2.0 * model.eps * dt
        lam, sign = model.g[pairs[coupled, 1], pairs[coupled, 0]] * dt, 1j
    elif isinstance(model, HubbardModel):
        # hopping blocks on neighbours within each spin chain, then interaction blocks on (a, a + M)
        m = model.sites
        pairs = np.array([(a, a + 1) for a in range(2 * m - 1) if a != m - 1] + [(a, a + m) for a in range(m)])
        coupled, phased = slice(0, 2 * m - 2), slice(2 * m - 2, None)
        phases = -dt * model.onsite * np.ones(m)
        lam, sign = dt * model.hopping * np.ones(2 * m - 2), -1j
    else:
        raise SimulationError(f"unsupported model type {type(model).__name__}")
    if not (np.isfinite(phases).all() and np.isfinite(lam).all()):
        raise SimulationError(f"step gate angles of {type(model).__name__} at dt {dt.ravel()} are not finite")
    diag = np.ones(dt.shape[:-1] + (len(pairs), 4), dtype=complex)
    off = np.zeros_like(diag)
    diag[..., phased, 3] = np.exp(1j * phases)
    diag[..., coupled, 1:3] = np.cos(lam)[..., None]
    off[..., coupled, 1:3] = sign * np.sin(lam)[..., None]
    return diag, off, pairs


def trotter_step(model, dt: float) -> Circuit:
    """One first-order step as a gate-level circuit, gate for gate the tables of `_step_gates`."""
    diag, off, pairs = _step_gates(model, dt)
    v = np.arange(4)
    matrices = np.zeros(diag.shape + (4,), dtype=complex)
    matrices[:, v, v] = diag
    matrices[:, v, v ^ 3] = off  # the partner's entry; zero at 00 and 11
    gates = []
    for matrix, (a, b) in zip(matrices, pairs.tolist()):
        if a == b:
            gates.append(GateMatrix(matrix[::3, ::3].copy(), (a,), name=f"R({a})"))
        else:
            kind = "Ug" if isinstance(model, PairingModel) else "Uj" if b == a + 1 else "Uu"
            gates.append(GateMatrix(matrix, (a, b), name=f"{kind}({a},{b})"))
    return Circuit(tuple(gates), model.n_qubits)


def reference_dt(model) -> float:
    """Step size used for noiseless runs: dt*spacing = 0.002 (pairing), dt*J = 0.02 (Hubbard)."""
    if isinstance(model, PairingModel):
        return REFERENCE_DT_PAIRING / model.level_spacing
    if isinstance(model, HubbardModel):
        return REFERENCE_DT_HUBBARD / abs(model.hopping)
    raise SimulationError(f"unsupported model type {type(model).__name__}")


def steps_for(model, t: float, policy="reference") -> int:
    """Number of Trotter steps for evolving to time t under a step policy.

    "reference" gives ceil(t / reference_dt); an int is a fixed step count.
    """
    if policy == "reference":
        if t == 0:
            return 1
        return max(1, int(math.ceil(abs(t) / reference_dt(model) - 1e-12)))
    if isinstance(policy, int):
        if policy < 1:
            raise SimulationError(f"n_steps must be >= 1, got {policy}")
        return policy
    raise SimulationError(f"unknown step policy {policy!r}")


def _gate_action(off: np.ndarray, pairs: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(local, partner) of coefficient tables on bit pairs, on the sorted basis indices b.

    off[..., g, :] and pairs[g] = (a, b) are one table: a step gate of
    `_step_gates` (any leading step-size axes) or, say, a noise slot on the
    bits of the flat X index.  A state s has the local value local[g] =
    v = 2 s_a + s_b; it keeps diag[g, v] of itself and takes off[g, v] of its
    partner s ^ mask, both bits flipped, at the position partner[g] (its own
    where nothing couples it).  A nonzero off that reaches a partner outside
    the basis raises `SimulationError`.
    """
    high = (basis >> pairs[:, :1]) & 1
    low = (basis >> pairs[:, 1:]) & 1
    local = 2 * high + low
    # only a state the table couples at some step size needs its partner, and that partner must lie in the basis
    coupled = np.take_along_axis(np.any(off, axis=tuple(range(off.ndim - 2))), local, axis=1)
    flipped = basis ^ ((1 << pairs[:, :1]) | (1 << pairs[:, 1:]))
    partner = np.where(coupled, np.searchsorted(basis, flipped), np.arange(basis.size))
    outside = coupled & (basis[np.minimum(partner, basis.size - 1)] != flipped)
    if np.any(outside):
        g, k = np.unravel_index(np.argmax(outside), outside.shape)
        raise SimulationError(
            f"table {g} on {tuple(pairs[g].tolist())} couples basis state {basis[k]} "
            f"to {flipped[g, k]}, which lies outside the sector basis"
        )
    return local, partner


def _apply_table(stack: np.ndarray, d: np.ndarray, o: np.ndarray, partner: np.ndarray, taken: np.ndarray) -> None:
    """stack = d * stack + o * stack[..., partner] in place, through the buffer taken of stack's shape.

    States sit on the last axis; stack's leading axes (the step matrix's rows,
    the noise block's times) are carried through.  The gather is
    `ndarray.take` with mode="clip": `_gate_action` checked every index, and
    the default "raise" copies `out` through a fresh temporary on each call.
    Keep the operand order: the outputs were recorded with it.
    """
    stack.take(partner, axis=-1, out=taken, mode="clip")
    np.multiply(o, taken, out=taken)
    np.multiply(d, stack, out=stack)
    stack += taken


def _sector_step(diag: np.ndarray, off: np.ndarray, pairs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Row j holds step|b_j> on the basis states b, so a row state evolves as psi @ this.

    basis is a sorted union of whole conserved sectors (`models.sector_labels`).
    Each gate's entries are gathered once, by `_gate_action`'s local values.
    The leading tables that couple no basis state only scale the identity's
    diagonal, so the matrix starts from their product, diag(prefix); each
    later table updates it in place (`_apply_table`).  The result is bit for
    bit d * step + o * step[:, p] taken table by table from eye(d).
    """
    local, partner = _gate_action(off, pairs, basis)
    diag, off = np.take_along_axis(diag, local, axis=1), np.take_along_axis(off, local, axis=1)
    coupling = np.flatnonzero(np.any(off, axis=1))
    lead = coupling[0] if coupling.size else len(diag)
    prefix = np.ones(basis.size, dtype=complex)
    for d in diag[:lead]:
        prefix = d * prefix
    step = np.diag(prefix)
    taken = np.empty_like(step)
    for d, o, p in zip(diag[lead:], off[lead:], partner[lead:]):
        _apply_table(step, d, o, p, taken)
    return step


@functools.lru_cache(maxsize=8)
def _sector_basis(model, sectors: tuple[int, ...]) -> np.ndarray:
    """The sorted, read-only basis of the model's given sectors, held per (model, sectors), not built per point."""
    basis = np.flatnonzero(np.isin(sector_labels(model, np.arange(1 << model.n_qubits)), sectors))
    basis.setflags(write=False)
    return basis


@functools.lru_cache(maxsize=1)
def _step_matrix(model, dt: float, sectors: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The basis of the given conserved sectors and the step S of size dt on it.

    The memo holds the model, so an identity-keyed model cannot be collected
    and its id reused while its entry lives; both arrays are read-only, as
    every caller with this key gets the same ones.
    """
    basis = _sector_basis(model, sectors)
    step = _sector_step(*_step_gates(model, dt), basis)
    step.setflags(write=False)
    return basis, step


@functools.lru_cache(maxsize=1)
def _propagator(model, t: float, n_steps: int, sectors: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The basis of the given conserved sectors and U(t) = S^n_steps on it, read-only.

    S is `_step_matrix`'s step of size t/n_steps, which the points of one step
    size share; at n_steps = 1 the power is S itself.
    """
    basis, step = _step_matrix(model, t / n_steps, sectors)
    power = np.linalg.matrix_power(step, n_steps)
    power.setflags(write=False)
    return basis, power


def controlled_evolve(state: StateVector, model, t: float, n_steps: int) -> StateVector:
    """n_steps first-order Trotter steps of size t/n_steps, controlled on the ancilla.

    state is the Hadamard test's register: the model's qubits plus an ancilla
    on top.  Only its ancilla-|1> half is evolved, on the union of the
    conserved sectors that half occupies.
    """
    if n_steps < 1:
        raise SimulationError(f"n_steps must be >= 1, got {n_steps}")
    if state.n_qubits != model.n_qubits + 1:
        raise SimulationError(f"{state.n_qubits}-qubit state is not the {model.n_qubits}-qubit model plus an ancilla")
    if t == 0:
        return state.copy()
    halves = state.amplitudes.reshape(2, -1).copy()
    sectors = sector_labels(model, np.flatnonzero(halves[1]))
    basis, power = _propagator(model, t, n_steps, tuple(sorted(set(sectors.tolist()))))
    halves[1:, basis] = halves[1:, basis] @ power
    return StateVector(state.n_qubits, halves.reshape(-1), copy=False)
