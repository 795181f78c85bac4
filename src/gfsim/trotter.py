"""First-order Trotter-Suzuki step circuits and (controlled) time evolution.

One step factorizes exp(-i dt H) into the model's two parts, each realized by
explicit 1- and 2-qubit blocks:

* Hubbard: all hopping blocks over allowed neighbor pairs (ascending index),
  then all interaction blocks diag(1,1,1,e^{-i dt U}) on (site, site+M);
* pairing: phase gates R(-2 eps_p dt) on every level qubit, then for each
  p > q the block with cos(g_pq dt) / +i sin(g_pq dt) entries.

Within each part gates are applied in ascending qubit order; the order is
frozen here because any fixed order is valid at first order.

`evolve` and `controlled_evolve` multiply the whole step out into a step
matrix on the particle-number sectors the input occupies, and then apply it
n_steps times.  Every gate of both factorizations is diagonal or acts only
inside {|01>, |10>}, so it conserves the Hamming weight of the system
register: the amplitudes outside those sectors are zero and stay exactly zero.
The step matrix is built on the sector alone, starting from its identity: a
gate scales each sector state by its diagonal entry and mixes in the one
partner state that differs on the two targets.  A gate that couples local
states of different weight raises `SimulationError` instead of leaking
amplitude out of the sector.  The last step matrix is kept, keyed by the model
object, the step size and the occupied weights, so the members of a mixture
evaluated at one time point share one build.  Controlled evolution evolves
only the ancilla-|1> half, which is exact for the block-diagonal
[[I, 0], [0, U]].

The gate-level `Circuit` (with `controlled` promoting each gate to an explicit
ancilla-controlled 3-qubit matrix) is kept for the noise study, which applies a
depolarizing channel after every gate, and as the oracle the fused evolution
is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import HubbardModel, PairingModel
from .statevector import UNITARITY_TOL, GateMatrix, SimulationError, StateVector, apply_controlled, apply_gate

REFERENCE_DT_PAIRING = 0.002  # dt * (level spacing)
REFERENCE_DT_HUBBARD = 0.02  # dt * J


@dataclass(frozen=True)
class AppliedGate:
    """A gate plus an optional control qubit."""

    gate: GateMatrix
    control: int | None = None

    @property
    def touched(self) -> tuple[int, ...]:
        if self.control is None:
            return self.gate.targets
        return (self.control, *self.gate.targets)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list; gates[0] is applied first."""

    gates: tuple[AppliedGate, ...]
    n_qubits: int
    dt: float = 0.0
    n_steps: int = 1

    def apply(self, state: StateVector) -> StateVector:
        for item in self.gates:
            if item.control is None:
                state = apply_gate(state, item.gate)
            else:
                state = apply_controlled(state, item.control, item.gate)
        return state

    def controlled(self, ancilla: int) -> "Circuit":
        """Promote every gate to its ancilla-controlled version, same order."""
        for item in self.gates:
            if item.control is not None:
                raise SimulationError("circuit already controlled")
            if ancilla in item.gate.targets:
                raise SimulationError(f"ancilla {ancilla} collides with gate targets")
        gates = tuple(AppliedGate(item.gate, ancilla) for item in self.gates)
        return Circuit(gates, max(self.n_qubits, ancilla + 1), self.dt, self.n_steps)


def _hopping_block(lam: float) -> np.ndarray:
    c, s = math.cos(lam), math.sin(lam)
    return np.array(
        [
            [1, 0, 0, 0],
            [0, c, -1j * s, 0],
            [0, -1j * s, c, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    )


def _pairing_block(lam: float) -> np.ndarray:
    c, s = math.cos(lam), math.sin(lam)
    return np.array(
        [
            [1, 0, 0, 0],
            [0, c, 1j * s, 0],
            [0, 1j * s, c, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    )


def trotter_step_hubbard(model: HubbardModel, dt: float) -> Circuit:
    """One first-order step: hopping blocks then interaction blocks."""
    if dt <= 0:
        raise SimulationError(f"dt must be > 0, got {dt}")
    m = model.sites
    gates: list[AppliedGate] = []
    lam = dt * model.hopping
    for a in range(2 * m - 1):
        if a == m - 1:
            continue
        gates.append(AppliedGate(GateMatrix(_hopping_block(lam), (a, a + 1), name=f"Uj({a},{a + 1})")))
    phase = np.diag([1.0, 1.0, 1.0, np.exp(-1j * dt * model.onsite)])
    for a in range(m):
        gates.append(AppliedGate(GateMatrix(phase, (a, a + m), name=f"Uu({a},{a + m})")))
    return Circuit(tuple(gates), model.n_qubits, dt=dt)


def trotter_step_pairing(model: PairingModel, dt: float) -> Circuit:
    """One first-order step: level phase gates then pair-coupling blocks."""
    if dt <= 0:
        raise SimulationError(f"dt must be > 0, got {dt}")
    m = model.n_levels
    gates: list[AppliedGate] = []
    for p in range(m):
        phi = -2.0 * model.eps[p] * dt
        gates.append(AppliedGate(GateMatrix(np.diag([1.0, np.exp(1j * phi)]), (p,), name=f"R({p})")))
    for p in range(1, m):
        for q in range(p):
            lam = model.g[p, q] * dt
            gates.append(AppliedGate(GateMatrix(_pairing_block(lam), (q, p), name=f"Ug({q},{p})")))
    return Circuit(tuple(gates), model.n_qubits, dt=dt)


def trotter_step(model, dt: float) -> Circuit:
    if isinstance(model, PairingModel):
        return trotter_step_pairing(model, dt)
    if isinstance(model, HubbardModel):
        return trotter_step_hubbard(model, dt)
    raise SimulationError(f"unsupported model type {type(model).__name__}")


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


def _hamming_weights(n_qubits: int) -> np.ndarray:
    index = np.arange(1 << n_qubits)
    return sum((index >> q) & 1 for q in range(n_qubits))


# Entries of a 4x4 gate matrix that couple local states of different Hamming
# weight.  A 1-qubit gate on q is embedded as a gate on (q, q), whose local
# values are 0 and 3 only, so its coupling lands on these entries too.
_LOCAL_WEIGHT = np.array([0, 1, 1, 2])
_WEIGHT_CHANGING = np.not_equal.outer(_LOCAL_WEIGHT, _LOCAL_WEIGHT)


def _sector_step(step: Circuit, basis: np.ndarray) -> np.ndarray:
    """Row j holds step|b_j> on the basis states b, so a row state evolves as psi @ this.

    basis is a sorted union of whole Hamming-weight sectors.  A gate on targets
    (a, b) acts on a sector state s through its local value v = 2 s_a + s_b:
    s keeps G[v, v] of itself and, for v in {01, 10}, takes G[v, v ^ 3] of its
    partner s ^ mask, the state with both targets flipped.
    """
    gates = [item.gate for item in step.gates]
    matrices = np.zeros((len(gates), 4, 4), dtype=complex)
    pairs = np.empty((len(gates), 2), dtype=np.int64)
    for g, gate in enumerate(gates):
        if len(gate.targets) == 1:
            matrices[g][np.ix_([0, 3], [0, 3])] = gate.matrix
            pairs[g] = gate.targets * 2
        else:
            matrices[g] = gate.matrix
            pairs[g] = gate.targets
    leak = np.abs(matrices[:, _WEIGHT_CHANGING]).max(axis=1, initial=0.0)
    if np.any(leak > UNITARITY_TOL):
        g = int(np.argmax(leak))
        raise SimulationError(
            f"gate {gates[g].name or gates[g].targets} does not conserve the Hamming weight: coupling {leak[g]:.3e}"
        )
    high = (basis >> pairs[:, :1]) & 1
    low = (basis >> pairs[:, 1:]) & 1
    local = 2 * high + low
    swap = high != low
    flipped = basis ^ ((1 << pairs[:, :1]) | (1 << pairs[:, 1:]))
    partner = np.where(swap, np.searchsorted(basis, flipped), np.arange(basis.size))
    rows = np.arange(len(gates))[:, None]
    diag = matrices[rows, local, local]
    off = np.where(swap, matrices[rows, local, local ^ 3], 0.0)
    states = np.eye(basis.size, dtype=complex)
    for d, p, o in zip(diag, partner, off):
        states = states * d + states[:, p] * o
    return states


# (model, dt, occupied weights, basis, step matrix) of the last build; the
# model is matched by identity, which is safe because its fields are immutable
_last_step: tuple | None = None


def _evolve_rows(rows: np.ndarray, model, t: float, n_steps: int) -> np.ndarray:
    """Evolve each row of system amplitudes by n_steps steps, within its occupied sectors."""
    global _last_step
    dt = t / n_steps
    weights = _hamming_weights(model.n_qubits)
    occupied = np.unique(weights[rows.any(axis=0)])
    last = _last_step
    if last is not None and last[0] is model and last[1] == dt and np.array_equal(last[2], occupied):
        basis, u = last[3], last[4]
    else:
        step = trotter_step(model, dt)
        basis = np.flatnonzero(np.isin(weights, occupied))
        u = _sector_step(step, basis)
        _last_step = (model, dt, occupied, basis, u)
    block = rows[:, basis]
    for _ in range(n_steps):
        block = block @ u
    out = np.zeros_like(rows)
    out[:, basis] = block
    return out


def _system_rows(state: StateVector, model) -> np.ndarray:
    """Amplitudes as rows over the system register (low qubits), one row per setting of the rest."""
    if state.n_qubits < model.n_qubits:
        raise SimulationError(f"{state.n_qubits}-qubit state is smaller than the {model.n_qubits}-qubit model")
    return state.amplitudes.reshape(-1, 1 << model.n_qubits)


def evolve(state: StateVector, model, t: float, n_steps: int) -> StateVector:
    """Apply n_steps first-order Trotter steps of size t/n_steps."""
    if n_steps < 1:
        raise SimulationError(f"n_steps must be >= 1, got {n_steps}")
    if t == 0:
        return state.copy()
    out = _evolve_rows(_system_rows(state, model), model, t, n_steps)
    return StateVector(state.n_qubits, out, copy=False)


def controlled_evolve(state: StateVector, model, t: float, n_steps: int, ancilla: int) -> StateVector:
    """Ancilla-controlled version of evolve: only the ancilla-|1> half is evolved."""
    if n_steps < 1:
        raise SimulationError(f"n_steps must be >= 1, got {n_steps}")
    if ancilla < model.n_qubits:
        raise SimulationError(f"ancilla {ancilla} lies inside the system register")
    if ancilla >= state.n_qubits:
        raise SimulationError(f"qubit index {ancilla} out of range for {state.n_qubits} qubits")
    if t == 0:
        return state.copy()
    rows = _system_rows(state, model)
    on = (np.arange(rows.shape[0]) >> (ancilla - model.n_qubits)) & 1 == 1
    out = rows.copy()
    out[on] = _evolve_rows(rows[on], model, t, n_steps)
    return StateVector(state.n_qubits, out, copy=False)
