"""Synthetic readout + depolarizing noise and the two mitigation techniques.

Noise model: after every gate of a Hadamard-test circuit, each of its targets
independently suffers a uniform Pauli error (X, Y, Z each with probability
p_dep/3), and the ancilla's readout flips a true 0 to 1 with probability p01
and a true 1 to 0 with probability p10; `NoiseModel` holds the three numbers,
as the config's noise block does.  `noisy_sample` draws each circuit's shots
in one binomial draw from the exact outcome probability under the equivalent
depolarizing channel.  That comes from the off-diagonal ancilla block
X = <0|rho|1>, a 2^n x 2^n matrix on the system, which evolves by itself
(Nielsen & Chuang, section 8.3): the opening Hadamard and its slot give
X = (1 - 4p/3) psi psi^H / 2, each controlled step gate G sends X to
(1 - 4p/3) X G^H (the factor is its ancilla slot), and each system qubit it
acts on gets the channel's 4x4 map.  The closing Hadamard and its slot read the
Re circuit's bias as (1 - 4p/3) 2 Re tr X; the Im circuit's R(-pi/2) and its
slot multiply X by i (1 - 4p/3), so one evolution gives both quadratures.  The
step gates conserve the model's sectors, and a slot on qubit q mixes an entry
of X only with the one that has q flipped on both sides, so the entries whose
row and column share a sector evolve among themselves; they hold tr X.  Gates
and slots alike act on those entries as coefficient tables, which
`trotter._gate_action` gathers.  One pass over the gate sequence evolves a
member's blocks on those entries at every nonzero time point together, as the
rows of one stack (`_coherence_p0`), and `noisy_sample` draws all their shots.
`_run_with_errors` (one fixed error pattern on a pure state) is the
reference the channel is tested against.

Mitigation works on the one number each Hadamard test reads, the bias
b = p0 - p1.  The flips send a true bias b to a + s b, with a = p10 - p01 and
s = 1 - p01 - p10 (`NoiseModel.bias_map`); (1) readout inversion applies
(b - a) / s and clips to [-1, 1].  (2) The reference correction is calibrated
on the t = 0 data of both circuits, where the ideal biases are known exactly
(1 for Re, 0 for Im): a map o + r b that sends them to the observed f0_re and
f0_im has o = f0_im and r = f0_re - f0_im.  On a series the two inverses
compose to b -> ((b - a) / s - o) / r, applied to both quadratures at once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .genfunc import GfSeries
from .models import sector_labels
from .statevector import GateMatrix, SimulationError, StateVector, apply_gate, sample_ancilla
from .trotter import Circuit, _gate_action, _step_gates


@dataclass(frozen=True)
class NoiseModel:
    """Readout flips p01 = P(read 1 | true 0) and p10 = P(read 0 | true 1), and the depolarizing p_dep."""

    p01: float = 0.0
    p10: float = 0.0
    p_dep: float = 0.0

    def __post_init__(self):
        for name in ("p01", "p10", "p_dep"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:  # NaN fails too
                raise SimulationError(f"{name} must lie in [0, 1], got {value}")

    @property
    def bias_map(self) -> tuple[float, float]:
        """(a, s): shots of true bias b read bias a + s b, from C[0,0] = 1 - p01 and C[0,1] = p10."""
        c00, c01 = 1.0 - self.p01, self.p10
        return c00 + c01 - 1.0, c00 - c01


_PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def _run_with_errors(init: StateVector, circuit: Circuit, pattern: tuple[tuple[int, int], ...]) -> StateVector:
    """Replay the circuit inserting the given (slot, pauli) errors; each gate has one slot per target, in order."""
    by_slot = dict(pattern)
    state = init
    slot = 0
    for gate in circuit.gates:
        state = apply_gate(state, gate)
        for qubit in gate.targets:
            pauli = by_slot.get(slot)
            if pauli is not None:
                state = apply_gate(state, GateMatrix(_PAULIS[pauli], (qubit,)))
            slot += 1
    return state


def _coherence_p0(member: StateVector, model, times, n_steps: int, p_dep: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact ancilla-0 probabilities of the noisy Re and Im Hadamard tests at each time, by n_steps steps of t / n_steps.

    X is held on the flat, sorted list of its C entries r 2^n + c whose row
    and column share a sector (`models.sector_labels`): C(2n, n) for pairing
    and C(2M, M)^2 for Hubbard, against 4^n.  X G^H is conj(G) on the column,
    so each gate is one gather, X -> diag X + off X[:, partner], with
    `_gate_action` on the conjugated `_step_gates` tables for the 2^n columns.
    A slot on qubit q, X -> (1 - 4p/3) X + (2p/3) Tr_q X (x) I, keeps 1 - 2p/3
    of an entry with r_q = c_q and takes 2p/3 of the entry with q flipped on
    both sides; it damps every other entry by 1 - 4p/3.  That is a coefficient
    table on the bit pair (n + q, q) of the flat index, which `_gate_action`
    gathers on the C entries themselves.  The P nonzero times
    evolve together as the rows of one (P, C) stack, on the tables at all P
    step sizes; a t = 0 test controls no gates.  The stack holds P C complex
    numbers (16 P C bytes), and a step's G gathers G C int64 indices.
    """
    n = member.n_qubits
    if n != model.n_qubits:
        raise SimulationError(f"{n}-qubit member for a model on {model.n_qubits} qubits")
    if n_steps < 1:
        raise SimulationError(f"n_steps must be >= 1, got {n_steps}")
    times = np.asarray(times, dtype=float)
    moving = times != 0
    diag, off, pairs = _step_gates(model, times[moving] / n_steps)
    labels = sector_labels(model, np.arange(1 << n))
    flat = np.flatnonzero(np.equal.outer(labels, labels))
    rows, cols = flat >> n, flat & ((1 << n) - 1)
    diag, off, partner = _gate_action(diag.conj(), off.conj(), pairs, np.arange(1 << n))
    target = (rows << n) | partner[:, cols]
    gather = np.searchsorted(flat, target)
    if np.any(flat[np.minimum(gather, flat.size - 1)] != target):
        raise SimulationError("a step gate couples entries of X that lie in different sectors")
    keep, damp, mixed = 1.0 - 2.0 * p_dep / 3.0, 1.0 - 4.0 * p_dep / 3.0, 2.0 * p_dep / 3.0
    slot_diag = np.array([[keep, damp, damp, keep]] * n, dtype=complex)
    slot_off = np.array([[mixed, 0.0, 0.0, mixed]] * n, dtype=complex)
    slot_pairs = np.array([(n + q, q) for q in range(n)])  # (r_q, c_q) of the flat index r 2^n + c
    slots = list(zip(*_gate_action(slot_diag, slot_off, slot_pairs, flat)))
    start = damp / 2.0 * (member.amplitudes[rows] * member.amplitudes[cols].conj())
    block = np.tile(start, (np.count_nonzero(moving), 1))
    for _ in range(n_steps if moving.any() else 0):  # an empty stack has nothing to evolve
        for g, (a, b) in enumerate(pairs.tolist()):
            block = diag[:, g, cols] * block + off[:, g, cols] * block[:, gather[g]]
            for own, other, partner_q in (slots[a],) if a == b else (slots[a], slots[b]):
                block = own * block + other * block[:, partner_q]
    on_diagonal = rows == cols
    traces = np.full(times.size, start[on_diagonal].sum())
    traces[moving] = damp ** (len(pairs) * n_steps) * block[:, on_diagonal].sum(axis=1)  # each gate's ancilla slot
    return 0.5 + damp * traces.real, 0.5 - damp**2 * traces.imag  # p0 = (1 + b) / 2, b as in the module docstring


def noisy_sample(
    member: StateVector, model, times, shots: int, seeds, *, n_steps: int, noise: NoiseModel
) -> np.ndarray:
    """Noisy Re and Im Hadamard tests of one member at each time with confused readout: one binomial draw each.

    seeds holds one (Re, Im) seed pair per time; the result's two rows are the
    Re and the Im bias (n0 - n1) / shots over the times.  Each shot reports 0
    with probability (1 - p01) p0 + p10 (1 - p0), p0 the circuit's exact
    ancilla-0 probability.  With no flips and p_dep = 0 each draw is
    sample_ancilla's on the clean circuit's p0.
    """
    if shots < 1:  # before the block evolution, not after it
        raise SimulationError(f"shots must be >= 1, got {shots}")
    c00, c01 = 1.0 - noise.p01, noise.p10
    p0_re, p0_im = _coherence_p0(member, model, times, n_steps, noise.p_dep)
    q_re, q_im = (c00 * p0 + c01 * (1.0 - p0) for p0 in (p0_re, p0_im))
    biases = [
        (sample_ancilla(re, shots, seed_re), sample_ancilla(im, shots, seed_im))
        for re, im, (seed_re, seed_im) in zip(q_re, q_im, seeds, strict=True)
    ]
    return np.array(biases, dtype=float).reshape(-1, 2).T


# Mitigation -------------------------------------------------------------------


def _readout_inverse(noise: NoiseModel) -> tuple[float, float]:
    offset, slope = noise.bias_map
    if abs(slope) < 1e-9:
        raise SimulationError(f"readout bias map is singular (slope 1 - p01 - p10 = {slope:.3e})")
    return offset, slope


def mitigate_readout(bias: float, noise: NoiseModel) -> tuple[float, bool]:
    """Invert the readout's bias map; clip results outside [-1, 1].

    Returns (corrected bias, clipped flag).  The clip is the probability
    pair's clip-and-renormalize: the pair ((1 + b)/2, (1 - b)/2) leaves the
    simplex iff |b| > 1, and renormalizing it gives bias +-1.
    """
    offset, slope = _readout_inverse(noise)
    corrected = (float(bias) - offset) / slope
    return min(1.0, max(-1.0, corrected)), abs(corrected) > 1.0


def calibrate_reference(f0_re: float, f0_im: float) -> tuple[float, float]:
    """(offset, slope) of the t = 0 reference map from observed Re/Im biases.

    The ideal t = 0 biases are 1 (Re) and 0 (Im), so the map o + r b that
    reproduces the observations has o = f0_im and r = f0_re - f0_im.  As a
    2x2 map of outcome probabilities its determinant is r, so |r| < 1e-6
    is rejected as not invertible.  With pure readout noise (o, r) is the
    measured qubit's bias map.
    """
    slope = float(f0_re) - float(f0_im)
    if abs(slope) < 1e-6:
        raise SimulationError(f"reference calibration not invertible (det = {slope:.3e})")
    return float(f0_im), slope


def mitigate_series(noisy: GfSeries, noise: NoiseModel, ref: tuple[float, float]) -> GfSeries:
    """Readout inversion then reference correction: b -> ((b - a)/s - o)/r on both quadratures.

    (a, s) is the readout's bias map and (o, r) the reference's; the error
    bars scale by 1/|s r|.  No clipping: a series point may leave [-1, 1].
    """
    a, s = _readout_inverse(noise)
    o, r = ref

    def unmap(b):
        return ((b - a) / s - o) / r

    return replace(
        noisy,
        re=unmap(noisy.re),
        im=unmap(noisy.im),
        re_err=noisy.re_err / abs(s * r),
        im_err=noisy.im_err / abs(s * r),
        route="mitigated",
    )
