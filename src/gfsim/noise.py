"""Synthetic readout + depolarizing noise and the two mitigation techniques.

Noise model: after every gate of a Hadamard-test circuit, each touched qubit
independently suffers a uniform Pauli error (X, Y, Z each with probability
p_dep/3), and the ancilla's outcome passes through a column-stochastic 2x2
confusion matrix.  `noisy_sample` draws each circuit's shots in one binomial
draw from the exact outcome probability under the equivalent depolarizing
channel.  That comes from the off-diagonal ancilla block X = <0|rho|1>, a
2^n x 2^n matrix on the system, which evolves by itself (Nielsen & Chuang,
section 8.3): the opening Hadamard and its slot give X = (1 - 4p/3) psi psi^H / 2,
each controlled step gate G sends X to (1 - 4p/3) X G^H (the factor is its
ancilla slot), and each touched system qubit gets the channel's 4x4 map.  The
closing Hadamard and its slot read the Re circuit's bias as (1 - 4p/3) 2 Re tr X;
the Im circuit's R(-pi/2) and its slot multiply X by i (1 - 4p/3), so one
evolution gives both quadratures.  One pass over the gate sequence evolves a
member's blocks at every nonzero time point together, as the rows of one
stack of P 4^n complex numbers (`_coherence_p0`), and `noisy_sample` draws
all their shots and returns the Re and Im biases over the times.
`_run_with_errors` (one fixed error pattern on a pure state) is the
reference the channel is tested against.

Mitigation works on the one number each Hadamard test reads, the bias
b = p0 - p1.  A confused readout sends a true bias b to a + s b, with
a = C[0,0] + C[0,1] - 1 and s = C[0,0] - C[0,1] = det C (`ReadoutModel.bias_map`);
(1) readout inversion applies (b - a) / s and clips to [-1, 1].  (2) The
reference correction is calibrated on the t = 0 data of both circuits, where
the ideal biases are known exactly (1 for Re, 0 for Im): a map o + r b that
sends them to the observed f0_re and f0_im has o = f0_im and r = f0_re - f0_im.
On a series the two inverses compose to b -> ((b - a) / s - o) / r, applied
to both quadratures at once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .genfunc import GfSeries
from .statevector import (
    GateMatrix,
    SimulationError,
    StateVector,
    _apply_matrix,
    apply_controlled,
    apply_gate,
    sample_ancilla,
)
from .trotter import Circuit, _check_unitary, _step_gates


@dataclass(frozen=True)
class ReadoutModel:
    """The measured qubit's 2x2 confusion matrix; columns are the true state."""

    confusion: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.confusion, dtype=float)
        if mat.shape != (2, 2):
            raise SimulationError(f"confusion matrix must be 2x2, got {mat.shape}")
        if np.any(mat < -1e-12):
            raise SimulationError("confusion matrix entries must be nonnegative")
        if np.abs(mat.sum(axis=0) - 1.0).max() > 1e-9:
            raise SimulationError("confusion matrix columns must sum to 1")
        object.__setattr__(self, "confusion", mat)

    @classmethod
    def from_flips(cls, p_flip_0to1: float, p_flip_1to0: float) -> "ReadoutModel":
        return cls(np.array([[1.0 - p_flip_0to1, p_flip_1to0], [p_flip_0to1, 1.0 - p_flip_1to0]]))

    @classmethod
    def identity(cls) -> "ReadoutModel":
        return cls.from_flips(0.0, 0.0)

    def is_identity(self) -> bool:
        return bool(np.allclose(self.confusion, np.eye(2), atol=1e-15))

    @property
    def bias_map(self) -> tuple[float, float]:
        """(a, s): shots of true bias b read bias a + s b.  For a column-stochastic C, s = det C."""
        c = self.confusion
        return float(c[0, 0] + c[0, 1] - 1.0), float(c[0, 0] - c[0, 1])


@dataclass(frozen=True)
class NoiseConfig:
    readout: ReadoutModel
    p_dep: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p_dep <= 1.0:
            raise SimulationError(f"p_dep must lie in [0, 1], got {self.p_dep}")


_PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def _run_with_errors(init: StateVector, circuit: Circuit, pattern: tuple[tuple[int, int], ...]) -> StateVector:
    """Replay the circuit inserting the given (slot, pauli) errors after gates."""
    by_slot = dict(pattern)
    state = init
    slot = 0
    for item in circuit.gates:
        if item.control is None:
            state = apply_gate(state, item.gate)
        else:
            state = apply_controlled(state, item.control, item.gate)
        for qubit in item.touched:
            pauli = by_slot.get(slot)
            if pauli is not None:
                state = apply_gate(state, GateMatrix(_PAULIS[pauli], (qubit,)))
            slot += 1
    return state


def _coherence_p0(member: StateVector, model, times, n_steps: int, p_dep: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact ancilla-0 probabilities of the noisy Re and Im Hadamard tests at each time, by n_steps steps of t / n_steps.

    X is held as a vector of 2n qubits with the row bits above the column
    bits, so X G^H is conj(G) on the column targets, and a slot on system
    qubit q, X -> (1 - 4p/3) X + (2p/3) Tr_q X (x) I, is one 4x4 map on
    (row q, column q) that mixes the two diagonal entries and damps the two
    coherences.  The P nonzero times evolve together as the rows of one
    (P, 4^n) stack: each gate is one batched product with every row's own
    matrix (`_step_gates` on all P step sizes, checked once), and each slot
    one call on the whole stack.  A t = 0 test controls no gates.  The stack
    holds P 4^n complex numbers, 16 P 4^n bytes (1 MB per point on 8 qubits),
    and each call makes one or two copies of it.
    """
    n = member.n_qubits
    if n != model.n_qubits:
        raise SimulationError(f"{n}-qubit member for a model on {model.n_qubits} qubits")
    if n_steps < 1:
        raise SimulationError(f"n_steps must be >= 1, got {n_steps}")
    times = np.asarray(times, dtype=float)
    moving = times != 0
    matrices, pairs = _step_gates(model, times[moving] / n_steps)
    _check_unitary(matrices, pairs)
    # the column side takes conj(G); a 1-qubit gate on q sits on (q, q) at rows and columns 0 and 3
    gates = [
        (g[:, ::3, ::3], (a,)) if a == b else (g, (a, b))
        for g, (a, b) in zip(np.moveaxis(matrices.conj(), 1, 0), pairs.tolist())
    ]
    keep, damp = 1.0 - 2.0 * p_dep / 3.0, 1.0 - 4.0 * p_dep / 3.0
    depolarize = np.diag([keep, damp, damp, keep]).astype(complex)
    depolarize[0, 3] = depolarize[3, 0] = 2.0 * p_dep / 3.0
    start = damp / 2.0 * np.outer(member.amplitudes, member.amplitudes.conj()).reshape(-1)
    block = np.tile(start, (np.count_nonzero(moving), 1))
    for _ in range(n_steps if moving.any() else 0):  # an empty stack has nothing to evolve
        for matrix, targets in gates:
            block = damp * _apply_matrix(block, 2 * n, matrix, targets)
            for qubit in targets:
                block = _apply_matrix(block, 2 * n, depolarize, (n + qubit, qubit))
    traces = np.full(times.size, start.reshape(1 << n, 1 << n).trace())
    traces[moving] = block.reshape(-1, 1 << n, 1 << n).trace(axis1=1, axis2=2)
    return 0.5 + damp * traces.real, 0.5 - damp**2 * traces.imag  # p0 = (1 + b) / 2, b as in the module docstring


def noisy_sample(
    member: StateVector, model, times, shots: int, seeds, *, n_steps: int, noise: NoiseConfig
) -> np.ndarray:
    """Noisy Re and Im Hadamard tests of one member at each time with confused readout: one binomial draw each.

    seeds holds one (Re, Im) seed pair per time; the result's two rows are the
    Re and the Im bias (n0 - n1) / shots over the times.  Each shot reports 0
    with probability C[0,0] p0 + C[0,1] (1 - p0), p0 the circuit's exact
    ancilla-0 probability.  With p_dep = 0 and an identity C each draw is
    sample_ancilla's on the clean circuit's p0.
    """
    if shots < 1:  # before the block evolution, not after it
        raise SimulationError(f"shots must be >= 1, got {shots}")
    confusion = noise.readout.confusion
    p0_re, p0_im = _coherence_p0(member, model, times, n_steps, noise.p_dep)
    q_re, q_im = (confusion[0, 0] * p0 + confusion[0, 1] * (1.0 - p0) for p0 in (p0_re, p0_im))
    biases = [
        (sample_ancilla(re, shots, seed_re), sample_ancilla(im, shots, seed_im))
        for re, im, (seed_re, seed_im) in zip(q_re, q_im, seeds, strict=True)
    ]
    return np.array(biases, dtype=float).reshape(-1, 2).T


# Mitigation -------------------------------------------------------------------


def _readout_inverse(readout: ReadoutModel) -> tuple[float, float]:
    offset, slope = readout.bias_map
    if abs(slope) < 1e-9:
        raise SimulationError(f"confusion matrix is singular (det = {slope:.3e})")
    return offset, slope


def mitigate_readout(bias: float, readout: ReadoutModel) -> tuple[float, bool]:
    """Invert the readout's bias map; clip results outside [-1, 1].

    Returns (corrected bias, clipped flag).  The clip is the probability
    pair's clip-and-renormalize: the pair ((1 + b)/2, (1 - b)/2) leaves the
    simplex iff |b| > 1, and renormalizing it gives bias +-1.
    """
    offset, slope = _readout_inverse(readout)
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


def mitigate_series(noisy: GfSeries, readout: ReadoutModel, ref: tuple[float, float]) -> GfSeries:
    """Readout inversion then reference correction: b -> ((b - a)/s - o)/r on both quadratures.

    (a, s) is the readout's bias map and (o, r) the reference's; the error
    bars scale by 1/|s r|.  No clipping: a series point may leave [-1, 1].
    """
    a, s = _readout_inverse(readout)
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
