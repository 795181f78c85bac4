"""Synthetic readout + depolarizing noise and the two mitigation techniques.

Noise model: after every applied gate, each touched qubit independently
suffers a uniform Pauli error (X, Y, Z each with probability p_dep/3), and
the measured qubit's outcome passes through a column-stochastic 2x2
confusion matrix before counting.  `noisy_sample` samples this exactly: the
density matrix through the equivalent depolarizing channel, then one binomial
draw.  The channel acts on vec(rho), a state of twice as many qubits, so each
gate and each depolarizing slot is one `_apply_matrix` call: kron(G, G*) for
a gate, and the channel's closed form, one 4x4 map, for a slot.
`_run_with_errors` (one fixed error pattern on a pure state) is the reference
the channel is tested against.

Mitigation: (1) readout inversion applies the inverse confusion matrix to
outcome probabilities; (2) reference correction builds one 2x2 matrix from
the t = 0 data of both Hadamard-test circuits, where the ideal outcomes are
known exactly -- the Re circuit's ideal (1, 0) pins its first column and the
Im circuit's ideal (1/2, 1/2) pins the column average -- and applies the
stored inverse at every later time.  On a series the two inverses compose to
one affine map of the bias, applied to all points at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .genfunc import GfSeries
from .statevector import (
    GateMatrix,
    ShotCounts,
    SimulationError,
    StateVector,
    _apply_matrix,
    apply_controlled,
    apply_gate,
    controlled_matrix,
    sample_ancilla,
)
from .trotter import Circuit


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


def _channel_p0(init: StateVector, circuit: Circuit, ancilla: int, p_dep: float) -> float:
    """Exact ancilla-0 probability after the circuit under the depolarizing channel.

    rho is held as vec(rho), a state of 2n qubits with the row bits above the
    column bits, so that a gate G on the targets is kron(G, G*) on the row
    targets followed by the column targets.  After every gate each touched
    qubit q passes through rho -> (1 - p) rho + (p/3) (X rho X + Y rho Y + Z rho Z)
    = (1 - 4p/3) rho + (2p/3) Tr_q rho (x) I, the average over the independent
    per-slot Pauli errors that `_run_with_errors` inserts: one 4x4 map on
    (row q, column q) that mixes the two diagonal entries and damps the two
    coherences.
    """
    n = init.n_qubits
    if circuit.n_qubits > n or not 0 <= ancilla < n:
        raise SimulationError(f"circuit on {circuit.n_qubits} qubits, ancilla {ancilla}, state of {n} qubits")
    keep, damp = 1.0 - 2.0 * p_dep / 3.0, 1.0 - 4.0 * p_dep / 3.0
    depolarize = np.diag([keep, damp, damp, keep]).astype(complex)
    depolarize[0, 3] = depolarize[3, 0] = 2.0 * p_dep / 3.0
    rho = np.outer(init.amplitudes, init.amplitudes.conj()).reshape(-1)
    for item in circuit.gates:
        gate = item.gate.matrix if item.control is None else controlled_matrix(item.gate)
        rows = tuple(n + q for q in item.touched)
        rho = _apply_matrix(rho, 2 * n, np.kron(gate, gate.conj()), rows + item.touched)
        for qubit in item.touched:
            rho = _apply_matrix(rho, 2 * n, depolarize, (n + qubit, qubit))
    diag = rho.reshape(1 << n, 1 << n).diagonal().real
    bit = (np.arange(diag.size) >> ancilla) & 1
    return float(diag[bit == 0].sum() / diag.sum())


def noisy_sample(
    init: StateVector,
    circuit: Circuit,
    ancilla: int,
    shots: int,
    cfg: NoiseConfig,
    seed: int,
) -> ShotCounts:
    """Noisy execution of a circuit with confused readout: one binomial draw.

    Shots are iid, so each reports 0 with probability C[0,0] p0 + C[0,1] (1 - p0),
    where p0 is the depolarized circuit's exact ancilla-0 probability and C the
    readout's confusion matrix.  With p_dep = 0 and an identity confusion
    matrix this is the same single draw as sample_ancilla on the clean state's p0.
    """
    if shots < 1:  # before the density evolution, not after it
        raise SimulationError(f"shots must be >= 1, got {shots}")
    confusion = cfg.readout.confusion
    p0 = _channel_p0(init, circuit, ancilla, cfg.p_dep)
    return sample_ancilla(confusion[0, 0] * p0 + confusion[0, 1] * (1.0 - p0), shots, seed)


# Mitigation -------------------------------------------------------------------


def _to_probs(counts_or_probs) -> np.ndarray:
    if isinstance(counts_or_probs, ShotCounts):
        total = counts_or_probs.shots
        return np.array([counts_or_probs.n0 / total, counts_or_probs.n1 / total])
    probs = np.asarray(counts_or_probs, dtype=float)
    if probs.shape != (2,):
        raise SimulationError(f"expected a probability pair, got shape {probs.shape}")
    return probs


def mitigate_readout(counts_or_probs, readout: ReadoutModel) -> tuple[np.ndarray, bool]:
    """Invert the confusion matrix; clip + renormalize off-simplex results.

    Returns (corrected probabilities, clipped flag).
    """
    probs = _to_probs(counts_or_probs)
    confusion = readout.confusion
    det = float(np.linalg.det(confusion))
    if abs(det) < 1e-9:
        raise SimulationError(f"confusion matrix is singular (det = {det:.3e})")
    corrected = np.linalg.solve(confusion, probs)
    clipped = bool(np.any(corrected < 0.0) or np.any(corrected > 1.0))
    if clipped:
        corrected = np.clip(corrected, 0.0, None)
        total = corrected.sum()
        corrected = corrected / total if total > 0 else np.array([0.5, 0.5])
    return corrected, clipped


@dataclass(frozen=True)
class ReferenceCorrection:
    """2x2 map from ideal to observed outcome probabilities, calibrated at t = 0."""

    matrix: np.ndarray
    inverse: np.ndarray = field(init=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        det = float(np.linalg.det(mat))
        if abs(det) < 1e-6:
            raise SimulationError(f"reference calibration not invertible (det = {det:.3e})")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "inverse", np.linalg.inv(mat))


def calibrate_reference(f0_re: float, f0_im: float) -> ReferenceCorrection:
    """Build the t = 0 calibration matrix from observed Re/Im bias estimates.

    Ideal outcome probabilities are known exactly at t = 0: (1, 0) for the Re
    circuit and (1/2, 1/2) for the Im circuit.  The observed Re pair is the
    matrix's action on (1, 0) (column 0); the observed Im pair is its action
    on (1/2, 1/2) (the column average), which yields column 1.  With pure
    readout noise the result is exactly the measured qubit's confusion matrix.
    """
    obs_re = np.array([(1.0 + f0_re) / 2.0, (1.0 - f0_re) / 2.0])
    obs_im = np.array([(1.0 + f0_im) / 2.0, (1.0 - f0_im) / 2.0])
    col0 = obs_re
    col1 = 2.0 * obs_im - col0
    return ReferenceCorrection(np.column_stack([col0, col1]))


def mitigate_series(noisy: GfSeries, readout: ReadoutModel, ref: ReferenceCorrection) -> GfSeries:
    """Readout inversion then reference correction, as one affine map of the bias.

    The combined inverse c = ref.inverse @ inv(C) sends the pair
    ((1 + b)/2, (1 - b)/2) to one whose bias is offset + slope b, with
    slope = (c00 - c10 - c01 + c11)/2 and offset = (c00 - c10 + c01 - c11)/2.
    Both quadratures go through that map, and their error bars scale by |slope|.
    """
    c = ref.inverse @ np.linalg.inv(readout.confusion)
    slope = (c[0, 0] - c[1, 0] - c[0, 1] + c[1, 1]) / 2.0
    offset = (c[0, 0] - c[1, 0] + c[0, 1] - c[1, 1]) / 2.0
    return replace(
        noisy,
        re=offset + slope * noisy.re,
        im=offset + slope * noisy.im,
        re_err=noisy.re_err * abs(slope),
        im_err=noisy.im_err * abs(slope),
        route="mitigated",
    )
