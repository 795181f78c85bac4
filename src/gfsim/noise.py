"""Synthetic readout + depolarizing noise and the two mitigation techniques.

Noise model: after every applied gate, each touched qubit independently
suffers a uniform Pauli error (X, Y, Z each with probability p_dep/3), and
the measured qubit's outcome passes through a column-stochastic 2x2
confusion matrix before counting.  `noisy_sample` samples this exactly: the
density matrix through the equivalent depolarizing channel, then one binomial
draw.  `_run_with_errors` (one fixed error pattern on a pure state) is the
reference the channel is tested against.

Mitigation: (1) readout inversion applies the inverse confusion matrix to
outcome probabilities; (2) reference correction builds one 2x2 matrix from
the t = 0 data of both Hadamard-test circuits, where the ideal outcomes are
known exactly -- the Re circuit's ideal (1, 0) pins its first column and the
Im circuit's ideal (1/2, 1/2) pins the column average -- and applies the
stored inverse at every later time.
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


def _conjugate(rho: np.ndarray, n_qubits: int, matrix: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    """G rho G^H as two batched applies: G on the rows of rho^T, then G* on the rows of G rho."""
    g_rho = _apply_matrix(rho.T, n_qubits, matrix, targets).T
    return _apply_matrix(g_rho, n_qubits, matrix.conj(), targets)


def _channel_p0(init: StateVector, circuit: Circuit, ancilla: int, p_dep: float) -> float:
    """Exact ancilla-0 probability after the circuit under the depolarizing channel.

    After every gate each touched qubit passes through
    rho -> (1 - p) rho + (p/3) (X rho X + Y rho Y + Z rho Z), the average over
    the independent per-slot Pauli errors that `_run_with_errors` inserts.
    """
    n = init.n_qubits
    if circuit.n_qubits > n or not 0 <= ancilla < n:
        raise SimulationError(f"circuit on {circuit.n_qubits} qubits, ancilla {ancilla}, state of {n} qubits")
    rho = np.outer(init.amplitudes, init.amplitudes.conj())
    for item in circuit.gates:
        if item.control is None:
            rho = _conjugate(rho, n, item.gate.matrix, item.gate.targets)
        else:
            rho = _conjugate(rho, n, controlled_matrix(item.gate), item.touched)
        for qubit in item.touched:
            flipped = sum(_conjugate(rho, n, pauli, (qubit,)) for pauli in _PAULIS)
            rho = (1.0 - p_dep) * rho + (p_dep / 3.0) * flipped
    diag = rho.diagonal().real
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

    def correct(self, probs) -> np.ndarray:
        return self.inverse @ _to_probs(probs)


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


def _bias_to_probs(bias: float) -> np.ndarray:
    return np.array([(1.0 + bias) / 2.0, (1.0 - bias) / 2.0])


def _probs_to_bias(probs: np.ndarray) -> float:
    return float(probs[0] - probs[1])


def mitigate_series(noisy: GfSeries, readout: ReadoutModel, ref: ReferenceCorrection) -> GfSeries:
    """Per-point readout inversion then reference correction, errors propagated.

    Error bars are scaled by the linearized bias sensitivity of the combined
    inverse map (the same scalar for both outcomes of a quadrature).
    """
    inv_confusion = np.linalg.inv(readout.confusion)
    combined = ref.inverse @ inv_confusion
    err_scale = abs(combined[0, 0] - combined[1, 0] - combined[0, 1] + combined[1, 1]) / 2.0

    def correct(bias: float) -> float:
        probs = inv_confusion @ _bias_to_probs(bias)
        return _probs_to_bias(ref.inverse @ probs)

    re = np.array([correct(b) for b in noisy.re])
    im = np.array([correct(b) for b in noisy.im])
    return replace(
        noisy,
        re=re,
        im=im,
        re_err=noisy.re_err * err_scale,
        im_err=noisy.im_err * err_scale,
        route="mitigated",
    )
