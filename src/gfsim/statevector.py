"""Errors, states, the gate-level oracle and shot sampling.

`trotter`'s sector step is the routes' kernel; the gate-level replay here
(`GateMatrix`, `apply_gate`) is what it and the noise channel are tested
against.  A controlled gate is a `GateMatrix` on (control, *targets), so the
control is the high bit of its matrix [[I, 0], [0, U]].

Conventions (frozen for the whole package):

* qubit 0 is the least-significant bit of the amplitude index, so basis state
  ``|b_{n-1} ... b_1 b_0>`` lives at index ``sum_q b_q 2**q``;
* bitstring literals are written qubit-0-first: ``"110"`` means qubits 0 and 1
  set, qubit 2 clear;
* for a multi-qubit gate, ``targets[0]`` is the most significant bit of the
  gate-matrix index;
* the ancilla used by Hadamard tests is always the highest-index qubit.

All operations are pure: they take a state in and return a new state.  RNG is
numpy's PCG64 (``default_rng``); `sample_ancilla` is the one place that draws
shots: from an outcome probability and an explicit seed, it returns the
sample's bias (n0 - n1) / shots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNITARITY_TOL = 1e-12


class SimulationError(ValueError):
    """Raised for invalid gates, indices, or malformed states."""


@dataclass(frozen=True)
class GateMatrix:
    """A 1-, 2- or 3-qubit unitary bound to specific target qubits.

    Unitarity is checked to 1e-12 at construction; a violation is a hard
    error so that malformed propagator blocks fail fast.
    """

    matrix: np.ndarray
    targets: tuple[int, ...]
    name: str = ""

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "targets", tuple(int(q) for q in self.targets))
        dim = 2 ** len(self.targets)
        if len(self.targets) not in (1, 2, 3):
            raise SimulationError(f"gate arity must be 1, 2 or 3, got {len(self.targets)}")
        if mat.shape != (dim, dim):
            raise SimulationError(f"gate on {len(self.targets)} qubit(s) needs a {dim}x{dim} matrix, got {mat.shape}")
        if len(set(self.targets)) != len(self.targets):
            raise SimulationError(f"duplicate target qubits: {self.targets}")
        err = np.abs(mat.conj().T @ mat - np.eye(dim)).max()
        if err > UNITARITY_TOL:
            raise SimulationError(f"non-unitary gate {self.name or mat!r}: |U^H U - I| = {err:.3e}")


class StateVector:
    """2^n complex amplitudes for n qubits (qubit 0 = least-significant bit)."""

    def __init__(self, n_qubits: int, amplitudes: np.ndarray | None = None, *, copy: bool = True):
        self.n_qubits = int(n_qubits)
        dim = 1 << self.n_qubits
        if amplitudes is None:
            amps = np.zeros(dim, dtype=complex)
            amps[0] = 1.0
        else:
            amps = np.array(amplitudes, dtype=complex, copy=copy).reshape(-1)
            if amps.size != dim:
                raise SimulationError(f"expected {dim} amplitudes for {n_qubits} qubits, got {amps.size}")
        self.amplitudes = amps

    @classmethod
    def from_bitstring(cls, bits: str) -> "StateVector":
        """Computational basis state; ``bits[q]`` is the value of qubit q."""
        if any(c not in "01" for c in bits):
            raise SimulationError(f"bitstring must be 0/1 characters, got {bits!r}")
        index = sum(1 << q for q, c in enumerate(bits) if c == "1")
        state = cls(len(bits))
        state.amplitudes[0] = 0.0
        state.amplitudes[index] = 1.0
        return state

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amplitudes, copy=True)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def tensor_with_ancilla(self) -> "StateVector":
        """Append one |0> qubit as the new highest-index qubit."""
        amps = np.zeros(2 * self.amplitudes.size, dtype=complex)
        amps[: self.amplitudes.size] = self.amplitudes
        return StateVector(self.n_qubits + 1, amps, copy=False)


def _apply_matrix(amps: np.ndarray, n_qubits: int, matrix: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    """Apply a 2^k x 2^k matrix to the given target qubits of a dense state of 2^n amplitudes.

    targets[0] is the most significant bit of the matrix index.
    """
    axes = tuple(n_qubits - 1 - q for q in targets)
    order = axes + tuple(a for a in range(n_qubits) if a not in axes)  # the targets' axes first
    psi = amps.reshape((2,) * n_qubits).transpose(order)
    psi = (matrix @ psi.reshape(1 << len(targets), -1)).reshape(psi.shape)
    return np.ascontiguousarray(psi.transpose([order.index(a) for a in range(n_qubits)])).reshape(-1)


def _check_targets(state: StateVector, targets: tuple[int, ...]):
    for q in targets:
        if not 0 <= q < state.n_qubits:
            raise SimulationError(f"qubit index {q} out of range for {state.n_qubits} qubits")


def apply_gate(state: StateVector, gate: GateMatrix) -> StateVector:
    """Apply a gate to its target qubits; returns a new state."""
    _check_targets(state, gate.targets)
    out = _apply_matrix(state.amplitudes, state.n_qubits, gate.matrix, gate.targets)
    return StateVector(state.n_qubits, out, copy=False)


def controlled_matrix(gate: GateMatrix) -> np.ndarray:
    """Block-diagonal [[I, 0], [0, U]] with the control as the extra high bit."""
    dim = gate.matrix.shape[0]
    out = np.eye(2 * dim, dtype=complex)
    out[dim:, dim:] = gate.matrix
    return out


def ancilla_probability(state: StateVector, ancilla: int) -> float:
    """Exact probability of measuring 0 on the given qubit."""
    _check_targets(state, (ancilla,))
    probs = state.probabilities()
    index = np.arange(probs.size)
    p1 = probs[(index >> ancilla) & 1 == 1].sum()
    total = probs.sum()
    return float((total - p1) / total)


def sample_ancilla(p0: float, shots: int, seed: int) -> float:
    """(n0 - n1) / shots, the estimate of p0 - p1, from Binomial(shots, p0) with p0 clipped to [0, 1]; one per seed."""
    if shots < 1:
        raise SimulationError(f"shots must be >= 1, got {shots}")
    n0 = int(np.random.default_rng(seed).binomial(shots, min(1.0, max(0.0, p0))))
    return (n0 - (shots - n0)) / shots


def derive_seed(*path: int) -> int:
    """Deterministic child seed from a master seed and index path (PCG64 SeedSequence)."""
    ss = np.random.SeedSequence(np.array([int(p) & 0xFFFFFFFF for p in path], dtype=np.uint32))
    return int(ss.generate_state(1, np.uint64)[0])


# Common gate constructors -------------------------------------------------

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def hadamard(q: int) -> GateMatrix:
    return GateMatrix(_HADAMARD, (q,), name="H")


def pauli_x(q: int) -> GateMatrix:
    return GateMatrix(_PAULI_X, (q,), name="X")


def phase_gate(phi: float, q: int) -> GateMatrix:
    """R(phi) = diag(1, e^{i phi})."""
    return GateMatrix(np.diag([1.0, np.exp(1j * phi)]), (q,), name=f"R({phi:g})")
