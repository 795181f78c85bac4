"""Independent oracles for the dense Hamiltonian builder and for time evolution.

``pauli_terms_matrix`` builds a Pauli sum from Kronecker products of the
2x2 Pauli matrices; ``QubitHamiltonian.to_matrix`` builds the same matrix from
each term's action on basis states, with no Kronecker products.
``propagator`` is the exact exp(-i t H) that Trotter and Krylov evolution are checked against.
"""

import numpy as np

from gfsim.statevector import SimulationError

_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def pauli_string_matrix(ops: str) -> np.ndarray:
    """Dense matrix of a Pauli string; ops[q] acts on qubit q (qubit 0 = LSB)."""
    mat = _PAULI_1Q[ops[-1]]
    for q in range(len(ops) - 2, -1, -1):
        mat = np.kron(mat, _PAULI_1Q[ops[q]])
    return mat


def pauli_terms_matrix(terms, n_qubits: int) -> np.ndarray:
    """Dense matrix of a list of (complex coefficient, ops string) terms."""
    dim = 1 << n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, ops in terms:
        if len(ops) != n_qubits:
            raise SimulationError(f"Pauli string {ops!r} does not match {n_qubits} qubits")
        out += coeff * pauli_string_matrix(ops)
    return out


def propagator(dense, t: float) -> np.ndarray:
    """exp(-i t H) from the dense oracle's cached eigendecomposition."""
    phases = np.exp(-1j * t * dense.eigenvalues)
    return (dense.eigenvectors * phases) @ dense.eigenvectors.conj().T
