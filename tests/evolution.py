"""Plain Trotter evolution for the tests, through the kernel's one entry point."""

import numpy as np

from gfsim.statevector import StateVector
from gfsim.trotter import controlled_evolve


def evolve(state, model, t, n_steps):
    """n_steps first-order steps of size t/n_steps: psi in the ancilla-|1> half, evolved, and that half read back."""
    register = StateVector(state.n_qubits + 1, np.concatenate([np.zeros_like(state.amplitudes), state.amplitudes]))
    out = controlled_evolve(register, model, t, n_steps)
    return StateVector(state.n_qubits, out.amplitudes[state.amplitudes.size :])
