"""Generating-function simulation and moment-based post-processing.

The quantum side simulates Hadamard-test circuits with Trotterized controlled
time evolution to estimate F(t) = <exp(-i t H)> for small pairing and 1-D
Fermi-Hubbard models.  The classical side turns F(t) into Hamiltonian moments
(finite differences or spectral decomposition), ground/excited-state energies
(cumulant series + Pade extrapolation; Krylov-subspace diagonalization),
approximate long-time survival probabilities, and a readout-noise mitigation
study.
"""

__version__ = "0.1.0"

from .statevector import (  # noqa: F401
    GateMatrix,
    SimulationError,
    StateVector,
    apply_gate,
    hadamard,
    phase_gate,
    sample_ancilla,
)
from .models import (  # noqa: F401
    DenseHamiltonian,
    HubbardModel,
    InitialState,
    PairingModel,
    QubitHamiltonian,
    Spectrum,
    build_dense,
    hubbard_to_qubits,
    initial_state,
    pairing_to_qubits,
    to_qubits,
)
from .trotter import (  # noqa: F401
    Circuit,
    controlled_evolve,
    reference_dt,
    steps_for,
    trotter_step,
)
from .genfunc import GfSeries, gf_exact, gf_series  # noqa: F401
from .moments import (  # noqa: F401
    MomentSet,
    fourier_grid,
    moments_exact,
    moments_fdm,
    moments_fourier,
    spectral_peaks,
)
from .texpand import (  # noqa: F401
    EnergyCurve,
    PadeApproximant,
    cumulants_from_moments,
    imaginary_time_oracle,
    integrate_energy,
    pade_fit,
    pade_select,
    taylor_dEdtau,
)
from .krylov import (  # noqa: F401
    KrylovMatrices,
    KrylovSolution,
    TdceCoefficients,
    build_krylov_matrices,
    solve_generalized,
    survival_probability,
    tdce_integrate,
)
from .noise import (  # noqa: F401
    NoiseModel,
    calibrate_reference,
    mitigate_readout,
    mitigate_series,
    noisy_sample,
)
