"""Ground-state energy extrapolation from 12 exact moments.

The imaginary-time energy E(tau) is extrapolated by integrating a rational
(Pade) approximant of dE/dtau built from cumulants.  The selector enumerates
[I, J] orders with I + J = 10, discards candidates with positive real poles or
positive values, and prefers fast-decaying, numerator-heavy survivors.  The
accuracy degrades as the coupling pushes the initial Slater determinant away
from the true ground state.
"""

from gfsim import (
    PairingModel,
    build_dense,
    cumulants_from_moments,
    imaginary_time_oracle,
    initial_state,
    moments_exact,
    to_qubits,
)
from gfsim.texpand import extrapolate_ground_energy, selection_report

for g in (0.5, 1.0, 2.0):
    model = PairingModel.uniform(levels=8, pairs=4, delta_e=1.0, g=g)
    dense = build_dense(to_qubits(model))
    init = initial_state(model)
    moments = moments_exact(dense, init, 12)

    curve, approx, log = extrapolate_ground_energy(moments, 10)
    e_gs = dense.ground_energy(init)
    oracle = imaginary_time_oracle(dense, init, curve.tau)

    kappa2 = cumulants_from_moments(moments)[1]
    print(f"== g/de = {g}:  <H> = {moments.values[1]:g}, variance kappa_2 = {kappa2:g}")
    print(selection_report(log, approx).rstrip())
    print(f"  asymptote (tail-inclusive) : {curve.asymptote:11.6f}")
    print(f"  asymptote (grid end)       : {curve.asymptote_grid_end:11.6f}")
    print(f"  exact reachable E_GS       : {e_gs:11.6f}")
    print(f"  absolute error             : {abs(curve.asymptote - e_gs):.4f}")
    mid = curve.tau.size // 4
    print(f"  E(tau={curve.tau[mid]:.2f}): rational {curve.energy[mid]:.5f} vs exact {oracle.energy[mid]:.5f}")
    print()
