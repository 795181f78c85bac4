"""Subspace diagonalization and long-time dynamics from moments alone.

The order-M Krylov matrices are pure moment data (the first 2M+1 moments), so
ground and excited states, and the survival probability |<phi|phi(t)>|^2, all
come out of the same numbers the Hadamard tests produce.  Strong coupling
(g/de = 2) shows the convergence pattern: the subspace ground energy walks
down monotonically onto the exact value, excited states lock in later, and the
time window where the reconstructed dynamics tracks the exact one grows with M.
"""

import numpy as np

from gfsim import (
    PairingModel,
    build_dense,
    build_krylov_matrices,
    gf_exact,
    initial_state,
    moments_exact,
    solve_generalized,
    survival_probability,
    tdce_integrate,
    to_qubits,
)

model = PairingModel.uniform(levels=8, pairs=4, delta_e=1.0, g=2.0)
dense = build_dense(to_qubits(model))
init = initial_state(model)
moments = moments_exact(dense, init, 13)
e_gs = dense.ground_energy(init)

print(f"reachable-sector exact ground energy: {e_gs:.6f}")
print()
print(" M    E_0^(M)      |err|      retained   lowest eigenvalues")
for order in range(0, 7):
    sol = solve_generalized(build_krylov_matrices(moments, order))
    eigs = ", ".join(f"{e:8.4f}" for e in sol.energies[:4])
    print(f" {order}   {sol.energies[0]:9.5f}   {abs(sol.energies[0] - e_gs):.2e}      {sol.retained_dim}       [{eigs}]")

print()
print("survival probability: first time the reconstruction drifts past 0.02")
t = np.arange(0.0, 8.0001, 0.01)
exact_p = np.abs(gf_exact(dense, init, t).values) ** 2
for order in (2, 3, 4, 5, 6):
    sol = solve_generalized(build_krylov_matrices(moments, order))
    dev = np.abs(survival_probability(sol, t) - exact_p)
    bad = np.nonzero(dev > 0.02)[0]
    t_max = t[bad[0]] if bad.size else t[-1]
    print(f"  M = {order}: t_max = {t_max:.2f}")

print()
print("route check: the exact solution of the coupled equations in the")
print("non-orthogonal basis reproduces the spectral-route survival probability")
k5 = build_krylov_matrices(moments, 5)
short_t = np.linspace(0.0, 3.0, 61)
td = tdce_integrate(k5, short_t)
spectral = survival_probability(solve_generalized(k5), short_t)
print(f"  max |TDCE - spectral| = {np.abs(td.survival(k5) - spectral).max():.2e}"
      f"  (norm drift {td.norm_drift:.1e})")
