"""Independent oracle for the t-expansion's energy integral.

``quad_energy_curve`` integrates the Pade approximant of dE/dtau by adaptive
quadrature, one grid interval at a time, plus the tail to infinity;
``texpand.integrate_energy`` evaluates the same integral in closed form from
the approximant's poles and residues.
"""

import numpy as np
from scipy.integrate import quad


def quad_energy_curve(approx, h_mean: float, tau) -> tuple[np.ndarray, float]:
    """E(tau) on the grid (increasing from 0) and the asymptote, by scipy quad at tolerance 1e-10."""
    energy = np.zeros(tau.size)
    energy[0] = h_mean
    for k in range(1, tau.size):
        piece, _ = quad(approx, tau[k - 1], tau[k], epsabs=1e-10, epsrel=1e-10, limit=200)
        energy[k] = energy[k - 1] + piece
    tail, _ = quad(approx, tau[-1], np.inf, epsabs=1e-10, epsrel=1e-10, limit=200)
    return energy, float(energy[-1] + tail)
