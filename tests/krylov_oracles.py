"""Independent oracles for the Krylov module.

``tdce_rk4`` integrates the coupled equations i O dc/dt = Hm c by fixed-step
RK4, with the singular overlap inverted on its eigendirections above the same
relative cutoff; ``krylov.tdce_integrate`` solves the same equations in closed
form.  ``error_order_check`` measures the short-time defect of the evolution
projected on the exact dense Krylov subspace, whose leading power of t is the
subspace order plus one.
"""

import numpy as np

from gfsim.krylov import DEFAULT_CUTOFF
from gfsim.statevector import SimulationError
from model_oracles import propagator


def tdce_rk4(k, t_grid, step_scale: float = 0.02) -> tuple[np.ndarray, float]:
    """Survival amplitude (O c)_0 on t_grid (increasing from 0) and the max norm drift.

    Works in the basis (H/s)^K |phi_0> with s = <H^{2M}>^{1/(2M)}; the step is
    step_scale over the largest |eigenvalue| of the pseudo-inverse generator.
    """
    t = np.asarray(t_grid, dtype=float)
    scale = k.overlap[-1, -1] ** (1.0 / (2.0 * k.order)) if k.order else 1.0
    d = scale ** (-np.arange(k.order + 1, dtype=float))
    overlap = d[:, None] * k.overlap * d[None, :]
    hamiltonian = d[:, None] * k.hamiltonian * d[None, :]
    evals, evecs = np.linalg.eigh(overlap)
    keep = evals > DEFAULT_CUTOFF * evals.max()
    pseudo = (evecs[:, keep] / evals[keep]) @ evecs[:, keep].T  # O^+ on the retained directions
    step = step_scale / (np.abs(np.linalg.eigvals(pseudo @ hamiltonian)).max() or 1.0)

    def rhs(c):
        return -1j * (pseudo @ (hamiltonian @ c))

    c = np.zeros(k.order + 1, dtype=complex)
    c[0] = 1.0
    norm0 = overlap[0, 0]
    amps = [overlap[0] @ c]
    drift = 0.0
    for span in np.diff(t):
        n_sub = max(1, int(np.ceil(span / step - 1e-12)))
        h = span / n_sub
        for _ in range(n_sub):
            k1 = rhs(c)
            k2 = rhs(c + 0.5 * h * k1)
            k3 = rhs(c + 0.5 * h * k2)
            k4 = rhs(c + h * k3)
            c = c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        amps.append(overlap[0] @ c)
        drift = max(drift, abs(float(np.real(c.conj() @ overlap @ c)) - norm0))
    return np.array(amps), drift


def error_order_check(dense, init, order: int, t_set, fit_window=(1e-10, 1e-3)) -> tuple[float, np.ndarray]:
    """Fitted log-log slope of || (e^{-itH} - e^{-itH_M}) |phi_0> || vs t.

    H_M = P H P with P the orthogonal projector onto the exact Krylov subspace
    built from dense matrix-vector products; the defect's leading power of t
    is the subspace order plus one.
    """
    if len(init) != 1:
        raise SimulationError("error-order check needs a pure initial state")
    t = np.asarray(t_set, dtype=float)
    phi = init.members[0].amplitudes
    vectors = [phi]
    for _ in range(order):
        nxt = dense.matrix @ vectors[-1]
        vectors.append(nxt / np.linalg.norm(nxt))
    basis = np.stack(vectors, axis=1)
    u, s, _ = np.linalg.svd(basis, full_matrices=False)
    rank = int((s > 1e-12 * s.max()).sum())
    q = u[:, :rank]
    h_m = q @ (q.conj().T @ dense.matrix @ q) @ q.conj().T
    h_m = 0.5 * (h_m + h_m.conj().T)
    evals, evecs = np.linalg.eigh(h_m)

    deltas = np.empty(t.size)
    for idx, tk in enumerate(t):
        exact = propagator(dense, tk) @ phi
        approx = (evecs * np.exp(-1j * tk * evals)) @ (evecs.conj().T @ phi)
        deltas[idx] = np.linalg.norm(exact - approx)

    lo, hi = fit_window
    mask = (deltas >= lo) & (deltas <= hi)
    if mask.sum() < 2:
        raise SimulationError(
            f"only {int(mask.sum())} defect values inside the fit window [{lo:g}, {hi:g}]; adjust the t range"
        )
    slope = np.polyfit(np.log(t[mask]), np.log(deltas[mask]), 1)[0]
    return float(slope), deltas
