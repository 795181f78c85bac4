"""Krylov-subspace diagonalization and long-time dynamics from moments alone.

The subspace spanned by {|phi>, H|phi>, ..., H^M|phi>} has overlap and
Hamiltonian matrices that are pure moment data, O_LK = <H^{K+L}> and
Hm_LK = <H^{K+L+1}> (Hankel), so the first 2M+1 moments determine everything.
The generalized eigenproblem is solved by canonical orthogonalization: the
overlap is diagonalized, directions below a relative cutoff are dropped (Hankel
matrices go numerically singular quickly), and the Hamiltonian is diagonalized
in the surviving orthonormal basis.

Also here: the survival probability |<phi|phi(t)>|^2 reconstructed from the
subspace eigenpairs, and the exact solution of the coupled equations
i O dc/dt = Hm c for the expansion coefficients in the non-orthogonal basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .genfunc import _fmt
from .moments import MomentSet
from .statevector import SimulationError

DEFAULT_CUTOFF = 1e-10


@dataclass
class KrylovMatrices:
    """Overlap and Hamiltonian matrices of the order-M subspace (dimension M+1)."""

    order: int
    overlap: np.ndarray
    hamiltonian: np.ndarray

    def __post_init__(self):
        m = self.order + 1
        self.overlap = np.asarray(self.overlap, dtype=float)
        self.hamiltonian = np.asarray(self.hamiltonian, dtype=float)
        for name, mat in (("overlap", self.overlap), ("hamiltonian", self.hamiltonian)):
            if mat.shape != (m, m):
                raise SimulationError(f"{name} must be {m}x{m}, got {mat.shape}")
            if not np.allclose(mat, mat.T, atol=1e-9 * max(1.0, np.abs(mat).max())):
                raise SimulationError(f"{name} matrix is not symmetric")


def build_krylov_matrices(moments: MomentSet, order: int) -> KrylovMatrices:
    """Assemble the Hankel matrices; needs moments through 2*order + 1."""
    if moments.order < 2 * order + 1:
        raise SimulationError(f"need moments through {2 * order + 1}, have {moments.order}")
    m = moments.values
    idx = np.arange(order + 1)
    overlap = m[idx[:, None] + idx[None, :]]
    hamiltonian = m[idx[:, None] + idx[None, :] + 1]
    return KrylovMatrices(order, overlap, hamiltonian)


@dataclass
class KrylovSolution:
    """Subspace eigenvalues (ascending) with initial-state overlap weights."""

    energies: np.ndarray
    weights: np.ndarray
    retained_dim: int
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.energies = np.asarray(self.energies, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        total = self.weights.sum()
        if abs(total - 1.0) > 1e-6:
            raise SimulationError(f"overlap weights sum to {total:.8f}, expected 1")


def _moment_scale(k: KrylovMatrices) -> float:
    """Energy scale s = <H^{2M}>^{1/(2M)}, used to rescale the Krylov basis.

    Raw Hankel entries span <H^0> = 1 up to <H^{2M}> ~ E^{2M}; a relative
    eigenvalue cutoff on the raw overlap would discard the low-moment
    directions that carry the initial state.  The basis {(H/s)^K |phi_0>}
    spans the same subspace and gives identical eigenvalues with entries of
    order one.
    """
    if k.order == 0:
        return 1.0
    top = float(k.overlap[-1, -1])
    if top <= 0:
        raise SimulationError("even top moment must be positive")
    return top ** (1.0 / (2.0 * k.order))


def _scaled_matrices(k: KrylovMatrices) -> tuple[np.ndarray, np.ndarray, float]:
    s = _moment_scale(k)
    d = s ** (-np.arange(k.order + 1, dtype=float))
    overlap = d[:, None] * k.overlap * d[None, :]
    hamiltonian = d[:, None] * k.hamiltonian * d[None, :]
    return overlap, hamiltonian, s


def _canonical_basis(overlap: np.ndarray) -> tuple[np.ndarray, dict]:
    evals, evecs = np.linalg.eigh(overlap)
    s_max = float(evals.max())
    if s_max <= 0:
        raise SimulationError("overlap matrix has no positive eigenvalues")
    keep = evals > DEFAULT_CUTOFF * s_max
    if not keep.any():
        raise SimulationError("all overlap eigenvalues below cutoff")
    x = evecs[:, keep] / np.sqrt(evals[keep])
    s_min = float(evals[keep].min())
    diag = {"overlap_condition": s_max / s_min, "dropped": int((~keep).sum())}
    return x, diag


def solve_generalized(k: KrylovMatrices) -> KrylovSolution:
    """Canonical orthogonalization then diagonalization in the retained basis.

    Works in the energy-rescaled Krylov basis (same subspace, same spectrum,
    well-scaled overlap); weights q_a = |<a|phi_0>|^2 are obtained by mapping
    the first basis vector through the same transformation.
    """
    overlap, hamiltonian, _ = _scaled_matrices(k)
    x, diag = _canonical_basis(overlap)
    reduced = x.T @ hamiltonian @ x
    reduced = 0.5 * (reduced + reduced.T)
    energies, vectors = np.linalg.eigh(reduced)
    # initial state in the orthonormal basis: v = X^T O e_0
    v = x.T @ overlap[:, 0]
    weights = np.abs(vectors.T @ v) ** 2
    raw_sum = float(weights.sum())
    if abs(raw_sum - 1.0) > 1e-6:
        raise SimulationError(f"initial state lost weight under the cutoff: sum q = {raw_sum:.8f}")
    weights = weights / raw_sum  # absorb 1e-10-level cutoff leakage
    return KrylovSolution(
        energies=energies,
        weights=weights,
        retained_dim=int(x.shape[1]),
        diagnostics={**diag, "raw_weight_sum": raw_sum},
    )


def survival_probability(sol: KrylovSolution, t_grid) -> np.ndarray:
    """P_0(t) = |sum_a q_a e^{-i E_a t}|^2."""
    t = np.asarray(t_grid, dtype=float)
    amp = np.exp(-1j * np.outer(t, sol.energies)) @ sol.weights
    return np.abs(amp) ** 2


@dataclass
class TdceCoefficients:
    """Expansion coefficients c_K(t) of the coupled equations' solution.

    Coefficients refer to the energy-rescaled basis (H/scale)^K |phi_0>; the
    survival amplitude (O c)_0 is invariant under that rescaling.
    """

    t: np.ndarray
    c: np.ndarray  # shape (len(t), M+1), complex
    norm_drift: float

    def survival(self, k: KrylovMatrices) -> np.ndarray:
        """P_0(t) = |<phi_0 | phi(t)>|^2 = |(O c(t))_0|^2."""
        overlap, _, _ = _scaled_matrices(k)
        amp = self.c @ overlap[0]
        return np.abs(amp) ** 2


def tdce_integrate(k: KrylovMatrices, t_grid) -> TdceCoefficients:
    """Exact solution of i O dc/dt = Hm c with c_K(0) = delta_K0, at any t.

    With the singular overlap inverted on the retained subspace (O^+ = X X^T)
    the equations read dc/dt = -i X X^T Hm c.  Every power of that generator
    past the first is X R^n X^T Hm with R = X^T Hm X = V diag(E) V^T, so
    c(t) = e_0 + X V diag(g_t(E)) V^T X^T Hm e_0 with g_t(E) = expm1(-i t E)/E
    (-i t at E = 0).  norm_drift is max_t |c^H O c - <phi_0|phi_0>|.
    """
    t = np.asarray(t_grid, dtype=float)
    overlap, hamiltonian, _ = _scaled_matrices(k)
    x, _ = _canonical_basis(overlap)
    reduced = x.T @ hamiltonian @ x
    energies, vectors = np.linalg.eigh(0.5 * (reduced + reduced.T))
    phase = -1j * np.outer(t, energies)
    nonzero = energies != 0.0
    growth = np.where(nonzero, np.expm1(phase) / np.where(nonzero, energies, 1.0), -1j * t[:, None])
    drive = vectors.T @ (x.T @ hamiltonian[:, 0])
    coeffs = (growth * drive) @ (x @ vectors).T
    coeffs[:, 0] += 1.0
    norm = np.einsum("ti,ij,tj->t", coeffs.conj(), overlap, coeffs).real
    return TdceCoefficients(t, coeffs, norm_drift=float(np.abs(norm - overlap[0, 0]).max(initial=0.0)))


def eigen_table_csv(path, solutions: dict[int, KrylovSolution]):
    """Per-order eigenvalue table: M,alpha,E,weight,retained_dim."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("M,alpha,E,weight,retained_dim\n")
        for order in sorted(solutions):
            sol = solutions[order]
            for alpha, (energy, weight) in enumerate(zip(sol.energies, sol.weights)):
                fh.write(f"{order},{alpha},{_fmt(energy)},{_fmt(weight)},{sol.retained_dim}\n")


def survival_csv(path, t_grid, approx: np.ndarray, exact: np.ndarray):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,P0_approx,P0_exact\n")
        for row in zip(t_grid, approx, exact):
            fh.write(",".join(_fmt(x) for x in row) + "\n")
