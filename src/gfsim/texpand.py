"""Ground-state energy extrapolation from cumulants of the Hamiltonian.

The imaginary-time energy E(tau) = <H e^{-tau H}>/<e^{-tau H}> obeys
dE/dtau = -(variance at tau) <= 0, and its Taylor coefficients are cumulants:
dE/dtau ~= -sum_{K=0}^{M} (-tau)^K / K! kappa_{K+2}.  The truncated series is
replaced by a Pade approximant constrained to be negative, pole-free on the
evaluation window, and decaying faster than 1/tau (denominator degree J with
J - I >= 2); integrating it from 0, in closed form by partial fractions,
extrapolates E(tau) to its asymptote.

The cumulant recurrence implemented is the standard moments-to-cumulants form
kappa_n = <H^n> - sum_{k=1}^{n-1} C(n-1, k-1) kappa_k <H^{n-k}>, validated by
a series-exponentiation round trip in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .genfunc import _fmt, write_table
from .models import DenseHamiltonian, InitialState
from .moments import MomentSet
from .statevector import SimulationError

PADE_COND_LIMIT = 1e12
PADE_TAYLOR_TOL = 1e-8
# admissibility scan of a Pade candidate: grid points on [0, tau_eval_max], and
# the largest positive value allowed relative to the candidate's peak |value|
PADE_SCAN_POINTS = 2001
PADE_SIGN_TOL = 1e-4


class PadeRejection(SimulationError):
    """Raised when no admissible Pade approximant exists."""


def cumulants_from_moments(m: MomentSet) -> np.ndarray:
    """kappa_1..kappa_order as an array (kappa[K - 1] holds kappa_K), by iteration from kappa_1 = <H>.

    A negative variance kappa_2 raises `SimulationError`.
    """
    if m.order < 1:
        raise SimulationError("need moments through order 1")
    mom = m.values
    kappa = np.zeros(m.order)
    for n in range(1, m.order + 1):
        acc = mom[n]
        for k in range(1, n):
            acc -= math.comb(n - 1, k - 1) * kappa[k - 1] * mom[n - k]
        kappa[n - 1] = acc
    if kappa.size >= 2 and kappa[1] < -1e-10:
        raise SimulationError(f"variance kappa_2 = {kappa[1]:.3e} is negative")
    return kappa


def taylor_dEdtau(kappa: np.ndarray, order: int) -> np.ndarray:
    """Coefficients b_K of dE/dtau ~= sum_K b_K tau^K, b_K = -(-1)^K kappa_{K+2}/K!, from kappa_1.. as an array."""
    if kappa.size < order + 2:
        raise SimulationError(f"need cumulants through {order + 2}, have {kappa.size}")
    return np.array([-((-1.0) ** k) * kappa[k + 1] / math.factorial(k) for k in range(order + 1)])


@dataclass
class PadeApproximant:
    """Rational function num/den matching a Taylor series through order I+J."""

    num: np.ndarray  # a_0..a_I, ascending powers
    den: np.ndarray  # b_0=1, b_1..b_J, ascending powers
    cond: float = 0.0

    def __post_init__(self):
        self.num = np.asarray(self.num, dtype=float)
        self.den = np.asarray(self.den, dtype=float)
        if self.den.size == 0 or self.den[0] != 1.0:
            raise SimulationError("denominator must be normalized with b_0 = 1")

    @property
    def orders(self) -> tuple[int, int]:
        return (self.num.size - 1, self.den.size - 1)

    def __call__(self, tau):
        tau = np.asarray(tau, dtype=float)
        num = np.polyval(self.num[::-1], tau)
        den = np.polyval(self.den[::-1], tau)
        return num / den

    def taylor(self, order: int) -> np.ndarray:
        """Re-expand num/den as a power series through the given order."""
        coeffs = np.zeros(order + 1)
        for k in range(order + 1):
            acc = self.num[k] if k < self.num.size else 0.0
            for m in range(1, min(k, self.den.size - 1) + 1):
                acc -= self.den[m] * coeffs[k - m]
            coeffs[k] = acc
        return coeffs

    def poles(self) -> np.ndarray:
        if self.den.size == 1:
            return np.zeros(0, dtype=complex)
        return np.roots(self.den[::-1])


def pade_fit(coeffs, i_order: int, j_order: int) -> PadeApproximant:
    """Fit Pade[I, J] to the series coefficients c_0..c_{I+J}.

    Solves the JxJ linear system for the denominator and convolves for the
    numerator; rejects condition numbers above 1e12.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    total = i_order + j_order
    if coeffs.size < total + 1:
        raise SimulationError(f"need {total + 1} coefficients for Pade[{i_order},{j_order}]")

    def c(k: int) -> float:
        return coeffs[k] if 0 <= k < coeffs.size else 0.0

    if j_order == 0:
        den = np.array([1.0])
        cond = 1.0
    else:
        a = np.array([[c(i_order + ell - m) for m in range(1, j_order + 1)] for ell in range(1, j_order + 1)])
        rhs = -np.array([c(i_order + ell) for ell in range(1, j_order + 1)])
        if not a.any():
            b = np.zeros(j_order)
            cond = 1.0
        else:
            cond = float(np.linalg.cond(a))
            if not np.isfinite(cond) or cond > PADE_COND_LIMIT:
                raise PadeRejection(f"Pade[{i_order},{j_order}] system condition {cond:.3e} exceeds {PADE_COND_LIMIT:g}")
            b = np.linalg.solve(a, rhs)
        den = np.concatenate([[1.0], b])
    num = np.array([sum(den[m] * c(i - m) for m in range(min(i, j_order) + 1)) for i in range(i_order + 1)])
    approx = PadeApproximant(num, den, cond=cond)

    back = approx.taylor(total)
    scale = np.abs(coeffs[: total + 1]).max() or 1.0
    err = np.abs(back - coeffs[: total + 1]).max() / scale
    if err > PADE_TAYLOR_TOL:
        raise PadeRejection(f"Pade[{i_order},{j_order}] re-expansion error {err:.3e} exceeds {PADE_TAYLOR_TOL:g}")
    return approx


@dataclass
class CandidateReport:
    i_order: int
    j_order: int
    accepted: bool
    reason: str
    cond: float = float("nan")


def _has_positive_real_pole(approx: PadeApproximant) -> bool:
    """Any real pole on tau >= 0 invalidates the tail integral to infinity."""
    for root in approx.poles():
        near_axis = abs(root.imag) <= 1e-6 * max(1.0, abs(root))
        if near_axis and root.real >= -1e-12:
            return True
    return False


def pade_select(coeffs, order: int, tau_eval_max: float) -> tuple[PadeApproximant, list[CandidateReport]]:
    """Enumerate Pade[I, J] with I+J = order, J-I >= 2 and pick the admissible winner.

    A candidate is discarded if it has a real pole anywhere on tau >= 0 (the
    asymptote's tail integral would cross it) or takes a positive value beyond
    a small relative tolerance on the evaluation grid.  Among the survivors,
    decay strictly faster than 1/tau^2 is preferred (the boundary case
    J - I = 2 is a fallback only), then the largest numerator order wins, with
    the linear-system condition number as the tie-break.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.size < order + 1:
        raise SimulationError(f"need {order + 1} coefficients, have {coeffs.size}")
    grid = np.linspace(0.0, tau_eval_max, PADE_SCAN_POINTS)

    log: list[CandidateReport] = []
    survivors: list[tuple[int, int, float, PadeApproximant]] = []
    for i_order in range(order + 1):
        j_order = order - i_order
        if j_order - i_order < 2:
            continue
        try:
            approx = pade_fit(coeffs, i_order, j_order)
        except PadeRejection as exc:
            log.append(CandidateReport(i_order, j_order, False, str(exc)))
            continue
        if _has_positive_real_pole(approx):
            log.append(CandidateReport(i_order, j_order, False, "real pole on tau >= 0", approx.cond))
            continue
        values = approx(grid)
        worst = float(values.max())
        if worst > PADE_SIGN_TOL * float(np.abs(values).max()):
            log.append(
                CandidateReport(i_order, j_order, False, f"positive value {worst:.3e} on the evaluation grid", approx.cond)
            )
            continue
        marginal_decay = int(j_order - i_order == 2)
        note = "admissible" if not marginal_decay else "admissible (marginal 1/tau^2 decay, used only as fallback)"
        log.append(CandidateReport(i_order, j_order, True, note, approx.cond))
        survivors.append((marginal_decay, i_order, approx.cond, approx))

    if not survivors:
        reasons = "; ".join(f"[{r.i_order},{r.j_order}]: {r.reason}" for r in log)
        raise PadeRejection(f"no admissible Pade approximant at order {order} ({reasons})")
    survivors.sort(key=lambda item: (item[0], -item[1], item[2]))
    return survivors[0][3], log


def selection_report(log: list[CandidateReport], chosen: PadeApproximant | None) -> str:
    lines = ["Pade candidate selection"]
    for r in log:
        status = "accepted" if r.accepted else "rejected"
        lines.append(f"  [{r.i_order},{r.j_order}] {status}: {r.reason} (cond={r.cond:.3e})")
    if chosen is not None:
        i_order, j_order = chosen.orders
        lines.append(f"  chosen: [{i_order},{j_order}]")
    return "\n".join(lines) + "\n"


@dataclass
class EnergyCurve:
    """E(tau) and dE/dtau on a grid, with asymptote estimates.

    dE/dtau must be nonpositive up to the same relative wiggle tolerance the
    approximant selector allows on a decaying rational tail.
    """

    tau: np.ndarray
    energy: np.ndarray
    dEdtau: np.ndarray
    asymptote: float
    asymptote_grid_end: float

    def __post_init__(self):
        self.tau = np.asarray(self.tau, dtype=float)
        self.energy = np.asarray(self.energy, dtype=float)
        self.dEdtau = np.asarray(self.dEdtau, dtype=float)
        if self.dEdtau.size:
            limit = PADE_SIGN_TOL * float(np.abs(self.dEdtau).max()) + 1e-10
            if float(self.dEdtau.max()) > limit:
                raise SimulationError(f"dE/dtau reaches {self.dEdtau.max():.3e} > 0")

    def to_csv(self, path):
        meta = {"asymptote": _fmt(self.asymptote), "asymptote_grid_end": _fmt(self.asymptote_grid_end)}
        write_table(path, meta, ("tau", "E", "dEdtau"), zip(self.tau, self.energy, self.dEdtau))


def default_tau_max(kappa_2: float) -> float:
    """Evaluation horizon 20/sqrt(kappa_2), an inverse energy scale; 1 where kappa_2 <= 0 sets no scale."""
    if kappa_2 <= 0:
        return 1.0
    return 20.0 / math.sqrt(kappa_2)


def integrate_energy(approx: PadeApproximant, h_mean: float, tau_grid) -> EnergyCurve:
    """E(tau) = <H> + int_0^tau p(s) ds in closed form, p the Pade approximant.

    With poles z_j and residues r_j = num(z_j)/den'(z_j), a denominator degree
    at least two above the numerator's gives sum_j r_j = 0, so the tail
    T(tau) = int_tau^inf p = -Re sum_j r_j log(tau - z_j).  Then
    E(tau) = <H> + T(0) - T(tau) and the asymptote is <H> + T(0).  No pole
    lies on tau >= 0, so tau - z_j stays off the logarithm's branch cut.
    Repeated poles, where these simple-pole residues do not apply, raise.
    """
    tau = np.asarray(tau_grid, dtype=float)
    if tau.size == 0 or tau[0] != 0.0 or np.any(np.diff(tau) <= 0):
        raise SimulationError("tau grid must be strictly increasing from 0")
    num = np.trim_zeros(approx.num, "b")
    den = np.trim_zeros(approx.den, "b")
    if num.size == 0:
        tail = np.zeros(tau.size)
    else:
        if den.size - num.size < 2:
            raise SimulationError(f"tail integral diverges: degrees {num.size - 1}/{den.size - 1} decay as 1/tau or slower")
        if _has_positive_real_pole(approx):
            raise SimulationError("tail integral crosses a real pole on tau >= 0")
        poles = approx.poles()
        with np.errstate(divide="ignore", invalid="ignore"):
            residues = np.polyval(num[::-1], poles) / np.polyval(np.polyder(den[::-1]), poles)
            balance = abs(residues.sum()) / np.abs(residues).sum()
        # the decay makes sum_j r_j = 0; roundoff breaks that only at (near-)repeated poles
        if not balance <= 1e-8:
            raise SimulationError(f"residues sum to {balance:.1e} of their magnitude: repeated poles")
        tail = -(np.log(tau[:, None] - poles[None, :]) @ residues).real
    energy = h_mean + (tail[0] - tail)
    return EnergyCurve(
        tau,
        energy,
        approx(tau),
        asymptote=float(h_mean + tail[0]),
        asymptote_grid_end=float(energy[-1]),
    )


def constant_energy_curve(h_mean: float, tau_grid) -> EnergyCurve:
    """Degenerate case kappa_2 = 0 (eigenstate input): E(tau) = <H>."""
    tau = np.asarray(tau_grid, dtype=float)
    flat = np.full(tau.size, h_mean)
    return EnergyCurve(tau, flat, np.zeros(tau.size), asymptote=h_mean, asymptote_grid_end=h_mean)


def extrapolate_ground_energy(
    moments: MomentSet, order: int, tau_eval_max: float | None = None
) -> tuple[EnergyCurve, PadeApproximant | None, list[CandidateReport]]:
    """Full pipeline: cumulants -> truncated series -> Pade -> integrated E(tau)."""
    kappa = cumulants_from_moments(moments)
    h_mean = float(moments.values[1])
    kappa_2 = kappa[1] if kappa.size >= 2 else 0.0
    if tau_eval_max is None:
        tau_eval_max = default_tau_max(kappa_2)
    tau_grid = np.linspace(0.0, tau_eval_max, 401)
    if kappa_2 <= 1e-14 * max(1.0, h_mean**2):
        return constant_energy_curve(h_mean, tau_grid), None, []
    coeffs = taylor_dEdtau(kappa, order)
    approx, log = pade_select(coeffs, order, tau_eval_max)
    return integrate_energy(approx, h_mean, tau_grid), approx, log


def imaginary_time_oracle(dense: DenseHamiltonian, init: InitialState, tau_grid) -> EnergyCurve:
    """Exact E(tau) and dE/dtau from the eigendecomposition (reference curves).

    Runs over the reachable levels; exponentials are stabilized by subtracting
    the lowest of them before exponentiation.
    """
    tau = np.asarray(tau_grid, dtype=float)
    spec = dense.spectrum(init).reachable()
    energies, weights = spec.energies, spec.weights
    e_min = energies[0]
    boltz = weights[None, :] * np.exp(-np.outer(tau, energies - e_min))
    norm = boltz.sum(axis=1)
    e_tau = (boltz @ energies) / norm
    e2_tau = (boltz @ energies**2) / norm
    dEdtau = -(e2_tau - e_tau**2)
    dEdtau = np.minimum(dEdtau, 0.0)  # clip roundoff at large tau
    return EnergyCurve(
        tau,
        e_tau,
        dEdtau,
        asymptote=float(e_min),
        asymptote_grid_end=float(e_tau[-1]),
    )
