"""Hamiltonian moments <H^K> from F(t): exact oracle, finite differences, Fourier.

Finite-difference route: <H^K> = Re[i^K sum_j c_j F(j h)] / h^K with central
stencils computed exactly in rational arithmetic and the Hermitian symmetry
F(-t) = conj F(t), so only t >= 0 samples are needed.  The step h is tuned per
derivative order by minimizing the modeled error (truncation + noise
amplification); accuracy is intrinsically limited at large K, which is the
documented behavior this module also has to reproduce.

Fourier route: the trace is a finite sum of pure tones p_a e^{-i E_a t}.  An
FFT of the conjugate-extended series locates peaks; each peak is refined by
parabolic interpolation and then polished by a variable-projection
Gauss-Newton fit (weights solved linearly at every iteration), with
matching-pursuit rounds on the residual until it is below tolerance.  Moments
to any order then follow from <H^K> = sum_a p_a E_a^K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .genfunc import GfSeries, _fmt
from .models import DenseHamiltonian, InitialState
from .statevector import SimulationError

ROUTES = ("exact", "fdm", "fourier")


@dataclass
class MomentSet:
    """<H^K> for K = 0..L with per-order error estimates and provenance."""

    values: np.ndarray
    errors: np.ndarray
    route: str
    source: str = ""
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.errors = np.asarray(self.errors, dtype=float)
        if self.route not in ROUTES:
            raise SimulationError(f"unknown moment route {self.route!r}")
        if self.values.size != self.errors.size:
            raise SimulationError("values/errors length mismatch")
        if self.values.size == 0 or abs(self.values[0] - 1.0) > 1e-6:
            raise SimulationError("moment of order 0 must be 1")

    @property
    def order(self) -> int:
        return self.values.size - 1

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# source={self.source}\n")
            for key, value in sorted(self.diagnostics.items()):
                fh.write(f"# {key}={value}\n")
            fh.write("K,value,err,route\n")
            for k in range(self.values.size):
                fh.write(f"{k},{_fmt(self.values[k])},{_fmt(self.errors[k])},{self.route}\n")

    @classmethod
    def from_csv(cls, path) -> "MomentSet":
        values, errors, routes = [], [], []
        source = ""
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("K,"):
                    continue
                if line.startswith("#"):
                    key, _, val = line[1:].strip().partition("=")
                    if key.strip() == "source":
                        source = val.strip()
                    continue
                k, value, err, route = line.split(",")
                values.append(float(value))
                errors.append(float(err))
                routes.append(route)
        if not values:
            raise SimulationError(f"no moment rows in {path}")
        return cls(np.array(values), np.array(errors), routes[0], source=source)


def moments_exact(dense: DenseHamiltonian, init: InitialState, order: int) -> MomentSet:
    """Oracle moments sum_a w_a E_a^K from the cached eigendecomposition."""
    if order < 0:
        raise SimulationError(f"order must be >= 0, got {order}")
    w = dense.spectral_weights(init)
    powers = np.vander(dense.eigenvalues, order + 1, increasing=True).T  # (K, alpha)
    values = powers @ w
    return MomentSet(values, np.zeros(order + 1), route="exact")


# Finite differences ----------------------------------------------------------


def _solve_fractions(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Exact Gaussian elimination with partial pivoting over the rationals."""
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[pivot][col] == 0:
            raise SimulationError("singular stencil system")
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col] / a[col][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[i][n] / a[i][i] for i in range(n)]


@lru_cache(maxsize=None)
def central_difference_coefficients(deriv: int, accuracy: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Central-stencil offsets and weights for d^deriv/dt^deriv, exact rationals.

    The stencil uses 2*floor((deriv+1)/2) - 1 + accuracy points and satisfies
    sum_j c_j j^m = deriv! * delta_{m,deriv} for all representable monomials.
    """
    if deriv < 0:
        raise SimulationError(f"derivative order must be >= 0, got {deriv}")
    if accuracy < 2 or accuracy % 2:
        raise SimulationError(f"accuracy must be a positive even integer, got {accuracy}")
    if deriv == 0:
        return (0,), (1.0,)
    half = (deriv + 1) // 2 + accuracy // 2 - 1
    offsets = list(range(-half, half + 1))
    n = len(offsets)
    matrix = [[Fraction(j) ** m for j in offsets] for m in range(n)]
    rhs = [Fraction(0)] * n
    rhs[deriv] = Fraction(math.factorial(deriv))
    coeffs = _solve_fractions(matrix, rhs)
    return tuple(offsets), tuple(float(c) for c in coeffs)


@dataclass(frozen=True)
class FdmStencil:
    """Central-difference stencil family with a fixed step and accuracy order."""

    h: float
    accuracy: int = 8

    def coefficients(self, deriv: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
        return central_difference_coefficients(deriv, self.accuracy)


def _series_samples(series: GfSeries) -> tuple[np.ndarray, float]:
    values = series.values
    if series.t[0] != 0.0:
        raise SimulationError("FDM needs a grid starting at t = 0")
    return values, series.dt()


def _rms_energy(values: np.ndarray, dt: float) -> float:
    """sqrt(<H^2>) estimated from a 2nd-order second difference at t = 0."""
    if values.size < 2:
        raise SimulationError("grid too short for FDM")
    second = (values[1] - 2.0 * values[0] + np.conj(values[1])) / dt**2
    h2 = float(np.real(-second))
    return float(np.sqrt(max(h2, 0.0))) or 1.0


def _noise_floor(series: GfSeries) -> float:
    sampled = float(np.mean(series.re_err) + np.mean(series.im_err)) / 2.0
    return max(sampled, 4.0 * np.finfo(float).eps)


def _tuned_step_index(k: int, accuracy: int, e_rms: float, eps: float, weight_sum: float, dt: float, max_m: int) -> int:
    """Grid multiple m minimizing (E h)^acc E^K + eps * sum|c| / h^K at h = m dt."""
    if k == 0:
        return 1
    target = (k * eps * weight_sum) / (accuracy * e_rms ** (k + accuracy))
    h_star = target ** (1.0 / (k + accuracy))
    h_star = min(h_star, 0.5 / e_rms)
    return int(np.clip(round(h_star / dt), 1, max_m))


def moments_fdm(series: GfSeries, order: int, stencil: FdmStencil | None = None, accuracy: int = 8) -> MomentSet:
    """Moments by central finite differences of F at t = 0.

    With stencil=None the step is tuned per order from the modeled error; an
    explicit stencil's h must be an integer multiple of the grid spacing.
    """
    values, dt = _series_samples(series)
    eps = _noise_floor(series)
    e_rms = _rms_energy(values, dt)
    acc = stencil.accuracy if stencil is not None else accuracy

    moments = np.zeros(order + 1)
    errors = np.zeros(order + 1)
    steps: dict[int, float] = {}
    noisy_orders: list[int] = []
    for k in range(order + 1):
        offsets, coeffs = central_difference_coefficients(k, acc)
        half = offsets[-1]
        weight_sum = float(np.abs(coeffs).sum())
        if stencil is not None:
            m = stencil.h / dt
            if abs(m - round(m)) > 1e-9 * max(1.0, m):
                raise SimulationError(f"stencil step {stencil.h} is not a grid multiple of {dt}")
            m = int(round(m))
        else:
            max_m = (values.size - 1) // max(half, 1)
            if max_m < 1:
                raise SimulationError(f"grid covers only {values.size} points, too short for K={k} stencil")
            m = _tuned_step_index(k, acc, e_rms, eps, weight_sum, dt, max_m)
        if half * m > values.size - 1:
            raise SimulationError(f"grid does not cover the K={k} stencil (needs t up to {half * m * dt:g})")
        h = m * dt
        samples = np.array([values[j * m] if j >= 0 else np.conj(values[-j * m]) for j in offsets])
        deriv = np.dot(coeffs, samples) / h**k
        moments[k] = float(np.real((1j) ** k * deriv))
        errors[k] = (e_rms * h) ** acc * e_rms**k + eps * weight_sum / h**k
        steps[k] = h
        if errors[k] > 0.1 * max(abs(moments[k]), e_rms**k):
            noisy_orders.append(k)  # amplification overwhelmed the estimate
    return MomentSet(
        moments,
        errors,
        route="fdm",
        source=series.model,
        diagnostics={"accuracy": acc, "h_per_K": steps, "noisy_orders": noisy_orders},
    )


# Fourier route ----------------------------------------------------------------


@dataclass
class SpectralDecomposition:
    """Peak energies and weights extracted from an F(t) trace."""

    energies: np.ndarray
    weights: np.ndarray
    residual_power: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.energies = np.asarray(self.energies, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if np.any(self.weights < -1e-9):
            raise SimulationError("negative spectral weight")
        if self.weights.sum() > 1.0 + 1e-6:
            raise SimulationError(f"weights sum to {self.weights.sum():.8f} > 1")


def fourier_grid(energy_bound: float, gap_target: float = 0.02, dt_safety: float = 2.0) -> np.ndarray:
    """Uniform grid satisfying the sampling rule for spectral extraction.

    dt = pi / (dt_safety * energy_bound) resolves the largest eigenvalue;
    t_max = pi / gap_target makes the FFT bin width <= gap_target.
    """
    if energy_bound <= 0:
        raise SimulationError("energy bound must be positive")
    dt = np.pi / (dt_safety * energy_bound)
    t_max = np.pi / gap_target
    n = int(np.ceil(t_max / dt)) + 1
    return dt * np.arange(n)


def _symmetric_samples(series: GfSeries) -> tuple[np.ndarray, np.ndarray]:
    """Conjugate-extend F to negative times: t_k = k dt, k = -(N-1)..N-1."""
    values = series.values
    dt = series.dt()
    if series.t[0] != 0.0:
        raise SimulationError("spectral extraction needs a grid starting at t = 0")
    n = values.size
    k = np.arange(-(n - 1), n)
    data = np.concatenate([np.conj(values[:0:-1]), values])
    return k * dt, data


def _fft_amplitudes(data: np.ndarray, t_sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized spectrum G(w_m) = (1/Ns) sum_k F_k e^{+i w_m t_k}; unit tone -> 1."""
    ns = data.size
    dt = t_sym[1] - t_sym[0]
    n_neg = (ns - 1) // 2
    layout = np.roll(data, -n_neg)  # index j holds sample k = j (mod Ns)
    spectrum = np.fft.ifft(layout)
    omegas = 2.0 * np.pi * np.fft.fftfreq(ns, d=dt)
    return omegas, spectrum


def _parabolic_refine(power: np.ndarray, idx: int, omegas: np.ndarray) -> float:
    """Sub-bin peak position from a 3-point parabola on log power."""
    ns = power.size
    left, right = power[(idx - 1) % ns], power[(idx + 1) % ns]
    center = power[idx]
    if left <= 0 or right <= 0 or center <= 0:
        return float(omegas[idx])
    l0, l1, l2 = np.log(left), np.log(center), np.log(right)
    denom = l0 - 2.0 * l1 + l2
    if denom >= -1e-300:
        return float(omegas[idx])
    delta = 0.5 * (l0 - l2) / denom
    delta = float(np.clip(delta, -0.5, 0.5))
    bin_width = abs(omegas[1] - omegas[0])
    step = omegas[(idx + 1) % ns] - omegas[idx]
    if abs(step) > 1.5 * bin_width:  # wrap-around at the Nyquist edge
        step = bin_width if step < 0 else -bin_width
    return float(omegas[idx] + delta * step)


def _tone_matrix(energies: np.ndarray, t_sym: np.ndarray) -> np.ndarray:
    return np.exp(-1j * np.outer(t_sym, energies))


def _solve_weights_from_tones(tones: np.ndarray, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real least-squares weights via the (small) normal equations."""
    gram = (tones.conj().T @ tones).real
    rhs = (tones.conj().T @ data).real
    try:
        weights = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        weights, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    resid = data - tones @ weights
    return weights, resid


def _gauss_newton_polish(
    energies: np.ndarray, t_sym: np.ndarray, data: np.ndarray, iterations: int = 40
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Variable-projection refinement of tone energies; weights re-solved each step.

    The Gauss-Newton normal matrix for real energy shifts factorizes as
    (p p^T) * Re[T^H (t^2 T)], so each iteration costs one small solve plus two
    tall matmuls; no stacked tall least-squares problem is formed.
    """
    energies = energies.copy()
    tones = _tone_matrix(energies, t_sym)
    weights, resid = _solve_weights_from_tones(tones, data)
    best = (energies.copy(), weights, resid)
    best_cost = float(np.vdot(resid, resid).real)
    bin_limit = np.pi / (t_sym[-1] if t_sym[-1] > 0 else 1.0)
    for _ in range(iterations):
        t_tones = t_sym[:, None] * tones
        normal = (t_tones.conj().T @ t_tones).real * np.outer(weights, weights)
        grad = (weights * (1j * t_tones.conj().T @ resid)).real
        try:
            step = np.linalg.solve(normal + 1e-30 * np.eye(normal.shape[0]), grad)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(normal, grad, rcond=None)
        step = np.clip(step, -0.5 * bin_limit, 0.5 * bin_limit)
        if not np.all(np.isfinite(step)):
            break
        energies = energies + step
        tones = _tone_matrix(energies, t_sym)
        weights, resid = _solve_weights_from_tones(tones, data)
        cost = float(np.vdot(resid, resid).real)
        if cost < best_cost:
            best = (energies.copy(), weights, resid)
            best_cost = cost
        if np.abs(step).max() < 1e-14 * max(1.0, np.abs(energies).max()):
            break
    return best


def spectral_peaks(
    series: GfSeries,
    threshold: float = 1e-7,
    residual_tol: float = 1e-9,
    max_peaks: int = 128,
    renormalize_window: tuple[float, float] = (0.98, 1.02),
    energy_bound: float | None = None,
) -> SpectralDecomposition:
    """Locate tone energies and weights in F(t) by FFT pursuit plus refinement.

    threshold is the smallest detectable peak amplitude relative to the
    strongest; pursuit stops once the residual spectrum drops below
    max(threshold * initial peak, residual_tol).  Passing the Hamiltonian's
    energy bound enables the anti-aliasing check dt < pi / bound.
    """
    if energy_bound is not None and series.dt() >= np.pi / energy_bound:
        raise SimulationError(
            f"grid step {series.dt():g} aliases energies up to {energy_bound:g} (need dt < {np.pi / energy_bound:g})"
        )
    t_sym, data = _symmetric_samples(series)
    scale = float(np.abs(data).max())
    if scale == 0:
        raise SimulationError("empty trace")

    energies = np.zeros(0)
    weights = np.zeros(0)
    resid = data.copy()
    initial_peak = None
    for _ in range(max_peaks):
        omegas, spectrum = _fft_amplitudes(resid, t_sym)
        power = np.abs(spectrum) ** 2
        idx = int(np.argmax(power))
        amp = float(np.sqrt(power[idx]))
        if initial_peak is None:
            initial_peak = amp
        if amp < max(threshold * initial_peak, residual_tol):
            break
        guess = _parabolic_refine(power, idx, omegas)
        energies = np.append(energies, guess)
        # short polish per pursuit round; full convergence pass afterwards
        energies, weights, resid = _gauss_newton_polish(energies, t_sym, data, iterations=2)

    if energies.size == 0:
        raise SimulationError("no spectral peaks found above threshold")
    energies, weights, resid = _gauss_newton_polish(energies, t_sym, data)

    # prune numerically spurious tones and re-fit
    keep = weights > 1e-12
    if not np.all(keep) and keep.any():
        energies = energies[keep]
        energies, weights, resid = _gauss_newton_polish(energies, t_sym, data)
    order = np.argsort(energies)
    energies, weights = energies[order], weights[order]
    weights = np.maximum(weights, 0.0)

    residual_power = float(np.vdot(resid, resid).real / np.vdot(data, data).real)
    total = float(weights.sum())
    renormalized = False
    if renormalize_window[0] <= total <= renormalize_window[1]:
        weights = weights / total
        renormalized = True
    return SpectralDecomposition(
        energies,
        weights,
        residual_power,
        diagnostics={"weight_sum": total, "renormalized": renormalized, "n_peaks": int(energies.size)},
    )


def moments_fourier(spec: SpectralDecomposition, order: int) -> MomentSet:
    """<H^K> = sum_a p_a E_a^K for K = 0..order."""
    if order < 0:
        raise SimulationError(f"order must be >= 0, got {order}")
    powers = np.vander(spec.energies, order + 1, increasing=True).T
    values = powers @ spec.weights
    e_top = float(np.abs(spec.energies).max()) if spec.energies.size else 0.0
    errors = spec.residual_power * e_top ** np.arange(order + 1)
    return MomentSet(
        values,
        errors,
        route="fourier",
        diagnostics={"n_peaks": int(spec.energies.size), "residual_power": spec.residual_power},
    )
