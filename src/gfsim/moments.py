"""Hamiltonian moments <H^K> from F(t): exact oracle, finite differences, Fourier.

Finite-difference route: <H^K> = Re[i^K sum_j c_j F(j h)] / h^K with central
stencils computed exactly in rational arithmetic and the Hermitian symmetry
F(-t) = conj F(t), so only t >= 0 samples are needed.  The step h is tuned per
derivative order by minimizing the modeled error (truncation + noise
amplification); accuracy is intrinsically limited at large K, which is the
documented behavior this module also has to reproduce.

Fourier route: the trace is a finite sum of pure tones p_a e^{-i E_a t}, so a
Hankel matrix of its samples has the number of tones as its rank (ESPRIT,
Hua & Sarkar 1990; Roy & Kailath 1989).  The right singular vectors of that
matrix are shift-invariant: one small eigenproblem gives the energies, and one
linear least-squares solve gives the weights.  Shot noise sets the rank
through the singular values it can reach.  The singular vectors come from
the Hankel matrix's triangular factor R, built one block of rows at a time.
The trace is demodulated by the Hamiltonian's identity coefficient first, so
its tones lie in a band of half-width B' about zero and the grid need only
sample that band.  Moments to any order then follow from
<H^K> = sum_a p_a E_a^K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .genfunc import GfSeries, read_table, write_table
from .models import DenseHamiltonian, InitialState, Spectrum
from .statevector import SimulationError

ROUTES = ("exact", "fdm", "fourier")

# Hankel columns in spectral_peaks: the most tones one solve can hold, and the
# time span cols * dt over which close tones must separate (the pencil size of
# Hua & Sarkar 1990).  On pairing-8's baseband grid (dt = pi / 80) 300 columns
# span t = 3.75 pi; 240 (3.0 pi) sit at the edge of a cliff, and at 2.34 pi the
# rank falls to 41 of 43 tones
HANKEL_COLS = 300
RANK_TOL = 1e-13  # singular values below RANK_TOL * s_0 are roundoff on a noiseless trace
RENORMALIZE_WINDOW = (0.98, 1.02)  # spectral_peaks rescales weight sums inside to 1 and raises above


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
        meta = {"source": self.source, **dict(sorted(self.diagnostics.items()))}
        rows = ((k, v, e, self.route) for k, (v, e) in enumerate(zip(self.values, self.errors)))
        write_table(path, meta, ("K", "value", "err", "route"), rows)

    @classmethod
    def from_csv(cls, path) -> "MomentSet":
        meta, names, rows = read_table(path, required=("K", "value", "err", "route"), numeric=("K", "value", "err"))
        cols = dict(zip(names, zip(*rows)))
        if [float(k) for k in cols["K"]] != list(range(len(rows))):
            raise SimulationError(f"{path}: column K must read 0, 1, ..., {len(rows) - 1} in order")
        values, errors = (np.array(cols[name], dtype=float) for name in ("value", "err"))
        return cls(values, errors, cols["route"][0], source=meta.get("source", ""))


def moments_exact(dense: DenseHamiltonian, init: InitialState, order: int) -> MomentSet:
    """Oracle moments sum_a w_a E_a^K over the initial state's spectrum."""
    return MomentSet(dense.spectrum(init).moments(order), np.zeros(order + 1), route="exact")


# Finite differences ----------------------------------------------------------


@lru_cache(maxsize=None)
def central_difference_coefficients(deriv: int, accuracy: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Central-stencil offsets and weights for d^deriv/dt^deriv, exact rationals.

    The stencil uses 2*floor((deriv+1)/2) - 1 + accuracy points and satisfies
    sum_j c_j j^m = deriv! * delta_{m,deriv} for all representable monomials.
    That makes c_j the deriv-th derivative at 0 of the Lagrange basis
    polynomial prod_{k != j} (x - k) / (j - k): deriv! times its x^deriv
    coefficient, in Python ints, over the integer denominator.
    """
    if deriv < 0:
        raise SimulationError(f"derivative order must be >= 0, got {deriv}")
    if accuracy < 2 or accuracy % 2:
        raise SimulationError(f"accuracy must be a positive even integer, got {accuracy}")
    if deriv == 0:
        return (0,), (1.0,)
    half = (deriv + 1) // 2 + accuracy // 2 - 1
    offsets = range(-half, half + 1)
    coeffs = []
    for j in offsets:
        poly = [1]  # ascending coefficients of prod_{k != j} (x - k)
        for k in offsets:
            if k != j:
                poly = [hi - k * lo for hi, lo in zip([0] + poly, poly + [0])]
        denom = math.prod(j - k for k in offsets if k != j)
        coeffs.append(float(Fraction(math.factorial(deriv) * poly[deriv], denom)))
    return tuple(offsets), tuple(coeffs)


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


def moments_fdm(series: GfSeries, order: int, accuracy: int = 8) -> MomentSet:
    """Moments by central finite differences of F at t = 0.

    The step is a grid multiple tuned per order from the modeled error.
    """
    if series.t[0] != 0.0:
        raise SimulationError("FDM needs a grid starting at t = 0")
    values, dt = series.values, series.dt()
    eps = _noise_floor(series)
    e_rms = _rms_energy(values, dt)

    moments = np.zeros(order + 1)
    errors = np.zeros(order + 1)
    steps: dict[int, float] = {}
    noisy_orders: list[int] = []
    for k in range(order + 1):
        offsets, coeffs = central_difference_coefficients(k, accuracy)
        half = offsets[-1]
        weight_sum = float(np.abs(coeffs).sum())
        max_m = (values.size - 1) // max(half, 1)
        if max_m < 1:
            raise SimulationError(f"grid covers only {values.size} points, too short for K={k} stencil")
        m = _tuned_step_index(k, accuracy, e_rms, eps, weight_sum, dt, max_m)
        h = m * dt
        samples = np.array([values[j * m] if j >= 0 else np.conj(values[-j * m]) for j in offsets])
        deriv = np.dot(coeffs, samples) / h**k
        moments[k] = float(np.real((1j) ** k * deriv))
        errors[k] = (e_rms * h) ** accuracy * e_rms**k + eps * weight_sum / h**k
        steps[k] = h
        if errors[k] > 0.1 * max(abs(moments[k]), e_rms**k):
            noisy_orders.append(k)  # amplification overwhelmed the estimate
    return MomentSet(
        moments,
        errors,
        route="fdm",
        source=series.model,
        diagnostics={"accuracy": accuracy, "h_per_K": steps, "noisy_orders": noisy_orders},
    )


# Fourier route ----------------------------------------------------------------


def fourier_grid(energy_bound: float, gap_target: float = 0.02) -> np.ndarray:
    """Uniform grid satisfying the sampling rule for baseband spectral extraction.

    energy_bound is B' of QubitHamiltonian.spectral_window: once the trace is
    demodulated by the identity coefficient (spectral_peaks' center), every
    tone lies within +-B' of zero.  dt = pi / (1.25 B') samples that band
    without aliasing, with a 25% margin; t_max = pi / gap_target sets the
    trace length, and with it the energy separation below which two tones stop
    being distinguishable.
    """
    if energy_bound <= 0:
        raise SimulationError("energy bound must be positive")
    dt = np.pi / (1.25 * energy_bound)
    t_max = np.pi / gap_target
    n = int(np.ceil(t_max / dt)) + 1
    return dt * np.arange(n)


def _hankel_r(data: np.ndarray, cols: int) -> np.ndarray:
    """Triangular factor R of the Hankel matrix H[i, j] = data[i + j] with `cols` columns.

    Each block of `cols` rows after the first is folded in by the QR of R
    stacked on the block (sequential TSQR, Demmel et al. 2012), so only one
    block is ever copied out of the view.
    """
    hankel = sliding_window_view(data, cols)  # a view of data, no copy
    r = np.linalg.qr(hankel[:cols], mode="r")
    for start in range(cols, hankel.shape[0], cols):
        r = np.linalg.qr(np.vstack([r, hankel[start : start + cols]]), mode="r")
    return r


def spectral_peaks(series: GfSeries, energy_bound: float | None = None, center: float = 0.0) -> Spectrum:
    """Tone energies and weights of F(t) by ESPRIT on a Hankel matrix of the trace.

    The trace is first demodulated, F(t) e^{i center t}, so that its tones sit
    at E - center; the energies returned have center added back.  The rank is
    the number of singular values above the larger of RANK_TOL * s_0 and the
    spectral norm 2 sigma (sqrt(rows) + sqrt(cols)) that the trace's own shot
    noise would reach; a rank at the column ceiling raises.  Passing a bound
    on |E - center| (B' of QubitHamiltonian.spectral_window, with c_I as the
    center) enables the anti-aliasing check dt < pi / bound.  Negative fitted
    weights are clipped to 0; a weight sum inside RENORMALIZE_WINDOW is
    rescaled to 1, and one above it raises.
    """
    dt = series.dt()
    if energy_bound is not None and dt >= np.pi / energy_bound:
        raise SimulationError(
            f"grid step {dt:g} aliases energies {energy_bound:g} from the center {center:g}"
            f" (need dt < {np.pi / energy_bound:g})"
        )
    data = series.values * np.exp(1j * center * series.t)
    cols = min(HANKEL_COLS, (data.size + 1) // 2)
    rows = data.size - cols + 1
    _, sing, vh = np.linalg.svd(_hankel_r(data, cols))
    sigma = float(np.sqrt(np.mean(series.re_err**2 + series.im_err**2)))
    floor = max(RANK_TOL * sing[0], 2.0 * sigma * (np.sqrt(rows) + np.sqrt(cols)))
    rank = int(np.count_nonzero(sing > floor))
    if rank == 0:
        raise SimulationError("no spectral peaks above the noise floor")
    if rank >= cols - 1:
        raise SimulationError(f"Hankel rank {rank} reaches the ceiling of {cols} columns")

    # rows of vh span the tone vectors z_a^j, z_a = exp(-i (E_a - center) dt)
    basis = vh[:rank].T
    phi = np.linalg.lstsq(basis[:-1], basis[1:], rcond=None)[0]
    offsets = np.sort(-np.angle(np.linalg.eigvals(phi)) / dt)
    tones = np.exp(-1j * np.outer(series.t, offsets))
    weights = np.linalg.lstsq(
        np.vstack([tones.real, tones.imag]), np.concatenate([data.real, data.imag]), rcond=None
    )[0]
    resid = data - tones @ weights
    weights = np.maximum(weights, 0.0)

    total = float(weights.sum())
    if total > RENORMALIZE_WINDOW[1]:
        raise SimulationError(f"weights sum to {total:.8f}, above {RENORMALIZE_WINDOW[1]}")
    renormalized = RENORMALIZE_WINDOW[0] <= total
    if renormalized:
        weights = weights / total
    return Spectrum(
        offsets + center,
        weights,
        diagnostics={
            "residual_power": float(np.vdot(resid, resid).real / np.vdot(data, data).real),
            "rank": rank,
            "n_peaks": rank,
            "weight_sum": total,
            "renormalized": renormalized,
            "center": float(center),
            "cols": cols,
        },
    )


def moments_fourier(spec: Spectrum, order: int) -> MomentSet:
    """<H^K> = sum_a p_a E_a^K for K = 0..order, from spectral_peaks' Spectrum."""
    values = spec.moments(order)
    e_top = float(np.abs(spec.energies).max()) if spec.energies.size else 0.0
    errors = spec.diagnostics["residual_power"] * e_top ** np.arange(order + 1)
    return MomentSet(values, errors, route="fourier", diagnostics=dict(spec.diagnostics))
