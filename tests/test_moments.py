import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from gfsim.genfunc import GfSeries, gf_exact, read_table
from gfsim.krylov import build_krylov_matrices
from gfsim.models import PairingModel, Spectrum, build_dense, initial_state, pairing_to_qubits
from gfsim.moments import (
    FOLD_LEAF,
    HANKEL_COLS,
    MomentSet,
    _hankel_r,
    central_difference_coefficients,
    fourier_grid,
    moments_exact,
    moments_fdm,
    moments_fourier,
    spectral_peaks,
)
from gfsim.statevector import SimulationError
from conftest import _solve_fractions
from sampled_gates import FDM_NOISY, FDM_SEEDS, fdm_problems, fdm_series


def two_level():
    model = PairingModel.uniform(2, 1, 1.0, 1.0)
    dense = build_dense(pairing_to_qubits(model))
    return model, dense, initial_state(model)


def benchmark():
    model = PairingModel.uniform(8, 4, 1.0, 1.0)
    dense = build_dense(pairing_to_qubits(model))
    return model, dense, initial_state(model)


def sector_moment(k):
    """Oracle: powers of the hand-built 2x2 sector matrix on its first basis vector."""
    sec = np.array([[2.0, -1.0], [-1.0, 4.0]])
    e0 = np.array([1.0, 0.0])
    return float(e0 @ np.linalg.matrix_power(sec, k) @ e0)


def test_moments_exact_trivial_hamiltonian():
    from gfsim.models import DenseHamiltonian, InitialState
    from gfsim.statevector import StateVector

    dense = DenseHamiltonian(np.zeros((4, 4)), 2)
    init = InitialState([StateVector.from_bitstring("10")])
    mom = moments_exact(dense, init, 4)
    assert mom.values[0] == 1.0
    assert np.allclose(mom.values[1:], 0.0)


def test_moments_exact_two_level():
    _, dense, init = two_level()
    mom = moments_exact(dense, init, 6)
    for k in range(7):
        assert mom.values[k] == pytest.approx(sector_moment(k), rel=1e-12)
    assert mom.values[1] == pytest.approx(2.0)
    assert mom.values[2] == pytest.approx(5.0)


def test_moments_exact_eigenstate_powers():
    from gfsim.models import InitialState
    from gfsim.statevector import StateVector

    _, dense, _ = two_level()
    vec = dense.eigenvectors[:, 3]
    mom = moments_exact(dense, InitialState([StateVector(2, vec)]), 5)
    assert np.allclose(mom.values, dense.eigenvalues[3] ** np.arange(6), rtol=1e-12)


def test_hankel_matrix_psd():
    _, dense, init = two_level()
    mom = moments_exact(dense, init, 9)
    hank = build_krylov_matrices(mom, 4).overlap
    evals = np.linalg.eigvalsh(hank)
    assert evals.min() > -1e-8 * np.abs(hank).max()


def test_stencil_classic_coefficients():
    assert central_difference_coefficients(1, 2) == ((-1, 0, 1), (-0.5, 0.0, 0.5))
    assert central_difference_coefficients(2, 2) == ((-1, 0, 1), (1.0, -2.0, 1.0))


def test_stencil_monomial_exactness():
    # stencil applied to t^m at h=1 recovers the derivative exactly
    for deriv, acc in ((1, 8), (3, 8), (4, 6), (6, 8)):
        offsets, coeffs = central_difference_coefficients(deriv, acc)
        offsets = np.asarray(offsets, dtype=float)
        coeffs = np.asarray(coeffs)
        for m in range(deriv + acc):
            value = float((coeffs * offsets**m).sum())
            expected = float(math.factorial(deriv)) if m == deriv else 0.0
            assert value == pytest.approx(expected, abs=1e-7 * max(1.0, np.abs(coeffs).max()))


def test_stencil_weights_are_the_nearest_floats_of_the_exact_solution():
    # bit for bit, zeros' signs included: the float of the Fraction solution of sum_j c_j j^m = deriv! delta_{m,deriv}
    for deriv in range(1, 14):
        for acc in (2, 4, 6, 8):
            offsets, coeffs = central_difference_coefficients(deriv, acc)
            system = [[Fraction(j) ** m for j in offsets] for m in range(len(offsets))]
            rhs = [Fraction(math.factorial(deriv) if m == deriv else 0) for m in range(len(offsets))]
            exact = _solve_fractions(system, rhs)
            assert [c.hex() for c in coeffs] == [float(x).hex() for x in exact], (deriv, acc)


def test_stencil_rejects_odd_accuracy():
    with pytest.raises(SimulationError):
        central_difference_coefficients(2, 3)


def test_fdm_order_zero_returns_one():
    _, dense, init = two_level()
    series = gf_exact(dense, init, 1e-3 * np.arange(200))
    mom = moments_fdm(series, 0)
    assert mom.values[0] == pytest.approx(1.0, abs=1e-12)


def test_fdm_low_orders_accurate():
    _, dense, init = two_level()
    series = gf_exact(dense, init, 2.5e-4 * np.arange(4001))
    mom = moments_fdm(series, 6)
    for k in range(7):
        assert mom.values[k] == pytest.approx(sector_moment(k), rel=1e-3)
    # route and tuned-step diagnostics recorded
    assert mom.route == "fdm"
    assert set(mom.diagnostics["h_per_K"]) == set(range(7))


def test_fdm_degrades_at_high_order():
    _, dense, init = benchmark()
    series = gf_exact(dense, init, 2.5e-4 * np.arange(4001))
    mom = moments_fdm(series, 14)
    oracle = moments_exact(dense, init, 14)
    rel = np.abs(mom.values - oracle.values) / np.abs(oracle.values)
    assert rel[:7].max() < 1e-3
    assert rel[14] > 1e3 * rel[6]
    # the reported error estimates grow with the order as well
    assert mom.errors[14] > mom.errors[6]


@pytest.mark.parametrize("shots, seeds, noisy", [(10**4, FDM_SEEDS, FDM_NOISY), (0, [3], [])], ids=["sampled", "statevector"])
def test_fdm_flags_the_orders_shot_noise_overwhelms(tmp_path, shots, seeds, noisy):
    # an order is noisy when its error estimate passes a tenth of max(|moment|, E_rms^K).  At
    # 10^4 shots orders 1 and 2 sit 2.8 standard deviations from that line, so one run flags a
    # wrong list at rate 1.3e-2 (normal tails of the log margins over 2,000 seeds,
    # tools/stochastic_rates.py); the sampled case asks each order's flag to match on 8 of the
    # 10 seeds 3-12 instead, at rate 1.2e-5.  Power against the noise floor read 100 times small
    # or large: 1.0, as was the one-seed gate's
    runs = [moments_fdm(fdm_series(seed, shots), 8) for seed in seeds]
    assert fdm_problems([mom.diagnostics["noisy_orders"] for mom in runs], noisy) == []
    mom = runs[0]
    mom.to_csv(tmp_path / "moments.csv")
    meta, _, _ = read_table(tmp_path / "moments.csv")
    assert meta["noisy_orders"] == str(mom.diagnostics["noisy_orders"])


def test_fourier_grid_rule():
    # pairing-8's B' = 64: dt = pi / (1.25 * 64) = pi / 80 and t_max = pi / 0.02, 4,001 points
    grid = fourier_grid(64.0, gap_target=0.02)
    dt = grid[1] - grid[0]
    assert dt == pytest.approx(np.pi / 80.0, rel=1e-15)
    assert grid[-1] >= np.pi / 0.02 - dt
    assert grid[0] == 0.0
    assert grid.size == 4001


def test_spectral_peaks_single_tone():
    t = np.linspace(0, 80, 2001)
    values = np.exp(-1j * 2.5 * t)
    series = GfSeries(t, values.real, values.imag, 0 * t, 0 * t, route="exact")
    spec = spectral_peaks(series)
    assert spec.energies.size == 1
    assert spec.energies[0] == pytest.approx(2.5, abs=1e-9)
    assert spec.weights[0] == pytest.approx(1.0, abs=1e-9)


def test_spectral_peaks_two_level():
    _, dense, init = two_level()
    grid = fourier_grid(7.0)
    series = gf_exact(dense, init, grid)
    spec = spectral_peaks(series)
    evals, evecs = np.linalg.eigh(np.array([[2.0, -1.0], [-1.0, 4.0]]))
    weights = np.abs(evecs[0, :]) ** 2
    assert spec.energies.size == 2
    assert np.allclose(spec.energies, evals, atol=1e-8)
    assert np.allclose(spec.weights, weights, atol=1e-8)


def baseband_peaks(model, series):
    """spectral_peaks as the CLI runs it: demodulated by c_I, aliasing checked against B'."""
    center, radius = pairing_to_qubits(model).spectral_window
    return spectral_peaks(series, energy_bound=radius, center=center)


@pytest.fixture(scope="module")
def benchmark_peaks():
    """The benchmark's noiseless trace on its auto grid (4,001 points) and the baseband Spectrum of it."""
    model, dense, init = benchmark()
    _, radius = pairing_to_qubits(model).spectral_window
    series = gf_exact(dense, init, fourier_grid(radius))
    return dense, init, baseband_peaks(model, series)


def test_spectral_peaks_benchmark_weight_capture(benchmark_peaks):
    _, _, spec = benchmark_peaks
    assert spec.diagnostics["center"] == 36.0 and spec.diagnostics["cols"] == 300
    assert spec.weights.sum() >= 0.999
    assert spec.diagnostics["residual_power"] < 1e-10


def test_spectral_peaks_benchmark_moments_through_k21(benchmark_peaks):
    # measured 4.2e-10 (4.3e-10 folding blocks of cols rows, 3.8e-10 to 4.5e-10 over
    # the fold layouts tried); 2e-9 sees a fold that loses a digit, which the 1e-5
    # gate of criterion 3 cannot
    dense, init, spec = benchmark_peaks
    oracle = moments_exact(dense, init, 21)
    rel = np.abs(moments_fourier(spec, 21).values - oracle.values) / np.abs(oracle.values)
    assert spec.diagnostics["rank"] == 43
    assert rel.max() < 2e-9


def tone_series(t, energies, weights):
    values = np.exp(-1j * np.outer(t, energies)) @ weights
    return GfSeries(t, values.real, values.imag, 0 * t, 0 * t, route="exact")


@st.composite
def tone_sets(draw):
    """1-8 tones, adjacent energies >= 0.2 apart, weights >= 1e-3 summing to 1.

    The energies are drawn about 0 and then shifted by a center, zero or not;
    bound is a bound on their distance from that center.
    """
    n = draw(st.integers(1, 8))
    gaps = draw(st.lists(st.floats(0.2, 3.0), min_size=n - 1, max_size=n - 1))
    offsets = draw(st.floats(-10.0, 5.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))) + 1e-9
    weights = 1e-3 + (1.0 - n * 1e-3) * raw / raw.sum()
    bound = max(np.abs(offsets).max(), 1.0) * draw(st.floats(1.0, 3.0))
    center = draw(st.one_of(st.just(0.0), st.floats(-40.0, 40.0)))
    return offsets + center, weights, bound, center


@settings(max_examples=60, deadline=None)
@given(tone_sets())
def test_spectral_peaks_recovers_drawn_tones(tones):
    # the drawn tones are the oracle: no Hamiltonian or moments_exact involved.  The
    # grid has 2n + 5 points or more, so an (n + 3)-column Hankel holds the n tones
    energies, weights, bound, center = tones
    grid = fourier_grid(bound, gap_target=min(0.1, 1.25 * bound / (2 * energies.size + 4)))
    spec = spectral_peaks(tone_series(grid, energies, weights), energy_bound=bound, center=center)
    assert spec.diagnostics["rank"] == energies.size
    assert spec.diagnostics["center"] == center
    assert np.allclose(spec.energies, energies, rtol=0, atol=1e-8)
    assert np.allclose(spec.weights, weights, rtol=0, atol=1e-8)


def test_spectral_peaks_leaves_its_input_intact():
    # 2,100 points: a 1,801 x 300 Hankel, so the last leaf has one row, a
    # contiguous slice of the trace that its QR must not overwrite
    t = 0.1 * np.arange(2100)
    energies, weights = np.array([-1.3, 0.4, 2.1]), np.array([0.5, 0.3, 0.2])
    series = tone_series(t, energies, weights)
    before = [a.copy() for a in (series.t, series.re, series.im, series.re_err, series.im_err)]
    spec = spectral_peaks(series)
    after = (series.t, series.re, series.im, series.re_err, series.im_err)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    assert np.allclose(spec.energies, energies, rtol=0, atol=1e-8)
    assert np.allclose(spec.weights, weights, rtol=0, atol=1e-8)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 60), st.integers(0, 2**32 - 1))
def test_blocked_r_keeps_the_singular_values(cols, extra_rows, seed):
    rng = np.random.default_rng(seed)
    n = 2 * cols - 1 + extra_rows  # at least as many Hankel rows as columns
    data = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    hankel = sliding_window_view(data, cols)
    expected = np.linalg.svd(hankel, compute_uv=False)
    r = _hankel_r(data, cols)
    got = np.linalg.svd(r, compute_uv=False)
    assert np.abs(got - expected).max() <= 1e-12 * expected[0]
    assert np.abs(r.conj().T @ r - hankel.conj().T @ hankel).max() <= 1e-12 * expected[0] ** 2


@pytest.mark.parametrize(
    "cols, rows",
    [
        (7, FOLD_LEAF * 7 - 1),
        (7, 3 * FOLD_LEAF * 7),
        (7, 3 * FOLD_LEAF * 7 + 3),
        (HANKEL_COLS, 3702),
    ],
    ids=["under-one-leaf", "whole-leaves", "last-leaf-under-cols", "pairing-8-chain"],
)
def test_blocked_r_on_every_fold_path(cols, rows, monkeypatch):
    # oracles: the singular values and Gram matrix of the whole Hankel view, and
    # the shapes of the QRs: each leaf's own, then after the first leaf the merge
    # of R (cols rows) with the leaf's R (at most cols rows)
    rng = np.random.default_rng(rows)
    data = rng.standard_normal(rows + cols - 1) + 1j * rng.standard_normal(rows + cols - 1)
    hankel = sliding_window_view(data, cols)
    qr, shapes = np.linalg.qr, []
    monkeypatch.setattr(np.linalg, "qr", lambda a, mode: shapes.append(a.shape) or qr(a, mode=mode))
    r = _hankel_r(data, cols)
    leaf = FOLD_LEAF * cols
    expected_shapes = [(min(leaf, rows), cols)]
    for start in range(leaf, rows, leaf):
        height = min(leaf, rows - start)
        expected_shapes += [(height, cols), (cols + min(height, cols), cols)]
    assert shapes == expected_shapes
    assert r.shape == (cols, cols) and np.array_equal(r, np.triu(r))
    expected = np.linalg.svd(hankel, compute_uv=False)
    assert np.abs(np.linalg.svd(r, compute_uv=False) - expected).max() <= 1e-12 * expected[0]
    assert np.abs(r.conj().T @ r - hankel.conj().T @ hankel).max() <= 1e-12 * expected[0] ** 2


def test_spectral_peaks_rank_ceiling_raises():
    # 21 points give an 11x11 Hankel: 9 tones fit under the ceiling, 10 reach it
    t = 0.1 * np.arange(21)
    energies = np.linspace(-9.0, 9.0, 10)
    spec = spectral_peaks(tone_series(t, energies[:9], np.full(9, 1 / 9)))
    assert spec.diagnostics["rank"] == 9
    with pytest.raises(SimulationError, match="ceiling"):
        spectral_peaks(tone_series(t, energies, np.full(10, 0.1)))


def test_spectral_peaks_shot_noise_sets_rank():
    # criterion-3 trace (baseband grid, 4,001 points) with Gaussian noise of the binomial
    # sigma at 10^4 shots, clipped to [-1, 1] as every sampled bias is: unclipped, the noise
    # on Re F(0) = 1 - 1.1e-16 (sigma 3e-10) left [-1, 1] and `GfSeries` refused the series on
    # 46 of noise seeds 0-99.  Over seeds 0-99 the rank reads 9 and the K<=4 error 0.036 +-
    # 0.001 (at most 0.038); the gates, rank <= 15 (a fit of the noise takes dozens of tones)
    # and error < 0.1, fail none, a false-failure rate far below 1e-3 (70 sd to the error
    # gate).  Power against the noise floor read 100 times small: 1.0 (the rank ceiling
    # raises on all 100 seeds)
    model, dense, init = benchmark()
    _, radius = pairing_to_qubits(model).spectral_window
    exact = gf_exact(dense, init, fourier_grid(radius))
    shots = 10**4
    re_err = np.sqrt((1.0 - exact.re**2) / shots)
    im_err = np.sqrt((1.0 - exact.im**2) / shots)
    rng = np.random.default_rng(5)
    noise = rng.standard_normal((2, exact.t.size))
    re, im = (np.clip(v, -1.0, 1.0) for v in (exact.re + re_err * noise[0], exact.im + im_err * noise[1]))
    series = GfSeries(exact.t, re, im, re_err, im_err, shots=shots, route="sampled")
    spec = baseband_peaks(model, series)
    oracle = moments_exact(dense, init, 4)
    rel = np.abs(moments_fourier(spec, 4).values - oracle.values) / np.abs(oracle.values)
    assert spec.diagnostics["rank"] <= 15
    assert rel.max() < 0.1


def test_spectral_peaks_rejects_nonuniform_grid():
    t = np.array([0.0, 0.1, 0.3])
    series = GfSeries(t, np.ones(3), np.zeros(3), np.zeros(3), np.zeros(3), route="exact")
    with pytest.raises(SimulationError):
        spectral_peaks(series)


def test_spectral_peaks_rejects_aliasing_grid():
    model, dense, init = two_level()
    series = gf_exact(dense, init, np.arange(0, 40, 0.8))  # dt too coarse for E ~ 7
    with pytest.raises(SimulationError):
        spectral_peaks(series, energy_bound=7.0)
    # in baseband the check runs against B': c_I = 3 and B' = 4 here, eigenvalues 3 -+ sqrt(2)
    assert pairing_to_qubits(model).spectral_window == (3.0, 4.0)
    with pytest.raises(SimulationError, match="aliases"):
        baseband_peaks(model, gf_exact(dense, init, (np.pi / 4.0) * np.arange(200)))
    # dt = pi / 5 is too coarse for the full bound 7 but samples the band 3 -+ 4
    coarse = gf_exact(dense, init, (np.pi / 5.0) * np.arange(200))
    with pytest.raises(SimulationError, match="aliases"):
        spectral_peaks(coarse, energy_bound=7.0)
    spec = baseband_peaks(model, coarse)
    assert np.allclose(spec.energies, 3.0 + np.array([-1.0, 1.0]) * np.sqrt(2.0), rtol=0, atol=1e-8)


def test_spectral_peaks_rejects_weights_summing_above_the_window():
    # F = (1 + e) cos t - e cos 3t keeps |F| <= 1 for e <= 1/8, but its tones at +-3
    # carry negative weight; clipped to 0, the +-1 tones sum to 1 + e
    t = fourier_grid(3.5)
    trace = 1.05 * np.cos(t) - 0.05 * np.cos(3.0 * t)
    zeros = np.zeros_like(t)
    with pytest.raises(SimulationError, match="weights sum to 1.05"):
        spectral_peaks(GfSeries(t, trace, zeros, zeros, zeros))


def test_moments_fourier_single_peak():
    spec = Spectrum(np.array([3.0]), np.array([1.0]), {"residual_power": 0.0})
    mom = moments_fourier(spec, 4)
    assert np.allclose(mom.values, 3.0 ** np.arange(5))


def test_moments_fourier_two_level_high_order():
    _, dense, init = two_level()
    series = gf_exact(dense, init, fourier_grid(7.0))
    mom = moments_fourier(spectral_peaks(series), 20)
    oracle = moments_exact(dense, init, 20)
    rel = np.abs(mom.values - oracle.values) / np.abs(oracle.values)
    assert rel.max() < 1e-6


def test_fourier_error_tightens_with_longer_grid():
    _, dense, init = two_level()
    oracle = moments_exact(dense, init, 12)
    rels = []
    for t_max in (40.0, 80.0, 160.0):
        t = np.arange(0, t_max, 0.2)
        mom = moments_fourier(spectral_peaks(gf_exact(dense, init, t)), 12)
        rels.append((np.abs(mom.values - oracle.values) / np.abs(oracle.values)).max())
    # monotone decrease, unless already at the double-precision floor
    assert rels[0] >= rels[1] >= rels[2] or max(rels) < 1e-12


def test_moment_bounds_and_variance():
    _, dense, init = two_level()
    series = gf_exact(dense, init, fourier_grid(7.0))
    spec = spectral_peaks(series)
    mom = moments_fourier(spec, 4)
    assert spec.energies.min() - 1e-9 <= mom.values[1] <= spec.energies.max() + 1e-9
    assert mom.values[2] - mom.values[1] ** 2 > -1e-10


def test_moment_csv_round_trip(tmp_path):
    _, dense, init = two_level()
    mom = moments_exact(dense, init, 5)
    mom.source = "two-level"
    path = tmp_path / "moments.csv"
    mom.to_csv(path)
    back = MomentSet.from_csv(path)
    assert np.array_equal(back.values, mom.values)
    assert back.route == "exact"
    assert back.source == "two-level"


def test_moment_set_requires_unit_zeroth():
    with pytest.raises(SimulationError):
        MomentSet(np.array([0.5, 1.0]), np.zeros(2), route="exact")


def test_fdm_rejects_grid_shorter_than_stencil():
    _, dense, init = two_level()
    series = gf_exact(dense, init, 1e-3 * np.arange(5))
    with pytest.raises(SimulationError):
        moments_fdm(series, 6)
