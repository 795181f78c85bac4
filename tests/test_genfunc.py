import numpy as np
import pytest
from scipy.stats import chi2

from gfsim import genfunc
from gfsim.genfunc import GfSeries, gf_exact, gf_series, hadamard_test_circuit
from gfsim.models import (
    HubbardModel,
    InitialState,
    PairingModel,
    build_dense,
    initial_state,
    pairing_to_qubits,
)
from gfsim.statevector import SimulationError, StateVector, ancilla_probability
from gfsim.trotter import trotter_step
from sampled_gates import GOF_P_MIN, SCATTER_SEEDS, SCATTER_TOL, binomial_fit, scatter_draws

SQRT2 = np.sqrt(2.0)


def two_level():
    model = PairingModel.uniform(2, 1, 1.0, 1.0)
    dense = build_dense(pairing_to_qubits(model))
    return model, dense, initial_state(model)


def sector_oracle():
    """Eigenpairs of the hand-built one-pair sector matrix [[2,-1],[-1,4]]."""
    evals, evecs = np.linalg.eigh(np.array([[2.0, -1.0], [-1.0, 4.0]]))
    weights = np.abs(evecs[0, :]) ** 2
    return evals, weights


def test_gf_exact_at_zero_is_one():
    model, dense, init = two_level()
    series = gf_exact(dense, init, [0.0, 0.3, 0.9])
    assert series.re[0] == pytest.approx(1.0)
    assert series.im[0] == pytest.approx(0.0)


def test_gf_exact_eigenstate_is_pure_phase():
    model, dense, init = two_level()
    vec = dense.eigenvectors[:, 2]
    eig_init = InitialState([StateVector(2, vec)])
    t = np.linspace(0, 3, 7)
    series = gf_exact(dense, eig_init, t)
    expected = np.exp(-1j * t * dense.eigenvalues[2])
    assert np.abs(series.values - expected).max() < 1e-12
    assert np.allclose(np.abs(series.values), 1.0)


def test_gf_exact_matches_two_level_oracle():
    model, dense, init = two_level()
    evals, weights = sector_oracle()
    t = np.linspace(0, 4, 17)
    series = gf_exact(dense, init, t)
    oracle = np.exp(-1j * np.outer(t, evals)) @ weights
    assert np.abs(series.values - oracle).max() < 1e-12


def test_gf_exact_hermitian_symmetry():
    # Re even, Im odd under t -> -t
    model, dense, init = two_level()
    t = np.linspace(0, 2, 9)
    plus = gf_exact(dense, init, t)
    minus_values = dense.spectrum(init).trace(-t)
    assert np.abs(plus.values - np.conj(minus_values)).max() < 1e-12


def test_hadamard_zero_time():
    model, _, init = two_level()
    est = gf_series(model, init, [0.0], n_steps_policy=1)
    assert est.re[0] == pytest.approx(1.0, abs=1e-12)
    assert est.im[0] == pytest.approx(0.0, abs=1e-12)


def test_hadamard_statevector_converges_to_exact():
    model, dense, init = two_level()
    evals, weights = sector_oracle()
    for t in (0.5, 1.5):
        est = gf_series(model, init, [0.0, t], n_steps_policy=10**4)
        oracle = (np.exp(-1j * t * evals) * weights).sum()
        assert abs(est.values[1] - oracle) < 1e-6
        assert est.re_err[1] == 0.0 and est.im_err[1] == 0.0


def test_hadamard_imaginary_sign_convention():
    # eigenstate: Im F(t) = -sin(t E); a sign flip in the phase gate would negate it
    model, dense, _ = two_level()
    vec = dense.eigenvectors[:, 1]
    init = InitialState([StateVector(2, vec)])
    t = 0.4
    est = gf_series(model, init, [0.0, t], n_steps_policy=4000)
    assert est.im[1] == pytest.approx(-np.sin(t * dense.eigenvalues[1]), abs=1e-5)


def test_hadamard_trotter_error_decreases_with_steps():
    # value-level error must vanish at least first order in 1/n (here the
    # leading commutator term has zero expectation, so it is second order)
    model, dense, init = two_level()
    t = 1.0
    oracle = gf_exact(dense, init, [t]).values[0]
    errs = []
    for n in (16, 32, 64, 128):
        est = gf_series(model, init, [0.0, t], n_steps_policy=n)
        errs.append(abs(est.values[1] - oracle))
    assert all(b < a for a, b in zip(errs, errs[1:]))
    slope = np.polyfit(np.log([16, 32, 64, 128]), np.log(errs), 1)[0]
    assert slope < -0.9


@pytest.mark.parametrize(
    "model, gates",
    [(PairingModel.uniform(8, 4, 1.0, 1.0), 594_432), (HubbardModel(sites=4, hopping=1.0, onsite=1.0), 99_840)],
)
def test_controlled_evolve_calls_on_the_criterion_1_grid(monkeypatch, model, gates):
    # the benchmark wraps genfunc.controlled_evolve and counts its calls and
    # Trotter gates; these are the counts it checks its trace workload against
    grid = np.arange(0, 2.0001, 0.0625)
    init = initial_state(model)
    calls = []
    real = genfunc.controlled_evolve

    def counted(state, model_, t, n_steps):
        calls.append((state.n_qubits, t, n_steps))
        return real(state, model_, t, n_steps)

    monkeypatch.setattr(genfunc, "controlled_evolve", counted)
    gf_series(model, init, grid)
    assert len(calls) == len(init) * (grid.size - 1)
    assert {n for n, _, _ in calls} == {model.n_qubits + 1}
    assert sorted({t for _, t, _ in calls}) == list(grid[1:])
    assert sum(n * len(trotter_step(model, t / n).gates) for _, t, n in calls) == gates


def gate_level_p0(model, init, grid, n_steps):
    """Each member's ancilla-0 probability of the Re and Im circuits at each time, applied gate by gate.

    Shape (members, 2, points), read through ancilla_probability.
    """
    ancilla = model.n_qubits
    return np.array(
        [
            [
                [ancilla_probability(hadamard_test_circuit(model, t, n_steps, quad).apply(start), ancilla) for t in grid]
                for quad in ("re", "im")
            ]
            for start in (member.tensor_with_ancilla() for member in init.members)
        ]
    )


@pytest.mark.parametrize(
    "model, members",
    [(HubbardModel(sites=3, hopping=1.0, onsite=1.3), 3), (PairingModel.uniform(4, 2, 1.0, 0.7), 1)],
    ids=["hubbard-3", "pairing-4"],
)
def test_hadamard_matches_gate_level_circuits(monkeypatch, model, members):
    # F = 2<psi_0|psi_1> read off the ancilla halves against the full circuits, H, R(-pi/2) and H included.
    # Stream-exact: it pins the streams SeedSequence([11, member, quadrature]), one binomial call of
    # default_rng on each, over the whole grid
    init = initial_state(model)
    assert len(init) == members
    drawn = {}
    real = genfunc.sample_ancilla

    def recorded(p0, shots, seed):
        drawn[seed] = real(p0, shots, seed)
        return drawn[seed]

    monkeypatch.setattr(genfunc, "sample_ancilla", recorded)
    for grid, n_steps in (([0.0], 1), ([0.0, 0.7], 5), ([0.0, 0.7, 1.9], 3)):
        p0 = gate_level_p0(model, init, grid, n_steps)
        est = gf_series(model, init, grid, n_steps_policy=n_steps)
        exact = sum(weight * (2.0 * member_p0 - 1.0) for weight, member_p0 in zip(init.weights, p0))
        assert np.abs(est.re - exact[0]).max() < 1e-12 and np.abs(est.im - exact[1]).max() < 1e-12
        drawn.clear()
        est = gf_series(model, init, grid, n_steps_policy=n_steps, shots=3000, seed=11)
        per_member = 3000 // members
        expected = {
            (11, m, quad): np.random.default_rng(np.random.SeedSequence([11, m, quad])).binomial(per_member, p0[m, quad])
            for m in range(members)
            for quad in (0, 1)
        }
        assert drawn.keys() == expected.keys()  # one call per member and quadrature
        for seed, n0 in expected.items():
            assert np.array_equal(drawn[seed], (n0 - (per_member - n0)) / per_member)
        mixture = sum(weight * np.array([drawn[(11, m, quad)] for quad in (0, 1)]) for m, weight in enumerate(init.weights))
        assert np.array_equal(est.re, mixture[0]) and np.array_equal(est.im, mixture[1])


def test_hadamard_sampled_within_error_bars():
    # 5 standard errors on each quadrature: a false-failure rate of 2.7e-7 over 400 seeds
    # (tools/stochastic_rates.py).  Power against p0 read 0.01 high by the sampler: 0.03
    model, dense, init = two_level()
    t = 0.7
    exact = gf_exact(dense, init, [t]).values[0]
    est = gf_series(model, init, [0.0, t], n_steps_policy=500, shots=10**4, seed=3)
    assert est.shots == 10**4
    assert abs(est.re[1] - exact.real) < 5 * max(est.re_err[1], 1e-4)
    assert abs(est.im[1] - exact.imag) < 5 * max(est.im_err[1], 1e-4)


def test_sampled_error_bar_matches_empirical_scatter():
    # repeated seeds: reported standard error within 20% of the observed one, over 400 seeds.
    # The scatter's chi-square tails give a false-failure rate of 4.7e-7 (tools/stochastic_rates.py,
    # 20,000 seeds); over the old 100 seeds it was 8.4e-3.  Power against error bars 25% large:
    # 0.87 (old gate 0.72)
    estimates, bars = scatter_draws(SCATTER_SEEDS)
    scatter = np.std(estimates, ddof=1)
    assert np.mean(bars) == pytest.approx(scatter, rel=SCATTER_TOL)


def test_sampled_counts_are_binomial_over_seeds():
    # each point's shots reading 0 over seeds 0-399 against Binomial(10^4, p0), p0 from the
    # statevector route, for every point and quadrature of a one-member trace.  The gate is the
    # chi-square tail at 1e-4, its false-failure rate; over 30 blocks of 400 seeds the p-values
    # average 0.60 (tools/stochastic_rates.py).  Power against p0 read 0.01 high: 1.0
    stat, dof = binomial_fit()
    assert chi2.sf(stat, dof) > GOF_P_MIN, f"chi2 {stat:.1f} on {dof} degrees of freedom"


def test_no_two_series_share_a_stream(monkeypatch):
    # a 3-member mixture draws six series, one per member and quadrature, each on its own
    # SeedSequence([seed, member, quadrature]): six distinct generator states and draws
    model = HubbardModel(sites=3, hopping=1.0, onsite=1.3)
    init = initial_state(model)
    seeds, draws = [], []
    real = genfunc.sample_ancilla

    def recorded(p0, shots, seed):
        seeds.append(seed)
        draws.append(real(np.full(64, 0.5), 1, seed))  # 64 fair coins on the series' stream
        return real(p0, shots, seed)

    monkeypatch.setattr(genfunc, "sample_ancilla", recorded)
    gf_series(model, init, [0.0, 0.1], n_steps_policy=1, shots=3000, seed=8)
    assert seeds == [(8, m, quad) for m in range(3) for quad in (0, 1)]
    assert len({tuple(np.random.SeedSequence(list(seed)).generate_state(4)) for seed in seeds}) == 6
    assert len({tuple(d) for d in draws}) == 6


def test_mixture_budget_split_and_rounding():
    model = HubbardModel(sites=4, hopping=1.0, onsite=1.0)
    init = initial_state(model)  # 6 members
    est = gf_series(model, init, [0.0], n_steps_policy=1, shots=10**4, seed=0)
    assert est.shots == 6 * (10**4 // 6)


def test_mixture_too_small_budget_rejected():
    model = HubbardModel(sites=4, hopping=1.0, onsite=1.0)
    init = initial_state(model)
    with pytest.raises(SimulationError):
        gf_series(model, init, [0.0], n_steps_policy=1, shots=3, seed=0)


def test_shots_past_the_sampler_range_rejected(monkeypatch):
    # the binomial sampler draws a C long; the refusal comes before any evolution
    model, _, init = two_level()
    monkeypatch.setattr(genfunc, "controlled_evolve", None)
    with pytest.raises(SimulationError, match=r"shots must lie in \[0, 2\*\*63 - 1\]"):
        gf_series(model, init, [0.0, 0.5], shots=2**63)


def test_gf_series_constant_on_zero_grid():
    model, _, init = two_level()
    series = gf_series(model, init, [0.0, 0.0, 0.0], n_steps_policy=1)
    assert np.allclose(series.re, 1.0)
    assert np.allclose(series.im, 0.0)


def test_gf_series_routes_and_determinism():
    model, _, init = two_level()
    t = np.linspace(0, 1, 6)
    sv = gf_series(model, init, t, n_steps_policy=64, shots=0, seed=5)
    assert sv.route == "statevector" and sv.shots == 0
    s1 = gf_series(model, init, t, n_steps_policy=64, shots=500, seed=5)
    s2 = gf_series(model, init, t, n_steps_policy=64, shots=500, seed=5)
    assert s1.route == "sampled"
    assert np.array_equal(s1.re, s2.re) and np.array_equal(s1.im, s2.im)
    s3 = gf_series(model, init, t, n_steps_policy=64, shots=500, seed=6)
    assert not np.array_equal(s1.re, s3.re)


def test_gf_series_requires_grid_from_zero():
    model, _, init = two_level()
    with pytest.raises(SimulationError):
        gf_series(model, init, [0.5, 1.0])


@pytest.mark.parametrize("seed", [-1, 2**32])
def test_gf_series_rejects_seed_outside_32_bits(seed):
    # the config schema's range.  SeedSequence takes a seed past 32 bits as two words, so
    # seed 2**32's member-0 Re series would draw on seed 0's member-1 Re stream
    alias, other = (np.random.SeedSequence(words).generate_state(4) for words in ([2**32, 0, 0], [0, 1, 0]))
    assert np.array_equal(alias, other)
    model, _, init = two_level()
    with pytest.raises(SimulationError, match="seed must lie in"):
        gf_series(model, init, [0.0, 0.5], shots=1000, seed=seed)


def test_series_magnitude_validation():
    with pytest.raises(SimulationError):
        GfSeries(
            t=[0.0, 1.0],
            re=[1.0, 1.4],
            im=[0.0, 0.0],
            re_err=[0.0, 0.0],
            im_err=[0.0, 0.0],
            route="exact",
        )


@pytest.mark.parametrize("shots, seed", [(100, 918), (100, 2102), (8, 17)])
def test_valid_shot_noise_is_a_series(shots, seed):
    # these draws put |F| above 1 + 3 error bars: 1.20 and 1.22 at t = 0.3 where the
    # exact |F| is 0.957, and at 8 shots Re = Im = +-1 with zero error bars, |F| = sqrt 2.
    # Each quadrature is a bias in [-1, 1], so the series is valid
    model, _, init = two_level()
    series = gf_series(model, init, [0.0, 0.3, 0.6, 0.9, 1.2], n_steps_policy=8, shots=shots, seed=seed)
    assert np.hypot(series.re, series.im).max() > 1.2
    assert np.abs(np.concatenate([series.re, series.im])).max() <= 1.0


def test_each_route_refuses_what_it_cannot_give():
    # |F| = 1.01 with both quadratures in [-1, 1]: a fact broken on the statevector route
    # only; a quadrature of 1.01 on a sampled or noisy one, however wide its error bars
    zeros, wide = np.zeros(2), np.full(2, 0.5)
    t, re, im = [0.0, 1.0], [1.0, 0.606], [0.0, 0.808]
    with pytest.raises(SimulationError, match=r"\|F\| = 1\.010000 exceeds 1 at t = 1"):
        GfSeries(t, re, im, zeros, zeros, route="statevector")
    for route in ("sampled", "noisy"):
        GfSeries(t, re, im, wide, wide, shots=100, route=route)
        with pytest.raises(SimulationError, match=r"\|re\| = 1\.010000 exceeds 1 at t = 1"):
            GfSeries(t, [1.0, 1.01], [0.0, 0.0], wide, wide, shots=100, route=route)
    # mitigation may leave [-1, 1] (noise.mitigate_series)
    GfSeries(t, [1.0, 1.5], [0.0, -1.5], wide, wide, shots=100, route="mitigated")


def test_csv_round_trip(tmp_path):
    model, dense, init = two_level()
    series = gf_series(model, init, np.linspace(0, 1, 5), n_steps_policy=32, shots=300, seed=2)
    path = tmp_path / "series.csv"
    series.to_csv(path)
    back = GfSeries.from_csv(path)
    assert np.array_equal(back.t, series.t)
    assert np.array_equal(back.re, series.re)
    assert np.array_equal(back.im_err, series.im_err)
    assert back.route == series.route
    assert back.shots == series.shots
    assert back.seed == series.seed
    assert back.model == series.model


def test_csv_extra_columns_preserved(tmp_path):
    model, dense, init = two_level()
    series = gf_exact(dense, init, np.linspace(0, 1, 5), model=model.fingerprint())
    series.extra["re_exact"] = series.re.copy()
    path = tmp_path / "overlay.csv"
    series.to_csv(path)
    back = GfSeries.from_csv(path)
    assert "re_exact" in back.extra
    assert np.array_equal(back.extra["re_exact"], series.re)


def test_csv_17_digit_rendering(tmp_path):
    model, dense, init = two_level()
    series = gf_exact(dense, init, [0.0, 1.0 / 3.0])
    path = tmp_path / "digits.csv"
    series.to_csv(path)
    row = path.read_text().splitlines()[-1]
    value = row.split(",")[0]
    assert value == f"{1.0 / 3.0:.16e}"
