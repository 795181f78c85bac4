import numpy as np
import pytest

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
from gfsim.statevector import SimulationError, StateVector, ancilla_probability, derive_seed, sample_ancilla
from gfsim.trotter import trotter_step

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

    def counted(state, model_, t, n_steps, ancilla):
        calls.append((state.n_qubits, t, n_steps))
        return real(state, model_, t, n_steps, ancilla)

    monkeypatch.setattr(genfunc, "controlled_evolve", counted)
    gf_series(model, init, grid)
    assert len(calls) == len(init) * (grid.size - 1)
    assert {n for n, _, _ in calls} == {model.n_qubits + 1}
    assert sorted({t for _, t, _ in calls}) == list(grid[1:])
    assert sum(n * len(trotter_step(model, t / n).gates) for _, t, n in calls) == gates


def gate_level_hadamard(model, init, t, n_steps, shots, seed):
    """Both Hadamard-test circuits applied gate by gate, read through ancilla_probability.

    Returns the mixture's (Re, Im) estimate and the sampled bias per sub-seed.
    """
    ancilla = model.n_qubits
    per_member = shots // len(init)
    estimates, drawn = np.zeros(2), {}
    for m_idx, (weight, member) in enumerate(zip(init.weights, init.members)):
        for quad, name in enumerate(("re", "im")):
            final = hadamard_test_circuit(model, t, n_steps, name).apply(member.tensor_with_ancilla())
            p0 = ancilla_probability(final, ancilla)
            if shots == 0:
                estimates[quad] += weight * (2.0 * p0 - 1.0)
            else:
                sub_seed = derive_seed(seed, m_idx, quad)
                drawn[sub_seed] = sample_ancilla(p0, per_member, sub_seed)
                estimates[quad] += weight * drawn[sub_seed]
    return estimates, drawn


@pytest.mark.parametrize(
    "model, members",
    [(HubbardModel(sites=3, hopping=1.0, onsite=1.3), 3), (PairingModel.uniform(4, 2, 1.0, 0.7), 1)],
    ids=["hubbard-3", "pairing-4"],
)
def test_hadamard_matches_gate_level_circuits(monkeypatch, model, members):
    # F = 2<psi_0|psi_1> read off the ancilla halves against the full circuits, H, R(-pi/2) and H included
    init = initial_state(model)
    assert len(init) == members
    drawn = {}
    real = genfunc.sample_ancilla

    def recorded(p0, shots, seed):
        drawn[seed] = real(p0, shots, seed)
        return drawn[seed]

    monkeypatch.setattr(genfunc, "sample_ancilla", recorded)
    for grid, n_steps in (([0.0], 1), ([0.0, 0.7], 5), ([0.0, 1.9], 3)):
        est = gf_series(model, init, grid, n_steps_policy=n_steps)
        for k, t in enumerate(grid):
            oracle, _ = gate_level_hadamard(model, init, t, n_steps, 0, 0)
            assert abs(est.re[k] - oracle[0]) < 1e-12 and abs(est.im[k] - oracle[1]) < 1e-12
        drawn.clear()
        est = gf_series(model, init, grid, n_steps_policy=n_steps, shots=3000, seed=11)
        expected = {}
        for k, t in enumerate(grid):  # point k draws on the sub-seeds of derive_seed(seed, k)
            oracle, point_drawn = gate_level_hadamard(model, init, t, n_steps, 3000, derive_seed(11, k))
            expected.update(point_drawn)
            assert (est.re[k], est.im[k]) == (oracle[0], oracle[1])
        assert drawn == expected and len(expected) == 2 * len(init) * len(grid)


def test_hadamard_sampled_within_error_bars():
    model, dense, init = two_level()
    t = 0.7
    exact = gf_exact(dense, init, [t]).values[0]
    est = gf_series(model, init, [0.0, t], n_steps_policy=500, shots=10**4, seed=3)
    assert est.shots == 10**4
    assert abs(est.re[1] - exact.real) < 5 * max(est.re_err[1], 1e-4)
    assert abs(est.im[1] - exact.imag) < 5 * max(est.im_err[1], 1e-4)


def test_sampled_error_bar_matches_empirical_scatter():
    # repeated seeds: reported standard error within 20% of the observed one
    model, dense, init = two_level()
    t, shots = 0.9, 2000
    estimates, bars = [], []
    for seed in range(100):
        est = gf_series(model, init, [0.0, t], n_steps_policy=200, shots=shots, seed=seed)
        estimates.append(est.re[1])
        bars.append(est.re_err[1])
    scatter = np.std(estimates, ddof=1)
    assert np.mean(bars) == pytest.approx(scatter, rel=0.2)


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
    # derive_seed keeps 32 bits of the seed, so 2**32 would sample as 0 and -1 as 2**32 - 1
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
