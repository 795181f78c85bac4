import numpy as np
import pytest

from gfsim.genfunc import gf_exact
from gfsim.models import InitialState, PairingModel, build_dense, initial_state, pairing_to_qubits
from gfsim.moments import MomentSet, moments_exact
from gfsim.krylov import (
    _scaled_matrices,
    build_krylov_matrices,
    eigen_table_csv,
    solve_generalized,
    survival_csv,
    survival_probability,
    tdce_integrate,
)
from gfsim.statevector import SimulationError, StateVector
from krylov_oracles import error_order_check, tdce_rk4

SQRT2 = np.sqrt(2.0)


def two_level():
    model = PairingModel.uniform(2, 1, 1.0, 1.0)
    dense = build_dense(pairing_to_qubits(model))
    return model, dense, initial_state(model)


def benchmark(g=2.0, order=13):
    model = PairingModel.uniform(8, 4, 1.0, g)
    dense = build_dense(pairing_to_qubits(model))
    init = initial_state(model)
    return moments_exact(dense, init, order), dense, init


def dense_subspace_energies(dense, init, order):
    """Oracle: Rayleigh-Ritz on the orthonormalized dense Krylov vectors."""
    phi = init.members[0].amplitudes
    vecs = [phi]
    for _ in range(order):
        nxt = dense.matrix @ vecs[-1]
        vecs.append(nxt / np.linalg.norm(nxt))
    q, _ = np.linalg.qr(np.stack(vecs, axis=1))
    reduced = q.conj().T @ dense.matrix @ q
    return np.linalg.eigvalsh(0.5 * (reduced + reduced.conj().T))


def test_hankel_assembly():
    mom = MomentSet(np.arange(1.0, 9.0), np.zeros(8), route="exact")
    k = build_krylov_matrices(mom, 1)
    assert np.array_equal(k.overlap, [[1.0, 2.0], [2.0, 3.0]])
    assert np.array_equal(k.hamiltonian, [[2.0, 3.0], [3.0, 4.0]])


def test_hankel_requires_enough_moments():
    mom = MomentSet(np.array([1.0, 2.0, 5.0]), np.zeros(3), route="exact")
    with pytest.raises(SimulationError):
        build_krylov_matrices(mom, 1)  # needs order 3


def test_order_zero_solution():
    _, dense, init = two_level()
    sol = solve_generalized(build_krylov_matrices(moments_exact(dense, init, 1), 0))
    assert sol.energies == pytest.approx([2.0])
    assert sol.weights == pytest.approx([1.0])


def test_two_level_subspace_is_exact_at_order_one():
    _, dense, init = two_level()
    sol = solve_generalized(build_krylov_matrices(moments_exact(dense, init, 3), 1))
    assert np.allclose(sol.energies, [3.0 - SQRT2, 3.0 + SQRT2], atol=1e-9)
    assert sol.weights.sum() == pytest.approx(1.0, abs=1e-10)


def test_energies_match_dense_subspace_oracle():
    mom, dense, init = benchmark()
    for order in (1, 2, 3, 4, 5):
        sol = solve_generalized(build_krylov_matrices(mom, order))
        oracle = dense_subspace_energies(dense, init, order)
        assert sol.energies[0] == pytest.approx(oracle[0], abs=1e-7)


def test_variational_bound_and_monotonicity():
    mom, dense, init = benchmark(order=13)
    e_gs = dense.ground_energy(init)
    previous = np.inf
    for order in range(0, 7):
        sol = solve_generalized(build_krylov_matrices(mom, order))
        assert sol.energies[0] >= e_gs - 1e-9
        assert sol.energies[0] <= previous + 1e-9
        previous = sol.energies[0]


def test_eigenvalues_inside_spectral_range():
    mom, dense, init = benchmark()
    spread = dense.eigenvalues.max() - dense.eigenvalues.min()
    for order in (2, 4, 6):
        sol = solve_generalized(build_krylov_matrices(mom, order))
        assert sol.energies.min() >= dense.eigenvalues.min() - 1e-8 * spread
        assert sol.energies.max() <= dense.eigenvalues.max() + 1e-8 * spread


def test_cutoff_reported_and_condition_logged():
    mom, _, _ = benchmark()
    sol = solve_generalized(build_krylov_matrices(mom, 4))
    assert sol.retained_dim + sol.diagnostics["dropped"] == 5
    assert sol.diagnostics["overlap_condition"] > 1.0


def test_survival_starts_at_one():
    mom, _, _ = benchmark()
    sol = solve_generalized(build_krylov_matrices(mom, 3))
    p = survival_probability(sol, [0.0, 0.1])
    assert p[0] == pytest.approx(1.0, abs=1e-10)


def test_survival_single_retained_state_is_flat():
    _, dense, _ = two_level()
    vec = dense.eigenvectors[:, 1]
    init = InitialState([StateVector(2, vec)])
    mom = moments_exact(dense, init, 3)
    sol = solve_generalized(build_krylov_matrices(mom, 1))
    p = survival_probability(sol, np.linspace(0, 5, 11))
    assert np.allclose(p, 1.0, atol=1e-9)


def test_survival_two_level_rabi_formula():
    # oracle: P0(t) = 1 - (g^2/(de^2+g^2)) sin^2(sqrt(de^2+g^2) t)
    _, dense, init = two_level()
    sol = solve_generalized(build_krylov_matrices(moments_exact(dense, init, 3), 1))
    t = np.linspace(0, 6, 61)
    rabi = 1.0 - 0.5 * np.sin(SQRT2 * t) ** 2
    assert np.abs(survival_probability(sol, t) - rabi).max() < 1e-9


def test_survival_window_grows_with_order():
    mom, dense, init = benchmark()
    t = np.arange(0.0, 8.0001, 0.01)
    exact = np.abs(gf_exact(dense, init, t).values) ** 2
    t_max = {}
    for order in (2, 3, 4, 5, 6):
        sol = solve_generalized(build_krylov_matrices(mom, order))
        dev = np.abs(survival_probability(sol, t) - exact)
        bad = np.nonzero(dev > 0.02)[0]
        t_max[order] = t[bad[0]] if bad.size else t[-1] + 0.01
    values = [t_max[m] for m in (2, 3, 4, 5, 6)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_tdce_eigenstate_initial_condition():
    # Hm = E * O: a stationary input evolves as a pure phase, so the survival
    # amplitude has unit magnitude for all t (the coefficient representation in
    # the singular-overlap null space is not unique, the amplitude is)
    _, dense, _ = two_level()
    vec = dense.eigenvectors[:, 2]
    init = InitialState([StateVector(2, vec)])
    mom = moments_exact(dense, init, 3)
    k = build_krylov_matrices(mom, 1)
    assert np.abs(k.hamiltonian - dense.eigenvalues[2] * k.overlap).max() < 1e-9
    t = np.linspace(0, 2, 21)
    td = tdce_integrate(k, t)
    assert abs(td.c[0, 0] - 1.0) == 0.0
    assert np.abs(td.survival(k) - 1.0).max() < 1e-8


def test_tdce_matches_spectral_route_two_level():
    _, dense, init = two_level()
    k = build_krylov_matrices(moments_exact(dense, init, 3), 1)
    sol = solve_generalized(k)
    t = np.linspace(0, 6, 121)
    td = tdce_integrate(k, t)
    assert np.abs(td.survival(k) - survival_probability(sol, t)).max() < 1e-6
    assert np.array_equal(td.c[0], [1.0, 0.0])
    assert td.norm_drift < 1e-8


def test_tdce_matches_spectral_route_benchmark():
    mom, _, _ = benchmark()
    k = build_krylov_matrices(mom, 5)
    sol = solve_generalized(k)
    t = np.linspace(0, 4, 81)
    td = tdce_integrate(k, t)
    assert np.abs(td.survival(k) - survival_probability(sol, t)).max() < 1e-6


@pytest.mark.parametrize("order", range(1, 7))
@pytest.mark.parametrize("g", [1.0, 2.0])
def test_tdce_matches_rk4_oracle(g, order):
    mom, _, _ = benchmark(g=g)
    k = build_krylov_matrices(mom, order)
    t = np.linspace(0, 2, 41)
    td = tdce_integrate(k, t)
    amp, _ = tdce_rk4(k, t)
    assert np.abs(td.survival(k) - np.abs(amp) ** 2).max() < 1e-6
    # the survival probability is even in t for a real H; the amplitude fixes the sign
    overlap, _, _ = _scaled_matrices(k)
    assert np.abs(td.c @ overlap[0] - amp).max() < 1e-6


@pytest.mark.parametrize("g", [0.3, 1.0])
def test_tdce_full_sector_matches_dense_oracle(g):
    # order 5 spans the whole reachable sector of 4 levels, 2 pairs (6 states),
    # so the survival probability is exact at every time
    model = PairingModel.uniform(4, 2, 1.0, g)
    dense = build_dense(pairing_to_qubits(model))
    init = initial_state(model)
    assert np.count_nonzero(dense.spectral_weights(init) > 1e-12) == 6
    k = build_krylov_matrices(moments_exact(dense, init, 11), 5)
    t = np.linspace(0, 20, 401)
    td = tdce_integrate(k, t)
    exact = np.abs(gf_exact(dense, init, t).values) ** 2
    assert np.abs(td.survival(k) - exact).max() < 1e-7


def test_tdce_holds_at_any_time():
    # the closed form needs no grid from 0: unordered and negative times
    mom, _, _ = benchmark()
    k = build_krylov_matrices(mom, 4)
    t = np.array([1.5, -0.7, 3.0, 0.2])
    td = tdce_integrate(k, t)
    assert np.abs(td.survival(k) - survival_probability(solve_generalized(k), t)).max() < 1e-9


def test_error_order_slopes():
    model = PairingModel.uniform(8, 4, 1.0, 1.0)
    dense = build_dense(pairing_to_qubits(model))
    init = initial_state(model)
    t_set = np.logspace(-3.2, -0.7, 14)
    for order in (2, 4):
        slope, deltas = error_order_check(dense, init, order, t_set)
        assert slope == pytest.approx(order + 1, abs=0.3)
        assert np.all(np.diff(deltas) > 0)


def test_error_order_full_space_is_exact():
    # subspace order >= sector dimension - 1 reproduces the evolution exactly
    model = PairingModel.uniform(2, 1, 1.0, 1.0)
    dense = build_dense(pairing_to_qubits(model))
    init = initial_state(model)
    with pytest.raises(SimulationError) as err:
        error_order_check(dense, init, 3, np.logspace(-3, -1, 8))
    assert "fit window" in str(err.value)


def test_csv_writers(tmp_path):
    mom, dense, init = benchmark()
    solutions = {m: solve_generalized(build_krylov_matrices(mom, m)) for m in (0, 1)}
    eig_path = tmp_path / "eigs.csv"
    eigen_table_csv(eig_path, solutions)
    lines = eig_path.read_text().splitlines()
    assert lines[0] == "M,alpha,E,weight,retained_dim"
    assert len(lines) == 1 + 1 + 2

    t = np.linspace(0, 1, 5)
    sol = solutions[1]
    surv_path = tmp_path / "surv.csv"
    exact = np.abs(gf_exact(dense, init, t).values) ** 2
    survival_csv(surv_path, t, survival_probability(sol, t), exact)
    assert surv_path.read_text().splitlines()[0] == "t,P0_approx,P0_exact"
