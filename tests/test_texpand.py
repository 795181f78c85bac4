import math

import numpy as np
import pytest

from gfsim.models import (
    DenseHamiltonian,
    HubbardModel,
    InitialState,
    PairingModel,
    build_dense,
    initial_state,
    pairing_to_qubits,
    to_qubits,
)
from gfsim.moments import MomentSet, moments_exact
from gfsim.statevector import SimulationError, StateVector
from gfsim.texpand import (
    PadeApproximant,
    PadeRejection,
    cumulants_from_moments,
    default_tau_max,
    extrapolate_ground_energy,
    imaginary_time_oracle,
    integrate_energy,
    pade_fit,
    pade_select,
    selection_report,
    taylor_dEdtau,
)
from texpand_oracles import quad_energy_curve

SQRT2 = math.sqrt(2.0)


def two_level():
    model = PairingModel.uniform(2, 1, 1.0, 1.0)
    dense = build_dense(pairing_to_qubits(model))
    return model, dense, initial_state(model)


def pairing_moments(g, order=12):
    model = PairingModel.uniform(8, 4, 1.0, g)
    dense = build_dense(pairing_to_qubits(model))
    init = initial_state(model)
    return moments_exact(dense, init, order), dense, init


def moments_from_cumulants_oracle(kappa, order):
    """Series exponentiation: rebuild m_n from exp(sum kappa_K x^K / K!)."""
    # exp of a power series via the standard convolution recurrence
    a = np.zeros(order + 1)
    for k in range(1, min(order, len(kappa)) + 1):
        a[k] = kappa[k - 1] / math.factorial(k)
    e = np.zeros(order + 1)
    e[0] = 1.0
    for n in range(1, order + 1):
        e[n] = sum(k * a[k] * e[n - k] for k in range(1, n + 1)) / n
    return np.array([e[n] * math.factorial(n) for n in range(order + 1)])


def test_cumulants_point_spectrum():
    energy = 2.7
    mom = MomentSet(energy ** np.arange(9), np.zeros(9), route="exact")
    kappa = cumulants_from_moments(mom)
    assert kappa[0] == pytest.approx(energy)
    assert np.abs(kappa[1:]).max() < 1e-9


def test_cumulants_two_level_variance():
    _, dense, init = two_level()
    kappa = cumulants_from_moments(moments_exact(dense, init, 4))
    assert kappa[0] == pytest.approx(2.0)
    assert kappa[1] == pytest.approx(1.0)  # <H^2> - <H>^2 = 5 - 4


def test_cumulants_reject_negative_variance():
    # <H^2> = 3 below <H>^2 = 4: no state has these moments
    with pytest.raises(SimulationError, match="variance kappa_2"):
        cumulants_from_moments(MomentSet(np.array([1.0, 2.0, 3.0]), np.zeros(3), route="exact"))


def test_cumulants_round_trip_series_exponentiation():
    mom, _, _ = pairing_moments(1.0)
    rebuilt = moments_from_cumulants_oracle(cumulants_from_moments(mom), mom.order)
    rel = np.abs(rebuilt - mom.values) / np.maximum(np.abs(mom.values), 1e-300)
    assert rel.max() < 1e-10


def test_taylor_coefficients():
    coeffs = taylor_dEdtau(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 3)
    # b_K = -(-1)^K kappa_{K+2} / K!
    assert coeffs[0] == pytest.approx(-2.0)
    assert coeffs[1] == pytest.approx(3.0)
    assert coeffs[2] == pytest.approx(-2.0)
    assert coeffs[3] == pytest.approx(5.0 / 6.0)


def test_taylor_needs_enough_cumulants():
    with pytest.raises(SimulationError):
        taylor_dEdtau(np.array([1.0, 2.0]), 1)


def test_pade_geometric_series():
    # 1/(1+tau) = 1 - tau + tau^2 - ...
    approx = pade_fit([1.0, -1.0, 1.0, -1.0], 0, 1)
    assert approx.num == pytest.approx([1.0])
    assert approx.den == pytest.approx([1.0, 1.0])
    tau = np.linspace(0, 3, 7)
    assert np.allclose(approx(tau), 1.0 / (1.0 + tau))


def test_pade_constant_series():
    approx = pade_fit([2.0, 0.0], 0, 1)
    assert approx.den[1] == pytest.approx(0.0)
    assert approx(np.array([0.0, 5.0])) == pytest.approx([2.0, 2.0])


def test_pade_reexpansion_matches_input():
    mom, _, _ = pairing_moments(1.0)
    coeffs = taylor_dEdtau(cumulants_from_moments(mom), 10)
    approx = pade_fit(coeffs, 3, 7)
    back = approx.taylor(10)
    rel = np.abs(back - coeffs) / np.abs(coeffs).max()
    assert rel.max() < 1e-8
    # J = 0: no system to solve, the numerator is the series itself and nothing has a pole
    poly = pade_fit(coeffs, 10, 0)
    assert np.array_equal(poly.num, coeffs[:11]) and np.array_equal(poly.den, [1.0]) and poly.cond == 1.0
    assert poly.poles().size == 0


def test_pade_select_orders_match_reference_strengths():
    # selection across coupling strengths: [3,7], [3,7], [2,8]
    expected = {0.5: (3, 7), 1.0: (3, 7), 2.0: (2, 8)}
    for g, orders in expected.items():
        mom, _, _ = pairing_moments(g)
        kappa = cumulants_from_moments(mom)
        coeffs = taylor_dEdtau(kappa, 10)
        approx, log = pade_select(coeffs, 10, default_tau_max(kappa[1]))
        assert approx.orders == orders, f"g={g}: {selection_report(log, approx)}"


def test_pade_select_order_four_rejects_1_3():
    # the order-4 truncation leaves only [0,4] and [1,3]; on the benchmark
    # inputs [1,3] turns positive through its pole region and must be rejected
    mom, _, _ = pairing_moments(1.0, order=6)
    kappa = cumulants_from_moments(mom)
    coeffs = taylor_dEdtau(kappa, 4)
    approx, log = pade_select(coeffs, 4, default_tau_max(kappa[1]))
    report = {(r.i_order, r.j_order): r for r in log}
    assert not report[(1, 3)].accepted
    assert approx.orders == (0, 4)


def test_pade_select_raises_when_nothing_admissible():
    # a positive series (d/dtau of a growing energy) violates negativity everywhere
    coeffs = np.array([1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0])
    with pytest.raises(PadeRejection) as err:
        pade_select(coeffs, 4, 5.0)
    assert "[1,3]" in str(err.value) and "[0,4]" in str(err.value)


def test_pade_select_all_zero_series():
    approx, log = pade_select(np.zeros(11), 10, 5.0)
    assert np.allclose(approx(np.linspace(0, 5, 11)), 0.0)


def test_integrate_energy_zero_derivative():
    approx, _ = pade_select(np.zeros(11), 10, 5.0)
    curve = integrate_energy(approx, 3.5, np.linspace(0, 5, 21))
    assert np.allclose(curve.energy, 3.5)
    assert curve.asymptote == pytest.approx(3.5)


@pytest.mark.parametrize(
    "den, message",
    [
        ([1.0, 1.0], "tail integral diverges"),
        ([1.0, 0.0, -1.0], "real pole on tau >= 0"),
        ([1.0, 2.0, 1.0], "repeated poles"),
        ([1.0, 3.0, 3.0, 1.0], "repeated poles"),
    ],
    ids=["one-over-tau-decay", "pole-at-tau-one", "double-pole", "triple-pole"],
)
def test_integrate_energy_rejects_an_improper_tail(den, message):
    # -1/(1 + tau) has no finite integral to infinity; -1/(1 - tau^2) has a pole
    # at tau = 1; at a repeated pole the simple-pole partial fractions do not apply
    # (np.roots splits the triple pole by 1e-5, and the residues by 1e10 lose their sum)
    with pytest.raises(SimulationError, match=message):
        integrate_energy(PadeApproximant([-1.0], den), 0.0, np.linspace(0, 5, 11))


def admissible_candidates(mom, order=10):
    """Every admissible Pade approximant of the moments' dE/dtau series at this order, and the evaluation horizon."""
    kappa = cumulants_from_moments(mom)
    coeffs = taylor_dEdtau(kappa, order)
    tau_max = default_tau_max(kappa[1])
    _, log = pade_select(coeffs, order, tau_max)
    return [pade_fit(coeffs, r.i_order, r.j_order) for r in log if r.accepted], tau_max


@pytest.mark.parametrize("case", ["pairing-0.5", "pairing-1", "pairing-2", "hubbard-4"])
def test_closed_form_energy_matches_quadrature(case):
    if case == "hubbard-4":
        model = HubbardModel(sites=4, hopping=1.0, onsite=1.0)
        mom = moments_exact(build_dense(to_qubits(model)), initial_state(model), 12)
    else:
        mom, _, _ = pairing_moments(float(case.split("-")[1]))
    candidates, tau_max = admissible_candidates(mom)
    assert candidates
    tau = np.linspace(0.0, tau_max, 401)
    h_mean = float(mom.values[1])
    for approx in candidates:
        curve = integrate_energy(approx, h_mean, tau)
        energy, asymptote = quad_energy_curve(approx, h_mean, tau)
        assert np.abs(curve.energy - energy).max() < 1e-11, approx.orders
        assert abs(curve.asymptote - asymptote) < 1e-11, approx.orders


def test_closed_form_asymptote_matches_exact_arithmetic(exact_pades, texpand_exact):
    # the exact Pade coefficients rounded to float, integrated in closed form,
    # against the 50-digit quadrature of the same rational function
    h_mean, pades = exact_pades
    pole_free = [orders for orders, energy in texpand_exact.items() if energy is not None]
    assert pole_free
    for orders in pole_free:
        num, den = pades[orders]
        approx = PadeApproximant([float(x) for x in num], [float(x) for x in den])
        curve = integrate_energy(approx, float(h_mean), np.linspace(0.0, 5.0, 11))
        assert abs(curve.asymptote - texpand_exact[orders]) <= 1e-13 * abs(texpand_exact[orders]), orders


def test_energy_monotone_nonincreasing():
    mom, dense, init = pairing_moments(1.0)
    curve, approx, _ = extrapolate_ground_energy(mom, 10)
    assert np.all(np.diff(curve.energy) <= 1e-12)


def test_asymptote_two_level():
    # E(tau -> inf) = 3 - sqrt(2); the order-10 rational extrapolation lands
    # a few parts in 1e3 off that limit
    _, dense, init = two_level()
    mom = moments_exact(dense, init, 12)
    curve, approx, _ = extrapolate_ground_energy(mom, 10)
    assert curve.asymptote == pytest.approx(3.0 - SQRT2, rel=5e-3)


def test_asymptote_benchmark_order_of_magnitude():
    mom, dense, init = pairing_moments(1.0)
    curve, approx, _ = extrapolate_ground_energy(mom, 10)
    e_gs = dense.ground_energy(init)
    assert approx.orders == (3, 7)
    # documented accuracy wall of the truncated rational extrapolation here
    assert abs(curve.asymptote - e_gs) / abs(e_gs) < 0.02


def test_no_order_10_candidate_reaches_one_percent(texpand_exact):
    # Why criterion 5 gates on the exact extrapolation rather than on a 1%
    # distance from E_gs: in exact arithmetic [1,9] and [2,8] have a real pole
    # on tau >= 0, and every pole-free candidate lands more than 1% away.
    mom, dense, init = pairing_moments(1.0)
    e_gs = dense.ground_energy(init)
    _, _, log = extrapolate_ground_energy(mom, 10)
    reasons = {(r.i_order, r.j_order): r.reason for r in log}
    admitted = {(r.i_order, r.j_order) for r in log if r.accepted}
    with_pole = {orders for orders, energy in texpand_exact.items() if energy is None}
    assert with_pole == {(1, 9), (2, 8)}
    assert all(reasons[orders] == "real pole on tau >= 0" for orders in with_pole)
    assert admitted == texpand_exact.keys() - with_pole
    for orders in admitted:
        assert abs(texpand_exact[orders] - e_gs) / abs(e_gs) > 0.01, orders


def test_strength_ordering_absolute_errors():
    errors = []
    for g in (0.5, 1.0, 2.0):
        mom, dense, init = pairing_moments(g)
        curve, _, _ = extrapolate_ground_energy(mom, 10)
        errors.append(abs(curve.asymptote - dense.ground_energy(init)))
    assert errors[0] <= errors[1] <= errors[2]


def test_eigenstate_input_short_circuits_to_constant():
    _, dense, _ = two_level()
    vec = dense.eigenvectors[:, 2]
    init = InitialState([StateVector(2, vec)])
    mom = moments_exact(dense, init, 12)
    curve, approx, log = extrapolate_ground_energy(mom, 10)
    assert approx is None and log == []
    assert np.allclose(curve.energy, dense.eigenvalues[2])
    # the zero approximant integrates to <H> itself: no tail, no slope
    h_mean = mom.values[1]
    assert np.all(curve.energy == h_mean) and not curve.dEdtau.any()
    assert curve.asymptote == curve.asymptote_grid_end == h_mean


def test_weight_below_tolerance_leaves_the_ground_and_asymptote_reachable():
    # levels -3, 2, 4, 7; the state puts 1e-13 on -3, five units below the reachable ground
    dense = DenseHamiltonian(np.diag([-3.0, 2.0, 4.0, 7.0]), 2)
    rest = np.sqrt(0.5 * (1.0 - 1e-13))
    init = InitialState([StateVector(2, np.array([np.sqrt(1e-13), rest, rest, 0.0]))])
    spec = dense.spectrum(init)
    assert np.array_equal(spec.energies, [-3.0, 2.0, 4.0])  # traces and moments keep the level
    assert np.array_equal(spec.reachable().energies, [2.0, 4.0])
    assert dense.ground_energy(init) == 2.0
    curve = imaginary_time_oracle(dense, init, np.linspace(0.0, 20.0, 41))
    assert curve.asymptote == 2.0
    # with the -3 level kept, 1e-13 e^{5 tau} would pull E(20) to -3
    assert np.all(curve.energy >= 2.0) and curve.energy[-1] == pytest.approx(2.0, abs=1e-12)


def test_imaginary_time_oracle_two_level():
    _, dense, init = two_level()
    tau = np.linspace(0, 30, 301)
    curve = imaginary_time_oracle(dense, init, tau)
    assert curve.energy[0] == pytest.approx(2.0)
    assert curve.energy[-1] == pytest.approx(3.0 - SQRT2, abs=1e-9)
    assert curve.asymptote == pytest.approx(3.0 - SQRT2, abs=1e-12)
    assert np.all(curve.dEdtau <= 1e-12)


def test_oracle_derivative_is_negative_variance():
    mom, dense, init = pairing_moments(1.0)
    tau = np.linspace(0, 2, 41)
    curve = imaginary_time_oracle(dense, init, tau)
    kappa = cumulants_from_moments(mom)
    assert curve.dEdtau[0] == pytest.approx(-kappa[1], rel=1e-9)
    assert np.all(curve.dEdtau <= 1e-12)


def test_truncation_window_shrinks_with_order():
    # truncated series tracks the oracle derivative near tau=0, better with more terms
    mom, dense, init = pairing_moments(1.0)
    kappa = cumulants_from_moments(mom)
    window = np.linspace(0, 0.1 / math.sqrt(kappa[1]), 21)
    oracle = imaginary_time_oracle(dense, init, window)
    max_err = []
    for order in (4, 6, 8, 10):
        coeffs = taylor_dEdtau(kappa, order)
        series_vals = np.polyval(coeffs[::-1], window)
        max_err.append(np.abs(series_vals - oracle.dEdtau).max())
    assert all(b <= a for a, b in zip(max_err, max_err[1:]))


def test_selected_approximant_tail_decays_faster_than_1_over_tau():
    mom, _, _ = pairing_moments(1.0)
    kappa = cumulants_from_moments(mom)
    coeffs = taylor_dEdtau(kappa, 10)
    tau_max = default_tau_max(kappa[1])
    approx, _ = pade_select(coeffs, 10, tau_max)
    tail = np.abs(np.linspace(0.5, 1.0, 5) * tau_max * approx(np.linspace(0.5, 1.0, 5) * tau_max))
    peak = np.abs(np.linspace(0, tau_max, 201) * approx(np.linspace(0, tau_max, 201))).max()
    assert tail[-1] < 0.1 * peak


def test_energy_curve_csv(tmp_path):
    _, dense, init = two_level()
    mom = moments_exact(dense, init, 12)
    curve, _, _ = extrapolate_ground_energy(mom, 10)
    path = tmp_path / "curve.csv"
    curve.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[2] == "tau,E,dEdtau"
    assert len(lines) == 3 + curve.tau.size
