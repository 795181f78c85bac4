"""Acceptance suite: one test per exit criterion, one printed line each.

Grids and seeds that the criteria leave open are frozen here:
criterion 1 uses t in [0, 2] with step 1/16 for both models, criterion 8 uses
t in [0, 8] with step 0.01, and the noise study runs the builtin preset
(2-level pairing, t in [0, 0.4] step 0.02, confusion p01=0.05/p10=0.10,
p_dep=0.002, 10^6 shots per point).  Run with -s to see the status lines.
"""

import json

import numpy as np

from gfsim.cli import main
from gfsim.config import NOISE_PRESET
from gfsim.genfunc import GfSeries, gf_exact
from gfsim.krylov import build_krylov_matrices, solve_generalized, survival_probability
from gfsim.models import HubbardModel, PairingModel, build_dense, initial_state, pairing_to_qubits, to_qubits
from gfsim.moments import fourier_grid, moments_exact, moments_fdm, moments_fourier, spectral_peaks
from gfsim.texpand import extrapolate_ground_energy
from evolution import evolve
from krylov_oracles import error_order_check
from model_oracles import propagator
from sampled_gates import criterion1_pairs, sigma_problems, sigma_statistics


def report(number, name, checks):
    """Print the criterion status line, then enforce it."""
    failed = [msg for ok, msg in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"[criterion {number:>2}] {status}  {name}" + (f"  ({'; '.join(failed)})" if failed else ""))
    assert not failed, f"criterion {number} ({name}): " + "; ".join(failed)


def _pairing_benchmark(g=1.0):
    model = PairingModel.uniform(8, 4, 1.0, g)
    dense = build_dense(pairing_to_qubits(model))
    return model, dense, initial_state(model)


def test_criterion_01_gf_fidelity():
    # at least 99% of the 132 pooled Re and Im points of both models within 4 standard errors,
    # a sum of z^2 at most 200 and a signed sum of z at most 3.9 in size (sampled_gates).  Over
    # streams (tools/stochastic_rates.py, 1,000 seed pairs) this fails working code with rate
    # 2.6e-4: 1e-5 for two misses, 9.8e-5 for the chi-square tail, 1.5e-4 for the signed sum.
    # The old gate, every (model, quadrature) group of 33 points at >= 99%, i.e. no miss at all,
    # failed 5 of 1,000 seed pairs.  Power against p0 read 0.002 high by the sampler: 0.93 (old
    # gate 0.11); against error bars a factor sqrt(2) small: 0.96 (old gate 0.45)
    problems = sigma_problems(*sigma_statistics(criterion1_pairs(101, 202)))
    report(1, "generating-function fidelity at 10^4 shots", [(not problems, "; ".join(problems))])


def test_criterion_02_trotter_order():
    def slope(model, state, t):
        dense = build_dense(to_qubits(model))
        oracle = propagator(dense, t) @ state.amplitudes
        errs = []
        steps = [8, 16, 32, 64]
        for n in steps:
            out = evolve(state, model, t, n)
            overlap = np.vdot(out.amplitudes, oracle)
            errs.append(np.sqrt(max(0.0, 2.0 * (1.0 - abs(overlap)))))
        return float(np.polyfit(np.log(1.0 / np.asarray(steps, float)), np.log(errs), 1)[0])

    model, _, init = _pairing_benchmark()
    s_pair = slope(model, init.members[0], 0.5)
    hubbard = HubbardModel(sites=4, hopping=1.0, onsite=1.0)
    s_hub = slope(hubbard, initial_state(hubbard).members[0], 0.5)
    report(
        2,
        "first-order propagator error scaling",
        [
            (abs(s_pair - 1.0) < 0.15, f"pairing slope {s_pair:.3f}"),
            (abs(s_hub - 1.0) < 0.15, f"hubbard slope {s_hub:.3f}"),
        ],
    )


def test_criterion_03_fourier_moments():
    model, dense, init = _pairing_benchmark()
    # the CLI's baseband path: the grid from B', the trace demodulated by c_I
    center, radius = pairing_to_qubits(model).spectral_window
    series = gf_exact(dense, init, fourier_grid(radius))
    mom = moments_fourier(spectral_peaks(series, energy_bound=radius, center=center), 21)
    oracle = moments_exact(dense, init, 21)
    rel = np.abs(mom.values - oracle.values) / np.abs(oracle.values)
    report(3, "spectral moments to K=21", [(rel.max() < 1e-5, f"max relative error {rel.max():.2e}")])


def test_criterion_04_fdm_degradation():
    model, dense, init = _pairing_benchmark()
    series = gf_exact(dense, init, 2.5e-4 * np.arange(4001))
    mom = moments_fdm(series, 14)
    oracle = moments_exact(dense, init, 14)
    rel = np.abs(mom.values - oracle.values) / np.abs(oracle.values)
    report(
        4,
        "finite-difference accuracy falls off with order",
        [
            (rel[:7].max() < 1e-3, f"K<=6 max relative error {rel[:7].max():.2e}"),
            (rel[14] >= 1e3 * rel[6], f"K=14/K=6 error ratio {rel[14] / rel[6]:.1e}"),
        ],
    )


def test_criterion_05_t_expansion(texpand_exact):
    # The [3,7] extrapolation itself lands 1.64% from E_gs, so the asymptote is
    # gated on the same extrapolation redone in exact arithmetic (conftest.py);
    # the distance from E_gs is reported only, next to that of Krylov M=5,
    # which reads moments through order 11 from the same set.
    model, dense, init = _pairing_benchmark(1.0)
    mom = moments_exact(dense, init, 12)
    curve, approx, _ = extrapolate_ground_energy(mom, 10)
    e_gs = dense.ground_energy(init)
    rel = abs(curve.asymptote - e_gs) / abs(e_gs)
    krylov_rel = abs(solve_generalized(build_krylov_matrices(mom, 5)).energies[0] - e_gs) / abs(e_gs)
    exact = texpand_exact[(3, 7)]
    rel_exact = abs(curve.asymptote - exact) / abs(exact)
    report(
        5,
        f"energy extrapolation at g/de=1 (asymptote {rel:.2e} from E_gs; Krylov M=5 {krylov_rel:.2e})",
        [
            (approx.orders == (3, 7), f"selected {approx.orders}"),
            (rel_exact <= 1e-7, f"asymptote {rel_exact:.2e} from the exact [3,7] extrapolation"),
            (np.all(curve.dEdtau <= 0.0), f"max dE/dtau {curve.dEdtau.max():.2e}"),
        ],
    )


def test_criterion_06_strength_ordering():
    expected_orders = {0.5: (3, 7), 1.0: (3, 7), 2.0: (2, 8)}
    abs_errors = {}
    checks = []
    for g, orders in expected_orders.items():
        model, dense, init = _pairing_benchmark(g)
        mom = moments_exact(dense, init, 12)
        curve, approx, _ = extrapolate_ground_energy(mom, 10)
        abs_errors[g] = abs(curve.asymptote - dense.ground_energy(init))
        checks.append((approx.orders == orders, f"g={g} selected {approx.orders} want {orders}"))
    ordered = abs_errors[0.5] <= abs_errors[1.0] <= abs_errors[2.0]
    checks.append((ordered, "absolute errors " + ", ".join(f"{abs_errors[g]:.4f}" for g in (0.5, 1.0, 2.0))))
    report(6, "extrapolation error grows with coupling", checks)


def test_criterion_07_krylov_convergence():
    model, dense, init = _pairing_benchmark(2.0)
    mom = moments_exact(dense, init, 13)
    e_gs = dense.ground_energy(init)
    energies = {}
    for order in range(0, 7):  # float64 Hankel inputs stay meaningful through M=6
        energies[order] = solve_generalized(build_krylov_matrices(mom, order)).energies[0]
    values = [energies[m] for m in sorted(energies)]
    monotone = all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
    variational = all(v >= e_gs - 1e-9 for v in values)
    # Error as a fraction of the correlation energy <H> - E_gs (the M=0 error),
    # which adding a constant to H leaves unchanged; E_gs itself sits near zero.
    rel3 = abs(energies[3] - e_gs) / (mom.values[1] - e_gs)
    report(
        7,
        f"subspace ground-energy convergence at g/de=2 (M=3 error {rel3:.2e} of correlation energy)",
        [
            (monotone, "monotone non-increasing in M"),
            (variational, "variational bound"),
            (rel3 < 1e-2, f"M=3 error {rel3:.2e} as a fraction of correlation energy"),
        ],
    )


def test_criterion_08_survival_windows():
    model, dense, init = _pairing_benchmark(2.0)
    mom = moments_exact(dense, init, 13)
    t = np.arange(0.0, 8.0001, 0.01)
    exact = np.abs(gf_exact(dense, init, t).values) ** 2
    t_max = {}
    for order in (2, 3, 4, 5, 6):
        sol = solve_generalized(build_krylov_matrices(mom, order))
        dev = np.abs(survival_probability(sol, t) - exact)
        bad = np.nonzero(dev > 0.02)[0]
        t_max[order] = float(t[bad[0]]) if bad.size else float(t[-1] + 0.01)
    increasing = all(t_max[a] < t_max[b] for a, b in zip((2, 3, 4, 5), (3, 4, 5, 6)))
    detail = ", ".join(f"M={m}: {t_max[m]:.2f}" for m in (2, 3, 4, 5, 6))
    report(8, "survival-match window grows with M", [(increasing, detail)])


def test_criterion_09_defect_order():
    model, dense, init = _pairing_benchmark(1.0)
    t_set = np.logspace(-3.2, -0.7, 14)
    checks = []
    for order in (1, 2, 3, 4):
        slope, _ = error_order_check(dense, init, order, t_set)
        checks.append((abs(slope - (order + 1)) < 0.3, f"M={order} slope {slope:.2f}"))
    report(9, "projected-evolution defect scales as t^(M+1)", checks)


def test_criterion_10_noise_mitigation(tmp_path):
    # at 10^6 shots the rms ratio reads 0.082 +- 0.003 over 1,000 seeds and F(0) is restored
    # exactly (the t = 0 inversion never clips): no seed fails (tools/stochastic_rates.py).
    # Power against the reference correction skipped: 1.0
    cfg_path = tmp_path / "noise.json"
    cfg_path.write_text(json.dumps(NOISE_PRESET))
    assert main(["noise", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "noise_manifest.json").read_text())
    mitigated = GfSeries.from_csv(tmp_path / "gf_mitigated.csv")
    ratio = manifest["rms_mitigated"] / manifest["rms_raw"]
    f0_ok = abs(mitigated.re[0] - 1.0) <= 3 * mitigated.re_err[0] and abs(mitigated.im[0]) <= 3 * mitigated.im_err[0]
    report(
        10,
        "readout + reference mitigation on the 2-qubit preset",
        [
            (ratio <= 0.3, f"rms ratio {ratio:.3f}"),
            (f0_ok, f"F(0) = ({mitigated.re[0]:.5f}, {mitigated.im[0]:.5f}) within 3 sigma"),
        ],
    )


def test_criterion_11_determinism(tmp_path):
    cfg = {
        "model": {"kind": "pairing", "levels": 4, "pairs": 2, "delta_e": 1.0, "g": 1.0},
        "time_grid": {"t_max": 0.5, "dt": 0.05},
        "shots": 2000,
        "seed": 31,
        "trotter": {"policy": "fixed", "n_steps": 32},
        "overlay_exact": True,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["gf", "--config", str(cfg_path), "--out-dir", str(out1)]) == 0
    # second run re-driven from the first run's manifest
    assert main(["gf", "--config", str(out1 / "gf_manifest.json"), "--out-dir", str(out2)]) == 0
    identical = (out1 / "gf.csv").read_bytes() == (out2 / "gf.csv").read_bytes()
    report(11, "byte-identical CSV outputs from a manifest", [(identical, "gf.csv bytes differ")])
