import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import gfsim
from gfsim.cli import main
from gfsim.config import NOISE_PRESET, ConfigError, RunConfig
from gfsim.genfunc import GfSeries
from gfsim.models import build_dense, to_qubits
from gfsim.moments import MomentSet, moments_exact
from gfsim.noise import NoiseModel
from gfsim.texpand import imaginary_time_oracle
from sampled_gates import (
    CLIP_SEEDS,
    EXACT_MOMENTS,
    FOURIER_CONFIG,
    FOURIER_SEEDS,
    clip_config,
    clip_flags,
    fourier_error,
    fourier_problems,
)


def base_config(**overrides):
    cfg = {
        "model": {"kind": "pairing", "levels": 2, "pairs": 1, "delta_e": 1.0, "g": 1.0},
        "time_grid": {"t_max": 0.5, "dt": 0.1},
        "shots": 200,
        "seed": 4,
        "trotter": {"policy": "fixed", "n_steps": 16},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        RunConfig(base_config(bogus=1))


def test_nested_unknown_keys_rejected():
    cfg = base_config()
    cfg["model"]["flavor"] = "x"
    with pytest.raises(ConfigError):
        RunConfig(cfg)


def test_moments_gap_target_rejected(tmp_path):
    # nothing reads moments.gap_target; the Fourier grid's gap target lives in time_grid
    cfg = base_config(moments={"route": "fourier", "gap_target": 0.05})
    with pytest.raises(ConfigError):
        RunConfig(cfg)
    assert main(["moments", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)]) == 2


def test_krylov_cutoff_rejected(tmp_path):
    # the overlap cutoff is the fixed krylov.DEFAULT_CUTOFF; no config value reaches it
    cfg = base_config(krylov={"cutoff": 1e-10})
    with pytest.raises(ConfigError):
        RunConfig(cfg)
    assert main(["krylov", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "model",
    [
        {"kind": "hubbard", "sites": 2, "g": 5, "levels": 9},
        {"kind": "pairing", "levels": 2, "pairs": 1, "onsite": 3.0},
        {"kind": "pairing", "eps": [1.0, 2.0], "levels": 2, "pairs": 1},
        {"kind": "pairing", "eps": [1.0, 2.0], "delta_e": 0.5, "pairs": 1},
    ],
    ids=["hubbard-with-pairing-keys", "pairing-with-onsite", "eps-with-levels", "eps-with-delta_e"],
)
def test_model_keys_of_the_other_kind_rejected(tmp_path, model):
    cfg = base_config(model=model)
    with pytest.raises(ConfigError):
        RunConfig(cfg)
    assert main(["gf", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "grid",
    [{"auto": True, "t_max": 1.0}, {"auto": True, "dt": 0.1}, {"t_max": 0.5, "dt": 0.1, "gap_target": 0.05}],
    ids=["auto-with-t_max", "auto-with-dt", "gap_target-without-auto"],
)
def test_time_grid_keys_the_grid_rule_ignores_rejected(grid):
    with pytest.raises(ConfigError):
        RunConfig(base_config(time_grid=grid))


@pytest.mark.parametrize("value", ["false", 1, None], ids=["string", "integer", "null"])
@pytest.mark.parametrize("where", ["overlay_exact", "time_grid.auto"])
def test_flags_must_be_json_booleans(tmp_path, where, value):
    # "false" is truthy, so reading the flag by truthiness would turn the overlay or the auto grid on
    if where == "overlay_exact":
        cfg = base_config(overlay_exact=value)
    else:
        cfg = base_config(time_grid={"auto": value, "t_max": 0.5, "dt": 0.1})
    with pytest.raises(ConfigError, match="must be true or false"):
        RunConfig(cfg)
    assert main(["gf", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)]) == 2


def test_n_steps_under_reference_policy_rejected():
    with pytest.raises(ConfigError):
        RunConfig(base_config(trotter={"policy": "reference", "n_steps": 8}))


def test_noise_readout_forms(tmp_path):
    # readout is {p01, p10}, or null for none; a 2x2 matrix or a per-qubit list is refused
    flips = RunConfig(base_config(noise={"readout": {"p01": 0.05, "p10": 0.10}}))
    assert flips.noise == NoiseModel(p01=0.05, p10=0.10, p_dep=0.0)
    assert RunConfig(base_config(noise={"readout": None})).noise == NoiseModel()
    matrix = base_config(noise={"readout": [[0.95, 0.10], [0.05, 0.90]]})
    per_qubit = base_config(noise={"readout": [np.eye(2).tolist()] * 2 + [[[0.95, 0.10], [0.05, 0.90]]]})
    for cfg in (matrix, per_qubit):
        with pytest.raises(ConfigError, match="noise.readout"):
            RunConfig(cfg)
        assert main(["noise", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)]) == 2


def test_numeric_ranges_checked():
    cfg = base_config(shots=-5)
    with pytest.raises(ConfigError):
        RunConfig(cfg)
    cfg = base_config()
    cfg["model"]["pairs"] = 2.5
    with pytest.raises(ConfigError):
        RunConfig(cfg)


def test_schema_round_trip():
    cfg = RunConfig(base_config())
    again = RunConfig(cfg.resolved())
    assert again.resolved() == cfg.resolved()


def test_auto_time_grid():
    cfg = RunConfig(base_config(time_grid={"auto": True}))
    assert cfg.t_grid[0] == 0.0
    assert cfg.t_grid.size > 100


def test_hubbard_model_block():
    cfg = RunConfig(
        {
            "model": {"kind": "hubbard", "sites": 4, "hopping": 1.0, "onsite": 1.0},
            "time_grid": {"t_max": 0.2, "dt": 0.1},
        }
    )
    assert cfg.model.n_qubits == 8
    assert len(cfg.init) == 6


def test_cmd_gf_writes_series_and_manifest(tmp_path):
    rc = main(["gf", "--config", write_config(tmp_path, base_config()), "--out-dir", str(tmp_path)])
    assert rc == 0
    series = GfSeries.from_csv(tmp_path / "gf.csv")
    assert series.t.size == 6
    assert series.route == "sampled"
    manifest = json.loads((tmp_path / "gf_manifest.json").read_text())
    assert manifest["command"] == "gf"
    assert "gf.csv" in manifest["outputs"]


def test_cmd_gf_statevector_route_zero_errors(tmp_path):
    cfg = base_config(shots=0)
    rc = main(["gf", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)])
    assert rc == 0
    series = GfSeries.from_csv(tmp_path / "gf.csv")
    assert series.route == "statevector"
    assert np.all(series.re_err == 0.0)


def test_cmd_gf_exact_overlay_columns(tmp_path):
    cfg = base_config(overlay_exact=True)
    rc = main(["gf", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)])
    assert rc == 0
    series = GfSeries.from_csv(tmp_path / "gf.csv")
    assert "re_exact" in series.extra and "im_exact" in series.extra


def test_cmd_gf_deterministic_bytes(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["gf", "--config", cfg_path, "--out-dir", str(out1)]) == 0
    assert main(["gf", "--config", cfg_path, "--out-dir", str(out2)]) == 0
    assert (out1 / "gf.csv").read_bytes() == (out2 / "gf.csv").read_bytes()


def test_cmd_gf_rerun_from_manifest_identical(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    out1 = tmp_path / "a"
    assert main(["gf", "--config", cfg_path, "--out-dir", str(out1)]) == 0
    out2 = tmp_path / "b"
    assert main(["gf", "--config", str(out1 / "gf_manifest.json"), "--out-dir", str(out2)]) == 0
    assert (out1 / "gf.csv").read_bytes() == (out2 / "gf.csv").read_bytes()


def test_invalid_config_exit_code_2(tmp_path):
    # an unknown key, and a model, initial state or time grid that the config cannot build
    invalid = [
        base_config(bogus=True),
        base_config(initial_state="no-such-state"),
        base_config(model={"kind": "pairing", "levels": 2, "pairs": 3}),
        base_config(model={"kind": "pairing", "levels": 4, "pairs": 2}, initial_state=["1110"]),
        base_config(model={"kind": "pairing", "eps": [], "pairs": 0}),
        base_config(texpansion={"order": 10, "tau_max": None}),  # the horizon is always default_tau_max
    ]
    for cfg in invalid:
        path = write_config(tmp_path, cfg)
        assert main(["gf", "--config", path, "--out-dir", str(tmp_path)]) == 2, cfg


@pytest.mark.parametrize("entry", [1, ["1", "0"]], ids=["integer", "list-of-digits"])
def test_initial_state_entries_must_be_bitstrings(tmp_path, capsys, entry):
    # an integer has no length to check, and a list of digits would pass as the bitstring it spells
    out = tmp_path / "out"
    assert main(["gf", "--config", write_config(tmp_path, base_config(initial_state=[entry])), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "is not a bitstring" in err
    assert not list(out.glob("*_manifest.json"))


NAN, INF = float("nan"), float("inf")  # json.dumps writes them as NaN and Infinity, which json.load reads back


@pytest.mark.parametrize(
    "command, overrides, key",
    [
        ("gf", {"time_grid": {"t_max": INF, "dt": 0.1}}, "time_grid.t_max"),
        ("gf", {"time_grid": {"t_max": 10**400, "dt": 0.1}}, "time_grid.t_max"),
        ("gf", {"time_grid": {"t_max": 0.5, "dt": NAN}}, "time_grid.dt"),
        ("gf", {"time_grid": {"auto": True, "gap_target": NAN}}, "time_grid.gap_target"),
        ("gf", {"model": {"kind": "pairing", "eps": [NAN, 2, 3], "pairs": 1}}, "model.eps"),
        ("gf", {"model": {"kind": "pairing", "levels": 2, "pairs": 1, "delta_e": INF}}, "model.delta_e"),
        ("gf", {"model": {"kind": "hubbard", "sites": 2, "onsite": NAN}}, "model.onsite"),
        ("gf", {"model": {"kind": "pairing", "levels": 2, "pairs": 1, "g": NAN}}, "model.g"),
        ("noise", {"noise": {"readout": {"p01": NAN, "p10": 0.1}}}, "noise.readout.p01"),
    ],
    ids=[
        "t_max-infinity",
        "t_max-past-float",
        "dt-nan",
        "gap_target-nan",
        "eps-nan",
        "delta_e-infinity",
        "onsite-nan",
        "g-nan",
        "readout-nan",
    ],
)
def test_non_finite_config_numbers_exit_2(tmp_path, capsys, command, overrides, key):
    # Python's json parses NaN, Infinity, -Infinity and integers past any float; none is a usable parameter
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, base_config(**overrides)), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err
    assert not list(out.glob("*_manifest.json"))


def test_runtime_failure_exit_code_1(tmp_path):
    cfg = base_config()
    path = write_config(tmp_path, cfg)
    rc = main(["texpand", "--config", path, "--moments", str(tmp_path / "missing.csv"), "--out-dir", str(tmp_path)])
    assert rc == 1


def test_missing_config_exit_code_2(tmp_path):
    assert main(["gf", "--out-dir", str(tmp_path)]) == 2


def test_cmd_moments_exact_route(tmp_path):
    cfg = base_config(moments={"route": "exact", "order": 8})
    rc = main(["moments", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)])
    assert rc == 0
    mom = MomentSet.from_csv(tmp_path / "moments.csv")
    assert mom.order == 8
    assert mom.values[1] == pytest.approx(2.0)


def test_cmd_moments_fourier_from_series_file(tmp_path):
    cfg = base_config(time_grid={"auto": True}, shots=0, moments={"route": "fourier", "order": 10})
    cfg_path = write_config(tmp_path, cfg)
    assert main(["moments", "--config", cfg_path, "--out-dir", str(tmp_path)]) == 0
    mom = MomentSet.from_csv(tmp_path / "moments.csv")
    assert mom.route == "fourier"
    assert mom.values[2] == pytest.approx(5.0, rel=1e-6)


def test_cmd_moments_fourier_from_sampled_series(tmp_path):
    # shot noise on the trace must not be fitted as tones (weights summing above 1 exit 1).
    # Seed 3 runs through the CLI, seeds 4-53 through library gf_series and spectral_peaks
    # (the calls the CLI makes), 10^4 shots per point on the 51-point baseband grid.  A fit
    # fails where it raises, fits noise as a tone (rank other than 2) or does not renormalize;
    # at most 2 of the 51 may fail, and the median K <= 4 error (inf for a failed fit) must
    # stay under 7e-3.  The CLI run must exit 0 and write its header.  Over 4,000 seeds
    # (tools/stochastic_rates.py) no fit fails and 24.9% of errors reach 7e-3, so the gate fails
    # working code with rate 5.7e-5, at most 8.9e-4 at the shares' 95% upper bounds.  The old
    # gate, the median over seeds 3-11 below 5e-3 with only seed 3's rank checked, failed at
    # rate 0.27.  Power against the rank floor halved: 1.0 (old gate 0.75); against p0 read
    # 0.003 high by the sampler: 1.0 (old gate 0.88)
    cfg = dict(FOURIER_CONFIG)
    cfg_path = write_config(tmp_path, cfg)
    assert main(["gf", "--config", cfg_path, "--out-dir", str(tmp_path)]) == 0
    series = str(tmp_path / "gf.csv")
    assert main(["moments", "--config", cfg_path, "--series", series, "--out-dir", str(tmp_path)]) == 0
    header = (tmp_path / "moments.csv").read_text()
    assert "# rank=" in header and "# renormalized=" in header and "# weight_sum=" in header
    assert "# center=3.0\n" in header and "# cols=26\n" in header
    fitted = "# rank=2\n" in header and "# renormalized=True\n" in header
    cli_error = np.abs(MomentSet.from_csv(tmp_path / "moments.csv").values / EXACT_MOMENTS - 1.0).max()
    errors = [cli_error if fitted else np.inf]
    run = RunConfig.from_file(cfg_path)
    errors += [fourier_error(run, seed) for seed in FOURIER_SEEDS if seed != cfg["seed"]]
    assert len(errors) == len(FOURIER_SEEDS)
    assert fourier_problems(errors) == []


def test_cmd_moments_fdm_route(tmp_path):
    cfg = base_config(
        time_grid={"t_max": 1.0, "dt": 0.00025},
        moments={"route": "fdm", "order": 6},
    )
    assert main(["moments", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)]) == 0
    mom = MomentSet.from_csv(tmp_path / "moments.csv")
    assert mom.route == "fdm"
    assert mom.values[2] == pytest.approx(5.0, rel=1e-4)


def test_cmd_texpand(tmp_path):
    cfg = base_config(moments={"route": "exact", "order": 12}, texpansion={"order": 10})
    rc = main(["texpand", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)])
    assert rc == 0
    report = (tmp_path / "pade_selection.txt").read_text()
    assert "chosen" in report
    lines = (tmp_path / "energy_curve.csv").read_text().splitlines()
    assert lines[2] == "tau,E,dEdtau"


def test_cmd_texpand_records_oracle_curve_error(tmp_path):
    cfg = base_config(moments={"route": "exact", "order": 12}, texpansion={"order": 10})
    assert main(["texpand", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "texpand_manifest.json").read_text())
    curve = np.loadtxt(tmp_path / "energy_curve.csv", delimiter=",", skiprows=3)
    run = RunConfig(cfg)
    oracle = imaginary_time_oracle(build_dense(to_qubits(run.model)), run.init, curve[:, 0])
    error = manifest["oracle_curve_max_abs_error"]
    assert error == pytest.approx(np.abs(curve[:, 1] - oracle.energy).max(), rel=1e-12)
    assert error > 0.0


def test_cmd_texpand_no_admissible_exit_3(tmp_path):
    # moments crafted so the derivative series is -1/(1-tau)^3: the only
    # order-3 candidate [0,3] then carries a real positive pole
    mom = MomentSet(np.array([1.0, 0.0, 1.0, -3.0, 15.0, -90.0]), np.zeros(6), route="exact")
    mom_path = tmp_path / "mom.csv"
    mom.to_csv(mom_path)
    cfg = base_config(texpansion={"order": 3})
    rc = main(
        ["texpand", "--config", write_config(tmp_path, cfg), "--moments", str(mom_path), "--out-dir", str(tmp_path)]
    )
    assert rc == 3


def test_cmd_krylov(tmp_path):
    # without --moments, orders [0, 1] need moments through 2 * 1 + 1 = 3, so the config's order 2 is raised
    cfg = base_config(moments={"route": "exact", "order": 2}, krylov={"orders": [0, 1], "t_max": 2.0, "dt": 0.1})
    rc = main(["krylov", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)])
    assert rc == 0
    assert json.loads((tmp_path / "krylov_manifest.json").read_text())["config"]["moments"]["order"] == 3
    eig_lines = (tmp_path / "krylov_eigs.csv").read_text().splitlines()
    assert eig_lines[0] == "M,alpha,E,weight,retained_dim"
    assert len(eig_lines) == 4  # M=0: 1 row, M=1: 2 rows
    surv_lines = (tmp_path / "survival.csv").read_text().splitlines()
    assert surv_lines[0] == "t,P0_approx,P0_exact"
    # exact survival column present and starting at 1
    first = surv_lines[1].split(",")
    assert float(first[2]) == pytest.approx(1.0)


def test_cmd_krylov_warns_on_stderr(tmp_path, capsys):
    # exact moments relabelled as finite-difference ones with 1e-3 relative errors:
    # the warning goes to stderr, and stdout keeps only the command's result
    cfg = base_config(krylov={"orders": [0, 1], "t_max": 1.0, "dt": 0.1})
    run = RunConfig(cfg)
    exact = moments_exact(build_dense(to_qubits(run.model)), run.init, 3)
    mom_path = tmp_path / "mom.csv"
    MomentSet(exact.values, 1e-3 * np.abs(exact.values), route="fdm").to_csv(mom_path)
    argv = ["krylov", "--config", write_config(tmp_path, cfg), "--moments", str(mom_path), "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "finite-difference moments exceed 1e-6 relative error" in captured.err
    assert "finite-difference" not in captured.out
    assert "wrote" in captured.out


def test_cmd_noise_builtin_preset_smoke(tmp_path):
    # reduced-shot copy of the builtin preset
    cfg = json.loads(json.dumps(NOISE_PRESET))
    cfg["shots"] = 20000
    cfg["time_grid"] = {"t_max": 0.2, "dt": 0.05}
    rc = main(["noise", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)])
    assert rc == 0
    manifest = json.loads((tmp_path / "noise_manifest.json").read_text())
    assert manifest["rms_mitigated"] < manifest["rms_raw"]
    for name in ("gf_exact.csv", "gf_raw.csv", "gf_mitigated.csv"):
        assert (tmp_path / name).exists()
    raw = GfSeries.from_csv(tmp_path / "gf_raw.csv")
    assert raw.route == "noisy"
    mit = GfSeries.from_csv(tmp_path / "gf_mitigated.csv")
    assert mit.route == "mitigated"


def test_cmd_noise_records_calibration_clipping(tmp_path):
    # the builtin preset calibrates inside the simplex; without depolarizing noise the t = 0
    # readout inversion of Re F sits at p0 = 1, and shot noise pushes it past 1 on about half
    # the seeds.  Over seeds 3-22 the manifest's flag must equal the inversion of the written
    # raw biases, and both outcomes must occur: a false-failure rate of 2e-6 at the clipping
    # share 0.49 (tools/stochastic_rates.py).  The old gate, seed 3 alone must clip, failed
    # half the streams.  Power against the flag dropped: 1.0 (old gate 0.49)
    assert main(["noise", "--out-dir", str(tmp_path / "preset")]) == 0
    manifest = json.loads((tmp_path / "preset" / "noise_manifest.json").read_text())
    assert manifest["calibration_clipped"] is False
    path = write_config(tmp_path, clip_config())
    flags = [clip_flags(path, tmp_path / str(seed), seed) for seed in CLIP_SEEDS]
    assert all(flag == expected for flag, expected in flags)
    assert {flag for flag, _ in flags} == {False, True}


@pytest.mark.parametrize("trotter", [{"policy": "reference"}, None])
def test_cmd_noise_rejects_reference_step_policy(tmp_path, capsys, trotter):
    # the noise study replays fixed-length circuits; "reference" (also the
    # default when the trotter block is missing) is refused, not rewritten
    cfg = json.loads(json.dumps(NOISE_PRESET))
    cfg["time_grid"] = {"t_max": 0.1, "dt": 0.05}
    if trotter is None:
        del cfg["trotter"]
    else:
        cfg["trotter"] = trotter
    rc = main(["noise", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "fixed" in capsys.readouterr().err
    assert not (tmp_path / "noise_manifest.json").exists()


@pytest.mark.parametrize(
    "shots",
    [
        pytest.param({}, id="absent"),
        pytest.param({"shots": 0}, id="zero"),
        pytest.param({"shots": 1, "initial_state": ["10", "01"]}, id="below-mixture"),
    ],
)
def test_cmd_noise_rejects_too_few_shots(tmp_path, capsys, shots):
    # the schema default shots = 0 means the statevector route, which the noise
    # study has not got; it is refused, not replaced by a hidden shot count
    cfg = json.loads(json.dumps(NOISE_PRESET))
    del cfg["shots"]
    cfg.update(shots, time_grid={"t_max": 0.1, "dt": 0.05})
    rc = main(["noise", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "shots" in capsys.readouterr().err
    assert not (tmp_path / "noise_manifest.json").exists()


def test_cmd_noise_off_equals_sampled(tmp_path):
    cfg = json.loads(json.dumps(NOISE_PRESET))
    cfg["shots"] = 5000
    cfg["time_grid"] = {"t_max": 0.1, "dt": 0.05}
    cfg["noise"] = {"readout": {"p01": 0.0, "p10": 0.0}, "p_dep": 0.0}
    rc = main(["noise", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)])
    assert rc == 0
    raw = GfSeries.from_csv(tmp_path / "gf_raw.csv")
    mit = GfSeries.from_csv(tmp_path / "gf_mitigated.csv")
    assert np.abs(raw.re - mit.re).max() < 1e-9
    assert np.abs(raw.im - mit.im).max() < 1e-9


@pytest.mark.parametrize("flips", [{"p01": 0.0, "p10": 0.1}, {"p01": 0.1, "p10": 0.0}], ids=["p10", "p01"])
def test_cmd_noise_calibrates_when_one_flip_is_set(tmp_path, flips):
    # either flip alone is noise to mitigate: the reference calibrated on the t = 0 biases
    # maps the observed Im bias to exactly 0, which the uncalibrated map would not.  The raw
    # Im bias is 0 only if exactly 2,500 of 5,000 shots read 0 at p = 0.55 or 0.45: 1.4e-13
    cfg = json.loads(json.dumps(NOISE_PRESET))
    cfg.update(shots=5000, time_grid={"t_max": 0.1, "dt": 0.05}, noise={"readout": flips, "p_dep": 0.0})
    assert main(["noise", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)]) == 0
    raw = GfSeries.from_csv(tmp_path / "gf_raw.csv")
    mit = GfSeries.from_csv(tmp_path / "gf_mitigated.csv")
    assert mit.im[0] == 0.0 != raw.im[0]


def test_seed_flag_overrides_config(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    assert main(["gf", "--config", cfg_path, "--out-dir", str(out1), "--seed", "99"]) == 0
    assert main(["gf", "--config", cfg_path, "--out-dir", str(out2)]) == 0
    s1 = GfSeries.from_csv(out1 / "gf.csv")
    s2 = GfSeries.from_csv(out2 / "gf.csv")
    assert s1.seed == 99 and s2.seed == 4
    assert not np.array_equal(s1.re, s2.re)


@pytest.mark.parametrize("route", ["exact", "fourier"])
def test_accuracy_off_the_fdm_route_rejected(tmp_path, capsys, route):
    # only the fdm route has a stencil; elsewhere the key would be ignored
    cfg = base_config(moments={"route": route, "order": 4, "accuracy": 2})
    rc = main(["moments", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "accuracy" in capsys.readouterr().err
    assert not (tmp_path / "moments_manifest.json").exists()


def test_odd_fdm_accuracy_rejected(tmp_path, capsys):
    # central stencils have even orders; an odd one failed only in the moments step
    cfg = base_config(shots=0, moments={"route": "fdm", "order": 4, "accuracy": 3})
    with pytest.raises(ConfigError, match="moments.accuracy"):
        RunConfig(cfg)
    assert main(["moments", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)]) == 2
    assert "moments.accuracy" in capsys.readouterr().err
    assert not (tmp_path / "moments_manifest.json").exists()


def noise_run(**overrides):
    """The noise preset on a two-point grid, with top-level keys replaced."""
    cfg = json.loads(json.dumps(NOISE_PRESET))
    cfg.update(time_grid={"t_max": 0.05, "dt": 0.05}, **overrides)
    return cfg


@pytest.mark.parametrize("command", ["gf", "noise"])
def test_shots_past_the_sampler_range_exit_2(tmp_path, capsys, command):
    # the binomial sampler draws a C long: 2**63 - 1 shots run, one more is a configuration error
    out = tmp_path / "out"
    top = write_config(tmp_path, noise_run(shots=2**63 - 1))
    assert main([command, "--config", top, "--out-dir", str(out)]) == 0
    (out / f"{command}_manifest.json").unlink()
    past = write_config(tmp_path, noise_run(shots=2**63), "past.json")
    assert main([command, "--config", past, "--out-dir", str(out)]) == 2
    assert "config.shots" in capsys.readouterr().err
    assert not list(out.glob("*_manifest.json"))


@pytest.mark.parametrize("command", ["gf", "noise"])
def test_shots_below_the_mixture_size_exit_2(tmp_path, capsys, command):
    # 3 shots over Hubbard-4's 6-member mixture: one refusal, in the schema, for every command
    cfg = noise_run(model={"kind": "hubbard", "sites": 4}, initial_state="default", shots=3)
    assert main([command, "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)]) == 2
    assert "config.shots = 3 leaves a member of the 6-member mixture no shot" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_manifest.json"))


def test_fdm_accuracy_round_trips_through_the_manifest(tmp_path):
    cfg = base_config(shots=0, moments={"route": "fdm", "order": 4, "accuracy": 4})
    assert main(["moments", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)]) == 0
    manifest = tmp_path / "moments_manifest.json"
    assert json.loads(manifest.read_text())["config"]["moments"] == {"route": "fdm", "order": 4, "accuracy": 4}
    assert RunConfig.from_file(manifest).fdm_accuracy == 4


def test_manifests_load_back(tmp_path):
    # resolved() writes moments.accuracy on the fdm route only, and the raw
    # model, time-grid and trotter blocks; each manifest must be a valid config
    cfg = base_config(krylov={"orders": [0, 1], "t_max": 1.0, "dt": 0.1})
    noise_cfg = json.loads(json.dumps(NOISE_PRESET))
    noise_cfg.update(shots=2000, time_grid={"t_max": 0.04, "dt": 0.02})
    path, noise_path = write_config(tmp_path, cfg), write_config(tmp_path, noise_cfg, "noise.json")
    for command, config in (("gf", path), ("moments", path), ("krylov", path), ("noise", noise_path)):
        assert main([command, "--config", config, "--out-dir", str(tmp_path)]) == 0
        manifest = tmp_path / f"{command}_manifest.json"
        again = RunConfig.from_file(manifest)
        assert again.resolved() == json.loads(manifest.read_text())["config"]


def test_cli_and_oracle_run_without_scipy(tmp_path):
    # a fresh interpreter, so no other test's import counts; scipy is a test dependency only, and
    # numpy.ma (which np.unique without return_inverse imports) is import time no route needs
    script = textwrap.dedent(
        """
        import sys
        import gfsim, gfsim.cli
        from gfsim.genfunc import gf_exact, gf_series
        from gfsim.models import HubbardModel, PairingModel, build_dense, initial_state, pairing_to_qubits
        from gfsim.moments import fourier_grid, spectral_peaks

        model = PairingModel.uniform(4, 2)
        h = pairing_to_qubits(model)
        center, radius = h.spectral_window
        trace = gf_exact(build_dense(h), initial_state(model), fourier_grid(radius))
        spectral_peaks(trace, energy_bound=radius, center=center)
        hubbard = HubbardModel(sites=4, hopping=1.0, onsite=4.0)
        gf_series(hubbard, initial_state(hubbard), [0.0, 0.1, 0.2], shots=100, seed=3)
        assert gfsim.cli.main(["noise", "--out-dir", sys.argv[1]]) == 0
        print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy" or name == "numpy.ma"))
        """
    )
    src = os.path.dirname(os.path.dirname(gfsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"  # after the noise command's own report


@pytest.mark.parametrize("seed", [-1, 2**32])
def test_seed_outside_32_bits_rejected(tmp_path, capsys, seed):
    # seeds are masked to 32 bits when child seeds are derived, so 2**32 would
    # alias seed 0; the --seed override goes through the same schema as the file
    cfg_path = write_config(tmp_path, base_config(seed=seed))
    assert main(["gf", "--config", cfg_path, "--out-dir", str(tmp_path)]) == 2
    assert main(["noise", "--seed", str(seed), "--out-dir", str(tmp_path)]) == 2
    assert "config.seed" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_manifest.json"))


@pytest.mark.parametrize("orders", [[], [True]], ids=["empty", "bool"])
def test_krylov_orders_must_be_a_nonempty_list_of_integers(tmp_path, capsys, orders):
    cfg = base_config(krylov={"orders": orders})
    with pytest.raises(ConfigError):
        RunConfig(cfg)
    assert main(["krylov", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)]) == 2
    assert "krylov.orders" in capsys.readouterr().err
    assert not (tmp_path / "krylov_manifest.json").exists()


def _noise_config():
    cfg = json.loads(json.dumps(NOISE_PRESET))
    cfg.update(shots=2000, time_grid={"t_max": 0.04, "dt": 0.02})
    return cfg


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("moments", base_config(shots=0, time_grid={"auto": True}, moments={"route": "fourier", "order": 6})),
        ("texpand", base_config(moments={"route": "exact", "order": 12}, texpansion={"order": 10})),
        ("krylov", base_config(krylov={"orders": [0, 1], "t_max": 2.0, "dt": 0.1})),
        ("noise", _noise_config()),
    ],
    ids=["moments", "texpand", "krylov", "noise"],
)
def test_rerun_from_manifest_identical(tmp_path, command, cfg):
    first, second = tmp_path / "a", tmp_path / "b"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out-dir", str(first)]) == 0
    manifest = first / f"{command}_manifest.json"
    assert main([command, "--config", str(manifest), "--out-dir", str(second)]) == 0
    outputs = json.loads(manifest.read_text())["outputs"]
    assert outputs and json.loads((second / f"{command}_manifest.json").read_text())["outputs"] == outputs
    for name in outputs:
        assert (first / name).read_bytes() == (second / name).read_bytes()
