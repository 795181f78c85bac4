"""The three benchmark workloads: `trace`, `chain` and `noise`.

Each workload builds its inputs from the benchmark seed in `setup`, yields its
operations one at a time from `ops` (a closed loop in one process, no worker
threads), and checks every output against the dense oracle or against the
acceptance criterion it comes from.  An op is (name, span, call, check):
`call()` runs it and `check(output)` returns an `Outcome`.

`instrument` wraps the module and class attributes that the traced pass
records, each with the counters its wrapper keeps.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from gfsim import cli, genfunc, krylov, models, moments, noise, texpand, trotter
from gfsim.config import NOISE_PRESET, RunConfig

# Criterion 1: share of sampled Re/Im points within 4 standard errors.
SIGMA_GATE = 4.0
SIGMA_SHARE = 0.99
TRACE_SHOTS = 10**4
# Criterion 3: Fourier moments to K = 21 within 1e-5 relative error.
FOURIER_ORDER = 21
FOURIER_TOL = 1e-5
# Criterion 10: mitigated/raw rms at most 0.3, mitigated F(0) within 3 sigma.
# The reference is calibrated on the raw F(0) it then corrects, so the F(0)
# check holds by construction; the checks that can fail compare the raw and
# mitigated series with the benchmark's own oracle, point by point.
RMS_RATIO_MAX = 0.3
F0_SIGMA = 3.0
# Krylov weights are normalized, so each order's weights sum to 1 up to rounding.
WEIGHT_SUM_TOL = 1e-9
# Oracle agreement of the FDM-branch statevector trace (first-order Trotter
# error, 1.4e-6 measured) and of the TDCE survival curve against the spectral
# one from the same Krylov matrices (RK4 error, 2.3e-8 measured).
FDM_GF_TOL = 1e-4
TDCE_SURVIVAL_TOL = 1e-6

# Controlled Trotter gates of one criterion-1 pass; they follow from steps_for
# and trotter_step alone, so every run must compute exactly these.
TRACE_GATES = {"pairing-8": 594_432, "hubbard-4": 99_840}

# Known method limit: the Krylov step of the FDM branch refuses the moments of
# a Trotterized statevector trace.  It counts as a failed op.
KNOWN_FAILURE = "initial state lost weight under the cutoff: sum q = 1.00027623"

KERNEL_KEYS = ("trotter.steps", "trotter.gates", "trotter.amp_bytes")
# spans of config, manifest and CSV I/O, each named after the module owning the format
IO_SPANS = ("cli.io", "genfunc.csv", "moments.csv", "texpand.csv", "krylov.csv")
LAYERS = ("models", "trotter", "genfunc", "noise", "moments", "texpand", "krylov", "cli")
COMMANDS = ("gf", "moments", "texpand", "krylov", "noise")


@dataclass
class Outcome:
    ok: bool
    detail: str = ""
    known: bool = False  # failed in the documented way


def kernel_counts(model, init, t_grid, policy="reference") -> dict[str, int]:
    """Controlled Trotter work of one gf_series call, from steps_for and trotter_step."""
    steps = gates = 0
    for t in t_grid:
        if t == 0:  # F(0) needs no evolution
            continue
        n = trotter.steps_for(model, float(t), policy)
        steps += n * len(init)
        gates += n * len(init) * len(trotter.trotter_step(model, float(t) / n).gates)
    # each gate reads and writes the full (system + ancilla) complex128 state
    amp_bytes = gates * 2 * 16 * 2 ** (model.n_qubits + 1)
    return {"trotter.steps": steps, "trotter.gates": gates, "trotter.amp_bytes": amp_bytes}


def run_cli(argv: list[str]) -> tuple[int, str]:
    """gfsim.cli.main(argv) with its console output captured; returns (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().strip()


def _relerr(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Workload:
    name = ""

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.accuracy: dict[str, float] = {}  # the workload's accuracy metrics
        self.computed: dict[str, int] = {}  # kernel work per pass, computed in setup
        self.csv_bytes = 0  # CSV output of the CLI commands in the current pass
        self.problems: list[str] = []  # self-check failures of the benchmark itself

    def setup(self):
        raise NotImplementedError

    def ops(self):
        raise NotImplementedError

    def end_pass(self, outcomes: dict[str, Outcome]):
        """Pass-level checks; may turn op outcomes into failures."""

    def instrument(self, tracer):
        instrument_common(tracer)

    # -- shared checks ---------------------------------------------------------

    def cli_check(self, result, out_dir: Path, command: str) -> Outcome:
        code, stderr = result
        if code != 0:
            return Outcome(False, f"exit {code}: {stderr}")
        manifest = json.loads((out_dir / f"{command}_manifest.json").read_text())
        self.csv_bytes += sum((out_dir / name).stat().st_size for name in manifest["outputs"] if name.endswith(".csv"))
        return Outcome(True)


class TraceWorkload(Workload):
    """Library gf_series, 10^4 shots, criterion-1 grid, pairing-8 and Hubbard-4."""

    name = "trace"

    def setup(self):
        self.grid = np.arange(0.0, 2.0001, 0.0625)
        seeds = np.random.SeedSequence(self.seed).generate_state(2)
        cases = (
            ("pairing-8", models.PairingModel.uniform(8, 4, 1.0, 1.0)),
            ("hubbard-4", models.HubbardModel(sites=4, hopping=1.0, onsite=1.0)),
        )
        self.cases = []
        self.computed = {key: 0 for key in KERNEL_KEYS}
        for (label, model), seed in zip(cases, seeds):
            init = models.initial_state(model)
            dense = models.build_dense(models.to_qubits(model))
            exact = genfunc.gf_exact(dense, init, self.grid)
            counts = kernel_counts(model, init, self.grid)
            if counts["trotter.gates"] != TRACE_GATES[label]:
                self.problems.append(f"{label}: computed {counts['trotter.gates']} gates, want {TRACE_GATES[label]}")
            for key in KERNEL_KEYS:
                self.computed[key] += counts[key]
            self.cases.append((label, model, init, int(seed), exact))

    def ops(self):
        self.within: dict[str, tuple[int, int]] = {}  # label -> (points inside the gate, points)
        for label, model, init, seed, exact in self.cases:
            call = partial(genfunc.gf_series, model, init, self.grid, "reference", shots=TRACE_SHOTS, seed=seed)
            yield label, "op.gf_series", call, partial(self.check, label, exact)

    def check(self, label, exact, series) -> Outcome:
        inside = total = 0
        for est, err, ref in ((series.re, series.re_err, exact.re), (series.im, series.im_err, exact.im)):
            inside += int(np.count_nonzero(np.abs(est - ref) <= SIGMA_GATE * err + 1e-15))
            total += ref.size
        self.within[label] = (inside, total)
        return Outcome(True, f"{inside}/{total} points within {SIGMA_GATE:g} sigma")

    def end_pass(self, outcomes):
        inside = sum(i for i, _ in self.within.values())
        total = sum(t for _, t in self.within.values())
        if not total:  # every op raised
            return
        share = inside / total
        self.accuracy["gf_within_4sigma"] = share
        if share < SIGMA_SHARE:
            for label, (i, t) in self.within.items():
                if i < t:
                    outcomes[label] = Outcome(False, f"pass share {share:.4f} < {SIGMA_SHARE}; {t - i} misses here")


class ChainWorkload(Workload):
    """CLI chain gf -> moments -> texpand -> krylov, Fourier and FDM branches, plus library TDCE."""

    name = "chain"

    def setup(self):
        fourier_cfg = {
            "model": {"kind": "pairing", "levels": 8, "pairs": 4, "delta_e": 1.0, "g": 1.0},
            "time_grid": {"auto": True},
            "seed": self.seed,
            "moments": {"route": "fourier", "order": FOURIER_ORDER},
            "krylov": {"orders": [0, 1, 2, 3, 4, 5, 6], "t_max": 8.0, "dt": 0.01},
        }
        fdm_cfg = {
            "model": {"kind": "pairing", "levels": 4, "pairs": 2, "delta_e": 1.0, "g": 1.0},
            "time_grid": {"t_max": 0.5, "dt": 0.005},
            "shots": 0,
            "seed": self.seed,
            "moments": {"route": "fdm", "order": 13},
        }
        self.dirs = {"fourier": self.out_dir / "fourier", "fdm": self.out_dir / "fdm"}
        self.configs = {}
        for branch, raw in (("fourier", fourier_cfg), ("fdm", fdm_cfg)):
            path = self.out_dir / f"{branch}.json"
            path.write_text(json.dumps(raw))
            self.configs[branch] = str(path)

        four = RunConfig.from_file(self.configs["fourier"])
        dense = models.build_dense(models.to_qubits(four.model))
        self.oracle_moments = moments.moments_exact(dense, four.init, FOURIER_ORDER).values
        self.e_gs = dense.ground_energy(four.init)
        self.tdce_grid = 0.01 * np.arange(801)

        fdm = RunConfig.from_file(self.configs["fdm"])
        dense_fdm = models.build_dense(models.to_qubits(fdm.model))
        self.fdm_exact = genfunc.gf_exact(dense_fdm, fdm.init, fdm.t_grid).values
        self.computed = kernel_counts(fdm.model, fdm.init, fdm.t_grid, fdm.trotter_policy)

    def ops(self):
        four, fdm = (_fresh_dir(self.dirs[b]) for b in ("fourier", "fdm"))
        cfg4, cfg_d = self.configs["fourier"], self.configs["fdm"]
        mom4, mom_d = str(four / "moments.csv"), str(fdm / "moments.csv")

        def cli_op(name, argv, check):
            return name, f"cli.{argv[0]}", partial(run_cli, argv), check

        yield cli_op(
            "fourier.moments", ["moments", "--config", cfg4, "--out-dir", str(four)], self.check_fourier_moments
        )
        yield cli_op(
            "fourier.texpand",
            ["texpand", "--config", cfg4, "--moments", mom4, "--out-dir", str(four)],
            partial(self.check_texpand, four),
        )
        yield cli_op(
            "fourier.krylov",
            ["krylov", "--config", cfg4, "--moments", mom4, "--out-dir", str(four)],
            partial(self.check_krylov, four),
        )
        yield "fourier.tdce", "op.tdce", partial(self.tdce, mom4), self.check_tdce
        yield cli_op("fdm.gf", ["gf", "--config", cfg_d, "--out-dir", str(fdm)], self.check_fdm_gf)
        yield cli_op(
            "fdm.moments",
            ["moments", "--config", cfg_d, "--series", str(fdm / "gf.csv"), "--out-dir", str(fdm)],
            partial(self.cli_check, out_dir=fdm, command="moments"),
        )
        yield cli_op(
            "fdm.texpand",
            ["texpand", "--config", cfg_d, "--moments", mom_d, "--out-dir", str(fdm)],
            partial(self.check_texpand, fdm),
        )
        yield cli_op(
            "fdm.krylov",
            ["krylov", "--config", cfg_d, "--moments", mom_d, "--out-dir", str(fdm)],
            partial(self.check_krylov, fdm),
        )

    def tdce(self, moments_csv):
        k = krylov.build_krylov_matrices(moments.MomentSet.from_csv(moments_csv), 4)
        return k, krylov.tdce_integrate(k, self.tdce_grid)

    def check_fourier_moments(self, result) -> Outcome:
        outcome = self.cli_check(result, self.dirs["fourier"], "moments")
        if not outcome.ok:
            return outcome
        values = moments.MomentSet.from_csv(self.dirs["fourier"] / "moments.csv").values
        rel = float((np.abs(values - self.oracle_moments) / np.abs(self.oracle_moments)).max())
        self.accuracy["moment_digits"] = -np.log10(rel)
        return Outcome(rel < FOURIER_TOL, f"max relative error {rel:.3e} for K <= {FOURIER_ORDER}")

    def check_texpand(self, out_dir, result) -> Outcome:
        outcome = self.cli_check(result, out_dir, "texpand")
        if not outcome.ok or out_dir != self.dirs["fourier"]:
            return outcome
        manifest = json.loads((out_dir / "texpand_manifest.json").read_text())
        if _relerr(manifest["oracle_ground_energy"], self.e_gs) > 1e-12:
            return Outcome(False, f"manifest oracle {manifest['oracle_ground_energy']!r} != {self.e_gs!r}")
        # criterion 5's method limit: reported, not gated
        self.accuracy["egs_relerr"] = manifest["asymptote_abs_error"] / abs(self.e_gs)
        return Outcome(True, f"asymptote relative error {self.accuracy['egs_relerr']:.3e}")

    def check_krylov(self, out_dir, result) -> Outcome:
        code, stderr = result
        if out_dir == self.dirs["fdm"] and code == 1 and KNOWN_FAILURE in stderr:
            return Outcome(False, stderr, known=True)
        outcome = self.cli_check(result, out_dir, "krylov")
        if not outcome.ok:
            return outcome
        table = np.loadtxt(out_dir / "krylov_eigs.csv", delimiter=",", skiprows=1, ndmin=2)
        for order in np.unique(table[:, 0]):
            rows = table[table[:, 0] == order]
            total = rows[:, 3].sum()
            if abs(total - 1.0) > WEIGHT_SUM_TOL:
                return Outcome(False, f"M={int(order)} weights sum to {total!r}")
        if out_dir == self.dirs["fourier"]:  # M=3 ground energy, reported, not gated
            ground = table[(table[:, 0] == 3) & (table[:, 1] == 0), 2][0]
            self.accuracy["krylov_relerr"] = _relerr(ground, self.e_gs)
        return Outcome(True)

    def check_tdce(self, result) -> Outcome:
        k, coeffs = result
        spectral = krylov.survival_probability(krylov.solve_generalized(k), self.tdce_grid)
        dev = float(np.abs(coeffs.survival(k) - spectral).max())
        return Outcome(dev <= TDCE_SURVIVAL_TOL, f"survival deviation {dev:.2e}, norm drift {coeffs.norm_drift:.2e}")

    def check_fdm_gf(self, result) -> Outcome:
        outcome = self.cli_check(result, self.dirs["fdm"], "gf")
        if not outcome.ok:
            return outcome
        series = genfunc.GfSeries.from_csv(self.dirs["fdm"] / "gf.csv")
        dev = float(np.abs(series.values - self.fdm_exact).max())
        return Outcome(dev <= FDM_GF_TOL, f"max deviation from the oracle {dev:.2e}")


class NoiseWorkload(Workload):
    """`gfsim noise` on the builtin preset, seeded by the benchmark seed."""

    name = "noise"

    def setup(self):
        self.dir = self.out_dir / "noise"
        cfg = RunConfig(json.loads(json.dumps(NOISE_PRESET)))
        dense = models.build_dense(models.to_qubits(cfg.model))
        self.exact = genfunc.gf_exact(dense, cfg.init, cfg.t_grid).values

    def ops(self):
        out = _fresh_dir(self.dir)
        argv = ["noise", "--seed", str(self.seed), "--out-dir", str(out)]
        yield "noise", "cli.noise", partial(run_cli, argv), self.check

    def check(self, result) -> Outcome:
        outcome = self.cli_check(result, self.dir, "noise")
        if not outcome.ok:
            return outcome
        manifest = json.loads((self.dir / "noise_manifest.json").read_text())
        raw, mitigated = (genfunc.GfSeries.from_csv(self.dir / f"gf_{name}.csv") for name in ("raw", "mitigated"))
        raw_dev, mit_dev = (np.abs(series.values - self.exact) for series in (raw, mitigated))
        ratio = float(np.sqrt(np.mean(mit_dev**2) / np.mean(raw_dev**2)))
        self.accuracy["rms_ratio"] = ratio
        reported = manifest["rms_mitigated"] / manifest["rms_raw"]
        worse = int(np.count_nonzero(mit_dev > raw_dev))
        f0_ok = (
            abs(mitigated.re[0] - 1.0) <= F0_SIGMA * mitigated.re_err[0]
            and abs(mitigated.im[0]) <= F0_SIGMA * mitigated.im_err[0]
        )
        detail = f"rms ratio {ratio:.4f} (manifest {reported:.4f}), {worse} points farther from the oracle mitigated, "
        detail += f"F(0) = ({mitigated.re[0]:.5f}, {mitigated.im[0]:.5f})"
        ok = ratio <= RMS_RATIO_MAX and _relerr(reported, ratio) <= 1e-9 and worse == 0 and f0_ok
        return Outcome(ok, detail)

    def instrument(self, tracer):
        instrument_common(tracer)

        def shots(result, args, kwargs):
            tracer.count("noise.shots", args[3])

        def replay(index):
            def hook(result, args, kwargs):
                circuit = args[index]
                controlled = sum(1 for item in circuit.gates if item.control is not None)
                tracer.count("noise.circuit_replays")
                tracer.count("trotter.steps", circuit.n_steps)
                tracer.count("trotter.gates", controlled)
                tracer.count("trotter.amp_bytes", controlled * 2 * 16 * 2**circuit.n_qubits)

            return hook

        tracer.wrap(cli, "noisy_sample", "noise.noisy_sample", shots)
        # clean final state and error replays: the kernel, used one circuit at a time
        tracer.wrap(trotter.Circuit, "apply", "trotter.circuit_apply", replay(0))
        tracer.wrap(noise, "_run_with_errors", "trotter.replay_with_errors", replay(1))


WORKLOADS = {w.name: w for w in (TraceWorkload, ChainWorkload, NoiseWorkload)}


def instrument_common(tracer):
    def dense_dim(result, args, kwargs):
        tracer.record_max("models.dense_dim", result.matrix.shape[0])

    def kernel(result, args, kwargs):
        state, model, t, n_steps = args[:4]
        gates = n_steps * len(trotter.trotter_step(model, t / n_steps).gates)
        tracer.count("trotter.steps", n_steps)
        tracer.count("trotter.gates", gates)
        tracer.count("trotter.amp_bytes", gates * 2 * 16 * state.amplitudes.size)

    def points(result, args, kwargs):
        tracer.count("genfunc.points", len(args[2]))

    def peaks(result, args, kwargs):
        tracer.count("moments.peaks", result.diagnostics["n_peaks"])
        tracer.count("moments.trace_len", args[0].t.size)

    def trace_len(result, args, kwargs):
        tracer.count("moments.trace_len", args[0].t.size)

    def pade(result, args, kwargs):
        log = result[2]
        tracer.count("texpand.pade_candidates", len(log))
        tracer.count("texpand.pade_accepted", sum(r.accepted for r in log))

    def retained(result, args, kwargs):
        tracer.record_max("krylov.retained_dim", result.retained_dim)

    def drift(result, args, kwargs):
        tracer.record_max("krylov.tdce_norm_drift", result.norm_drift)

    for owner in (models, cli):
        tracer.wrap(owner, "build_dense", "models.build_dense", dense_dim)
    tracer.wrap(genfunc, "controlled_evolve", "trotter.controlled_evolve", kernel)
    for owner in (genfunc, cli):
        tracer.wrap(owner, "gf_series", "genfunc.gf_series", points)
        tracer.wrap(owner, "gf_exact", "genfunc.gf_exact")
    tracer.wrap(genfunc, "sample_ancilla", "genfunc.sample_ancilla")
    tracer.wrap(cli, "hadamard_test_circuit", "genfunc.hadamard_test_circuit")
    tracer.wrap(cli, "spectral_peaks", "moments.spectral_peaks", peaks)
    tracer.wrap(cli, "moments_fdm", "moments.fdm", trace_len)
    tracer.wrap(cli, "moments_fourier", "moments.fourier")
    tracer.wrap(cli, "extrapolate_ground_energy", "texpand.extrapolate", pade)
    tracer.wrap(cli, "imaginary_time_oracle", "texpand.oracle")
    tracer.wrap(cli, "build_krylov_matrices", "krylov.build")
    tracer.wrap(cli, "solve_generalized", "krylov.solve", retained)
    tracer.wrap(cli, "survival_probability", "krylov.survival")
    tracer.wrap(krylov, "tdce_integrate", "krylov.tdce", drift)
    for attr in ("mitigate_readout", "calibrate_reference", "mitigate_series"):
        tracer.wrap(cli, attr, "noise.mitigate")
    tracer.wrap(cli.RunConfig, "from_file", "cli.io")
    tracer.wrap(cli, "_write_manifest", "cli.io")
    tracer.wrap(genfunc.GfSeries, "to_csv", "genfunc.csv")
    tracer.wrap(genfunc.GfSeries, "from_csv", "genfunc.csv")
    tracer.wrap(moments.MomentSet, "to_csv", "moments.csv")
    tracer.wrap(moments.MomentSet, "from_csv", "moments.csv")
    tracer.wrap(texpand.EnergyCurve, "to_csv", "texpand.csv")
    tracer.wrap(cli, "eigen_table_csv", "krylov.csv")
    tracer.wrap(cli, "survival_csv", "krylov.csv")


def run_pass(workload, tracer):
    """One pass over the workload's ops; returns (wall, {op: seconds}, {op: Outcome})."""
    workload.csv_bytes = 0
    times, outcomes = {}, {}
    for name, span, call, check in workload.ops():
        tracer.op += 1
        start = time.perf_counter()
        with tracer.span(span):
            try:
                output = call()
            except Exception as exc:  # an op that raises is a failed op; the run goes on
                output = exc
        times[name] = time.perf_counter() - start
        with tracer.paused():
            if isinstance(output, Exception):
                outcomes[name] = Outcome(False, f"raised {type(output).__name__}: {output}")
            else:
                try:
                    outcomes[name] = check(output)
                except Exception as exc:  # unreadable output fails the op
                    outcomes[name] = Outcome(False, f"check raised {type(exc).__name__}: {exc}")
    workload.end_pass(outcomes)
    return sum(times.values()), times, outcomes


def layer_metrics(tracer, workload, first_op: int, overhead: float) -> dict[str, float]:
    """Per-layer metrics of the traced pass (ops numbered from first_op).

    models.build_dense_s is the median build over set-up and the traced pass;
    the kernel counts are the computed ones where the workload has them, and
    must then equal what the wrappers counted.
    """
    spans = [s for s in tracer.spans if s[4] >= first_op]

    def total(*names):
        return sum(end - start for name, start, end, _, _ in spans if name in names)

    counts, maxima = tracer.counts, tracer.maxima
    for key in KERNEL_KEYS:
        if key in workload.computed and counts.get(key, 0) != workload.computed[key]:
            workload.problems.append(f"{key}: counted {counts.get(key, 0)}, computed {workload.computed[key]}")
    kernel = {key: workload.computed.get(key, counts.get(key, 0)) for key in KERNEL_KEYS}
    builds = [end - start for name, start, end, _, _ in tracer.spans if name == "models.build_dense"]
    self_times = tracer.self_times(first_op)
    candidates = counts.get("texpand.pade_candidates", 0)
    metrics = {
        "models.build_dense_s": statistics.median(builds) if builds else 0.0,
        "models.dense_dim": maxima.get("models.dense_dim", 0),
        "trotter.steps": kernel["trotter.steps"],
        "trotter.gates": kernel["trotter.gates"],
        "trotter.gate_us": 1e6 * self_times.get("trotter", 0.0) / kernel["trotter.gates"] if kernel["trotter.gates"] else 0.0,
        "trotter.amp_bytes": kernel["trotter.amp_bytes"],
        "genfunc.gf_series_s": total("genfunc.gf_series"),
        "genfunc.points": counts.get("genfunc.points", 0),
        "genfunc.sample_s": total("genfunc.sample_ancilla"),
        "genfunc.gf_exact_s": total("genfunc.gf_exact"),
        "genfunc.csv_s": total("genfunc.csv"),
        "noise.noisy_sample_s": total("noise.noisy_sample"),
        "noise.shots": counts.get("noise.shots", 0),
        "noise.circuit_replays": counts.get("noise.circuit_replays", 0),
        "noise.mitigate_s": total("noise.mitigate"),
        "moments.spectral_peaks_s": total("moments.spectral_peaks"),
        "moments.peaks": counts.get("moments.peaks", 0),
        "moments.trace_len": counts.get("moments.trace_len", 0),
        "moments.fdm_s": total("moments.fdm"),
        "texpand.extrapolate_s": total("texpand.extrapolate"),
        "texpand.pade_candidates": candidates,
        "texpand.pade_admissible": counts.get("texpand.pade_accepted", 0) / candidates if candidates else 0.0,
        "krylov.solve_s": total("krylov.solve"),
        "krylov.retained_dim": maxima.get("krylov.retained_dim", 0),
        "krylov.tdce_s": total("krylov.tdce"),
        "krylov.tdce_norm_drift": maxima.get("krylov.tdce_norm_drift", 0.0),
        "cli.io_s": total(*IO_SPANS),
        "cli.csv_bytes": workload.csv_bytes,
        "trace.overhead_s": overhead,
    }
    metrics.update({f"cli.{command}_s": total(f"cli.{command}") for command in COMMANDS})
    metrics.update({f"{layer}.self_s": self_times.get(layer, 0.0) for layer in LAYERS})
    return metrics
