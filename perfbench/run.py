"""Benchmark of the gfsim pipeline: one workload per run, every output checked.

    python3 perfbench/run.py --workload {trace,chain,noise} --seed N --seconds S --trace {0,1}

Run from the repository root; gfsim is imported from ./src.  The workload's
inputs follow from --seed.  Ops run one at a time in this process (a closed
loop), in passes over the workload; another pass starts only while it is
expected to end within --seconds, and the first always runs.

--trace 0 reports the end-to-end metrics, measured without instrumentation:
  setup_s      process start to the first op (imports, config parsing, models,
               dense oracles)
  wall_s       median wall time of one pass over the workload's ops
  peak_rss_mb  peak resident memory of this process
--trace 1 adds one traced pass after the untraced ones and reports per-layer
metrics of that pass, from spans recorded around calls into gfsim; the spans
are written to .perfbench_out/spans-<workload>-<seed>.json.  trace.overhead_s
is the traced pass's wall time minus the median untraced one; where a run has a
single untraced pass (trace, noise), the pass-to-pass spread of wall_s swamps it.

Lines above the last one are a readable report (metrics by name and unit,
accuracy, fail_frac, per-op times and check results, provenance).  The last
line is the JSON result {"correct", "attempted", "failed", "metrics"}.
CLI outputs go to a scratch directory under .perfbench_out/ that is removed
when the run ends.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
ACCURACY_UNITS = {
    "gf_within_4sigma": "fraction",
    "moment_digits": "digits",
    "egs_relerr": "ratio",
    "krylov_relerr": "ratio",
    "rms_ratio": "ratio",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("trace", "chain", "noise"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def import_gfsim():
    """Import gfsim from this checkout's sources, never from an installed copy."""
    if not (SRC / "gfsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gfsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gfsim

    if Path(gfsim.__file__).resolve().parent != (SRC / "gfsim").resolve():
        sys.exit(f"perfbench: imported gfsim from {gfsim.__file__}, not from {SRC}")
    return gfsim


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, env=env
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, asked through its own API."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            getter = getattr(handle, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    gfsim = import_gfsim()
    import numpy
    import scipy

    from tracing import Tracer
    from workloads import WORKLOADS, layer_metrics, run_pass

    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = OUT / run_id
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    tracer = Tracer(run_id)
    workload = WORKLOADS[args.workload](args.seed, out_dir)
    try:
        if args.trace:
            workload.instrument(tracer)
            tracer.recording = True
        workload.setup()
        setup_s = time.perf_counter() - T0
        tracer.recording = False
        tracer.uninstall()

        walls, history = [], []
        start = time.perf_counter()
        while True:
            wall, times, outcomes = run_pass(workload, tracer)
            walls.append(wall)
            history.append((times, outcomes))
            if time.perf_counter() - start + statistics.median(walls) > args.seconds:
                break
        if args.trace:
            workload.instrument(tracer)
            tracer.counts.clear()
            first_op = tracer.op + 1
            tracer.recording = True
            traced_wall, times, outcomes = run_pass(workload, tracer)
            tracer.recording = False
            tracer.uninstall()
            history.append((times, outcomes))
            layers = layer_metrics(tracer, workload, first_op, traced_wall - statistics.median(walls))
            tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.json")
    finally:
        tracer.uninstall()
        shutil.rmtree(out_dir, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    all_outcomes = [o for _, outcomes in history for o in outcomes.values()]
    attempted = len(all_outcomes)
    failed = sum(not o.ok for o in all_outcomes)
    correct = not workload.problems and all(o.ok or o.known for o in all_outcomes)

    if args.trace:
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = layers
    else:
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"setup_s": setup_s, "wall_s": statistics.median(walls), "peak_rss_mb": rss_mb}
    if set(values) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(declared))} differ from BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}

    op_names = list(history[-1][0])
    report = {
        "workload": args.workload,
        "why": {w["name"]: w["why"] for w in spec["workloads"]}[args.workload],
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(history),
        "pass_wall_s": walls + ([traced_wall] if args.trace else []),
        "accuracy": {k: {"value": v, "unit": ACCURACY_UNITS[k]} for k, v in workload.accuracy.items()},
        "fail_frac": {"value": failed / attempted, "unit": "ratio"},
        "ops": {
            name: {
                "median_s": statistics.median(times[name] for times, _ in history if name in times),
                "failed": sum(not outcomes[name].ok for _, outcomes in history if name in outcomes),
                "known_failure": any(outcomes[name].known for _, outcomes in history if name in outcomes),
                "last_check": history[-1][1][name].detail,
            }
            for name in op_names
        },
        "self_check_problems": workload.problems,
        "computed_kernel_counts": workload.computed,
        "provenance": {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "gfsim": gfsim.__version__,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(),
        },
    }

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {len(history)} passes, {attempted} ops, {failed} failed")
    shown = {**metrics, **report["accuracy"], "fail_frac": report["fail_frac"]}
    for name, item in shown.items():
        print(f"  {name:<26} {item['value']:<14.6g} {item['unit']}")
    print("report " + json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
