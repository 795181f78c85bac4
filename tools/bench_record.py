"""Record a parent/change benchmark comparison as BENCH_<n>.json.

    python3 tools/bench_record.py PARENT CHANGE --out BENCH_16.json

PARENT and CHANGE are two checkouts of this repository, each with its own
perfbench/ and src/.  For every workload in CHANGE's BENCHMARK.json and every
seed 1..10, the recorder runs `python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0` once in each checkout, one after the other, with the
side that runs first alternating from seed to seed; T is BENCHMARK.json's
`run_seconds`.  It then times the Tier-1 suite (`python -m pytest -q -p
no:cacheprovider --continue-on-collection-errors`) in two alternating pairs,
parent first in the first pair and the change first in the second, and
records every run and the median wall time per side.

Per side and workload the file holds the median and interquartile range of
every end-to-end metric, the accuracy fingerprints and `fail_frac` that
run.py reports, whether each run was correct, and the `provenance` block of
the first run.  Per workload it holds, for each end-to-end metric, the number
of seeds on which the change read better than the parent, the relative change
of the median, (change - parent) / parent, and a verdict against the metric's
BENCHMARK.json `bound` (a fraction of the parent's median):

* `better` when every change run beats every parent run, or when the change
  wins at least 9 in 10 pairs and its median beats the parent's by more than
  the parent's IQR;
* otherwise `unresolved` when the parent's IQR exceeds the bound, since a
  regression that size could not be seen;
* otherwise `worse` when the median is worse by more than the bound, and
  `within bound` when it is not.

A run that exits non-zero is recorded under `failed` with its seed, exit code
and the tail of its stderr, counts as not correct, and leaves its seed's pair
out of the counts; the recording goes on.  Runs go one at a time, so the machine's load
is the only other contender: `os.getloadavg()` is recorded just before and just
after every run, perfbench and Tier-1 alike.

The file says which commits it compares through each side's `provenance.git_sha`,
which run.py reads with `git rev-parse` in its checkout.  So both checkouts must be
git clones, not exported trees: when either side's first successful run has no
commit id, the recorder stops after that workload and writes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

SEEDS = list(range(1, 11))
TIER1_PAIRS = 2


def perfbench(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict | None]:
    """One untraced run.py: its last-line result and its report line, or its failure and None if it exited non-zero."""
    load = {"before": os.getloadavg()}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    load["after"] = os.getloadavg()
    if proc.returncode:
        return {"seed": seed, "exit_code": proc.returncode, "stderr_tail": proc.stderr[-2000:], "loadavg": load}, None
    lines = proc.stdout.splitlines()
    report = next(json.loads(line[len("report ") :]) for line in lines if line.startswith("report "))
    return {**json.loads(lines[-1]), "loadavg": load}, report


def tier1(checkout: Path) -> dict:
    """Wall time, summary line and load averages before and after of one Tier-1 run."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    load = {"before": os.getloadavg()}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"],
        cwd=checkout,
        capture_output=True,
        text=True,
        env=env,
    )
    wall = time.perf_counter() - start
    load["after"] = os.getloadavg()
    summary = re.findall(r"^=*\s*(\d+ (?:passed|failed).*?)\s*=*$", proc.stdout, re.MULTILINE)
    return {"wall_s": wall, "summary": summary[-1] if summary else None, "returncode": proc.returncode, "loadavg": load}


def tier1_pairs(sides: dict[str, Path]) -> dict:
    """Tier-1 runs in alternating pairs (parent first in even pairs): every run, and the median wall time per side."""
    runs = {side: [] for side in sides}
    for pair in range(TIER1_PAIRS):
        for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            runs[side].append(tier1(sides[side]))
            print(f"tier1 pair={pair} {side}: {runs[side][-1]['wall_s']:.2f} s", flush=True)
    return {side: {"median_wall_s": statistics.median(r["wall_s"] for r in rs), "runs": rs} for side, rs in runs.items()}


def spread(values: list[float]) -> dict:
    if len(values) < 2:  # too few runs succeeded for quartiles
        return {"values": values}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "iqr": q3 - q1, "q1": q1, "q3": q3, "values": values}


def verdict(parent: dict, change: dict, bound: float, lower_is_better: bool, better_pairs: int, pairs: int) -> str:
    """The verdict of one end-to-end metric from both sides' spreads (see the module docstring)."""
    if "median" not in parent or "median" not in change:
        return "unresolved"
    sign = 1.0 if lower_is_better else -1.0  # sign * value is lower when better
    gain = sign * (parent["median"] - change["median"])
    every_run_better = max(sign * v for v in change["values"]) < min(sign * v for v in parent["values"])
    if every_run_better or (better_pairs >= 0.9 * pairs and gain > parent["iqr"]):
        return "better"
    if parent["iqr"] > bound * abs(parent["median"]):
        return "unresolved"
    return "worse" if -gain > bound * abs(parent["median"]) else "within bound"


def side_summary(runs: list[tuple[dict, dict | None]], end_to_end: list[dict]) -> dict:
    results = [result for result, report in runs if report is not None]
    reports = [report for _, report in runs if report is not None]
    accuracy = {}
    for report in reports:
        for name, item in report["accuracy"].items():
            accuracy.setdefault(name, []).append(item["value"])
    return {
        **{m["name"]: spread([r["metrics"][m["name"]]["value"] for r in results]) for m in end_to_end},
        "accuracy": {name: {"median": statistics.median(v), "values": v} for name, v in accuracy.items()},
        "fail_frac": [report["fail_frac"]["value"] for report in reports],
        "correct": [report is not None and result["correct"] for result, report in runs],
        "failed": [result for result, report in runs if report is None],
        "loadavg": [result["loadavg"] for result, _ in runs],
        "provenance": reports[0]["provenance"] if reports else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    end_to_end = spec["end_to_end"]
    seconds = spec["run_seconds"]

    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"parent": [], "change": []}
        for seed in SEEDS:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                result, report = perfbench(sides[side], workload, seed, seconds)
                runs[side].append((result, report))
                if report is None:
                    print(f"{workload} seed={seed} {side}: exit {result['exit_code']}", flush=True)
                else:
                    wall = result["metrics"]["wall_s"]["value"]
                    print(f"{workload} seed={seed} {side}: wall_s {wall:.4f}", flush=True)
        summary = {side: side_summary(runs[side], end_to_end) for side in ("parent", "change")}
        unknown = [side for side in summary if not (summary[side]["provenance"] or {}).get("git_sha")]
        if unknown:
            names = " and ".join(unknown)
            print(f"{workload}: no git_sha in the provenance of {names}; not writing {args.out}", file=sys.stderr)
            return 1
        better, relative, verdicts = {}, {}, {}
        for m in end_to_end:
            name, sign = m["name"], (1 if m["better"] == "lower" else -1)
            pairs = [(p, c) for (p, p_ok), (c, c_ok) in zip(runs["parent"], runs["change"]) if p_ok and c_ok]
            values = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs]
            better[name] = sum(sign * (p - c) > 0 for p, c in values)
            parent, change = summary["parent"][name], summary["change"][name]
            if "median" in parent and "median" in change:
                relative[name] = (change["median"] - parent["median"]) / parent["median"]
            verdicts[name] = verdict(parent, change, m["bound"], m["better"] == "lower", better[name], len(pairs))
        workloads[workload] = {
            "seeds": SEEDS,
            "first_side": ["parent" if seed % 2 else "change" for seed in SEEDS],
            **summary,
            "change_better_pairs": better,
            "relative_change": relative,
            "verdict": verdicts,
        }
        print(f"{workload}: {verdicts}", flush=True)

    record = {
        "harness": f"perfbench/run.py --seconds {seconds:g} --trace 0, each checkout's own copy",
        "order": "per seed one run on each side; the parent runs first on odd seeds, the change on even ones",
        "workloads": workloads,
        "tier1": tier1_pairs(sides),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
