"""tools/bench_record.py on two fake checkouts whose perfbench and Tier-1 runs are stubbed out."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
SPEC = {
    "run_seconds": 1,
    "workloads": [{"name": "chain"}],
    "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}],
}


@pytest.fixture
def recorder():
    spec = importlib.util.spec_from_file_location("bench_record", TOOLS / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checkouts(tmp_path, recorder, monkeypatch, shas):
    """Parent and change directories; each perfbench run reports its side's sha from `shas`."""
    for side in shas:
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(SPEC))

    def run(cmd, cwd, **kwargs):
        if "pytest" in cmd:
            return subprocess.CompletedProcess(cmd, 0, stdout="3 passed in 0.01s\n", stderr="")
        report = {"accuracy": {}, "fail_frac": {"value": 0.0}, "provenance": {"git_sha": shas[Path(cwd).name]}}
        result = {"correct": True, "metrics": {"wall_s": {"value": 0.5}}}
        return subprocess.CompletedProcess(cmd, 0, stdout=f"report {json.dumps(report)}\n{json.dumps(result)}\n", stderr="")

    monkeypatch.setattr(recorder.subprocess, "run", run)
    return [str(tmp_path / "parent"), str(tmp_path / "change")]


def test_records_load_averages_around_every_run(tmp_path, recorder, monkeypatch):
    argv = checkouts(tmp_path, recorder, monkeypatch, {"parent": "aaa", "change": "bbb"})
    out = tmp_path / "BENCH.json"
    assert recorder.main([*argv, "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    chain = record["workloads"]["chain"]
    assert [chain[side]["provenance"]["git_sha"] for side in ("parent", "change")] == ["aaa", "bbb"]
    loads = [load for side in ("parent", "change") for load in chain[side]["loadavg"]]
    loads += [run["loadavg"] for side in ("parent", "change") for run in record["tier1"][side]["runs"]]
    assert len(loads) == 2 * len(recorder.SEEDS) + 2 * recorder.TIER1_PAIRS
    assert all(len(load["before"]) == len(load["after"]) == 3 for load in loads)


@pytest.mark.parametrize("missing", ["parent", "change"])
def test_refuses_to_write_without_a_commit_id(tmp_path, recorder, monkeypatch, capsys, missing):
    shas = {"parent": "aaa", "change": "bbb"}
    shas[missing] = None
    argv = checkouts(tmp_path, recorder, monkeypatch, shas)
    out = tmp_path / "BENCH.json"
    assert recorder.main([*argv, "--out", str(out)]) == 1
    assert not out.exists()
    assert f"no git_sha in the provenance of {missing}" in capsys.readouterr().err
