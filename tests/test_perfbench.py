"""Contract between gfsim and the benchmark in perfbench/.

The traced benchmark pass replaces the gfsim attributes each workload's
`instrument` names with spanned wrappers and puts them back afterwards.  A
rename or removal of any of them breaks `--trace 1`; this test catches it
without running a workload (no set-up, no ops).
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module through sys.modules
    spec.loader.exec_module(module)
    return module


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


@pytest.mark.parametrize("name", ["trace", "chain", "noise"])
def test_instrument_wraps_gfsim_attributes_and_uninstall_restores_them(tmp_path, name):
    tracing, workloads = _load("tracing"), _load("workloads")
    tracer = tracing.Tracer("contract")
    workloads.WORKLOADS[name](seed=0, out_dir=tmp_path).instrument(tracer)
    patched = list(tracer._patched)
    assert patched
    try:
        for owner, attr, raw in patched:
            assert _current(owner, attr) is not raw, f"{owner.__name__}.{attr} not wrapped"
    finally:
        tracer.uninstall()
    for owner, attr, raw in patched:
        assert _current(owner, attr) is raw, f"{owner.__name__}.{attr} not restored"
