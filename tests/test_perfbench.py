"""Contract between gfsim and the benchmark in perfbench/.

The traced benchmark pass replaces the gfsim attributes each workload's
`instrument` names with spanned wrappers and puts them back afterwards.  A
rename or removal of any of them breaks `--trace 1`; these tests catch it
without running a workload (no set-up, no ops), and check that the dense
oracle the workloads build in set-up still offers what they read from it.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from gfsim import models
from gfsim.genfunc import gf_exact
from gfsim.models import HubbardModel, PairingModel, initial_state, to_qubits
from gfsim.moments import moments_exact

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


ORACLE_MODELS = {  # the dense oracles the trace and chain workloads build in set-up
    "pairing-8": PairingModel.uniform(8, 4, 1.0, 1.0),
    "hubbard-4": HubbardModel(sites=4, hopping=1.0, onsite=1.0),
    "pairing-4": PairingModel.uniform(4, 2, 1.0, 1.0),
}


@pytest.mark.parametrize("label", list(ORACLE_MODELS))
def test_dense_oracle_surface_the_workloads_read(label):
    # the traced pass records models.dense_dim from result.matrix.shape[0]
    model = ORACLE_MODELS[label]
    init = initial_state(model)
    dense = models.build_dense(to_qubits(model))
    assert dense.matrix.shape == (2**model.n_qubits, 2**model.n_qubits)
    series = gf_exact(dense, init, np.arange(0.0, 1.0, 0.25))
    assert series.values[0] == pytest.approx(1.0, abs=1e-12)
    assert moments_exact(dense, init, 4).values[0] == pytest.approx(1.0, abs=1e-12)
    assert dense.ground_energy(init) <= moments_exact(dense, init, 1).values[1]
