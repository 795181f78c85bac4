"""Print a sha256 of each output of a fixed set of gfsim runs, one `name hash` line each.

    python3 tools/output_hashes.py ROOT

ROOT is a checkout of this repository; gfsim is imported from ROOT/src.  Run
it on two checkouts and diff the printouts to see whether a change moved an
output by a single bit.  The 47 outputs are:

* 12 `gf_series` traces on the criterion-1 grid (t = 0..2 step 0.0625) of
  pairing-8, Hubbard-4 and Hubbard-3: statevector, sampled with 3,001 and
  with 10^4 shots, and statevector with a fixed 3-step policy.  Each hash
  covers the five columns' float64 bytes, the shot total, route and model.
* 9 files of the CLI chain on the benchmark's configs: the Fourier branch's
  moments, energy curve, Pade report, Krylov table and survival curve, and
  the FDM branch's gf, moments, energy curve and Pade report (its Krylov
  step fails by design and writes nothing).
* 18 of `gfsim noise --seed 1..3`: the three CSVs of each seed, and its
  manifest's `rms_raw`, `rms_mitigated` and `calibration_clipped`.
* 6 of `gfsim noise --seed 1` on Hubbard-3's 3-member mixture (2 fixed
  steps, p_dep 0.01, flips 0.03 and 0.06): the same three CSVs and three
  manifest values.
* 2 of the noise route's exact probabilities, the float64 bytes of
  `noise._coherence_p0`'s Re and Im p0 on that run's grid (t = 0..0.4 step
  0.05, 2 fixed steps, p_dep 0.01), for pairing-4 (N=2) and Hubbard-3's first
  member.  A last-ulp change in p0 almost never moves a binomial draw, so
  the noise CSVs alone cannot see it.

Manifests are not hashed whole, as they carry wall-clock times.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

GRID = np.arange(0.0, 2.0001, 0.0625)
SEED = 7

FOURIER_CONFIG = {
    "model": {"kind": "pairing", "levels": 8, "pairs": 4, "delta_e": 1.0, "g": 1.0},
    "time_grid": {"auto": True},
    "seed": 1,
    "moments": {"route": "fourier", "order": 21},
    "krylov": {"orders": [0, 1, 2, 3, 4, 5, 6], "t_max": 8.0, "dt": 0.01},
}
FDM_CONFIG = {
    "model": {"kind": "pairing", "levels": 4, "pairs": 2, "delta_e": 1.0, "g": 1.0},
    "time_grid": {"t_max": 0.5, "dt": 0.005},
    "shots": 0,
    "seed": 1,
    "moments": {"route": "fdm", "order": 13},
}
NOISE_CONFIG = {
    "model": {"kind": "hubbard", "sites": 3, "hopping": 1.0, "onsite": 1.3},
    "time_grid": {"t_max": 0.4, "dt": 0.05},
    "shots": 30000,
    "trotter": {"policy": "fixed", "n_steps": 2},
    "noise": {"readout": {"p01": 0.03, "p10": 0.06}, "p_dep": 0.01},
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def import_gfsim(root: Path):
    """Import gfsim from ROOT/src, never from an installed copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import gfsim

    if Path(gfsim.__file__).resolve().parent != src / "gfsim":
        sys.exit(f"output_hashes: imported gfsim from {gfsim.__file__}, not from {src}")


def traces():
    from gfsim.genfunc import gf_series
    from gfsim.models import HubbardModel, PairingModel, initial_state

    models = {
        "pairing-8": PairingModel.uniform(8, 4, 1.0, 1.0),
        "hubbard-4": HubbardModel(sites=4, hopping=1.0, onsite=1.0),
        "hubbard-3": HubbardModel(sites=3, hopping=1.0, onsite=1.3),
    }
    runs = {"statevector": ("reference", 0), "shots-3001": ("reference", 3001), "shots-10000": ("reference", 10**4)}
    runs["fixed-3"] = (3, 0)
    for label, model in models.items():
        init = initial_state(model)
        for run, (policy, shots) in runs.items():
            s = gf_series(model, init, GRID, policy, shots=shots, seed=SEED)
            columns = np.stack([s.t, s.re, s.im, s.re_err, s.im_err]).astype(float).tobytes()
            yield f"gf_series/{label}/{run}", sha(columns + f"{s.shots},{s.route},{s.model}".encode())


def cli_run(argv) -> int:
    from gfsim import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def chain(work: Path):
    for branch, config in (("fourier", FOURIER_CONFIG), ("fdm", FDM_CONFIG)):
        out = work / branch
        path = work / f"{branch}.json"
        path.write_text(json.dumps(config))
        common = ["--config", str(path), "--out-dir", str(out)]
        moments = ["--moments", str(out / "moments.csv")]
        if branch == "fdm":
            cli_run(["gf", *common])
            cli_run(["moments", *common, "--series", str(out / "gf.csv")])
        else:
            cli_run(["moments", *common])
        cli_run(["texpand", *common, *moments])
        cli_run(["krylov", *common, *moments])
        names = ["gf.csv"] if branch == "fdm" else []
        names += ["moments.csv", "energy_curve.csv", "pade_selection.txt"]
        names += ["krylov_eigs.csv", "survival.csv"] if branch == "fourier" else []
        for name in names:
            file = out / name
            yield f"chain/{branch}/{name}", sha(file.read_bytes()) if file.is_file() else "missing"


def noise(work: Path):
    path = work / "noise-hubbard-3.json"
    path.write_text(json.dumps(NOISE_CONFIG))
    runs = [(f"noise/{seed}", ["--seed", str(seed)]) for seed in (1, 2, 3)]
    runs.append(("noise/hubbard-3/1", ["--config", str(path), "--seed", "1"]))
    for label, args in runs:
        out = work / label.replace("/", "-")
        cli_run(["noise", *args, "--out-dir", str(out)])
        for name in ("gf_exact.csv", "gf_raw.csv", "gf_mitigated.csv"):
            file = out / name
            yield f"{label}/{name}", sha(file.read_bytes()) if file.is_file() else "missing"
        manifest = out / "noise_manifest.json"
        values = json.loads(manifest.read_text()) if manifest.is_file() else {}
        for key in ("rms_raw", "rms_mitigated", "calibration_clipped"):
            yield f"{label}/{key}", sha(repr(values.get(key)).encode())


def noise_p0():
    from gfsim.models import HubbardModel, PairingModel, initial_state
    from gfsim.noise import _coherence_p0

    times = NOISE_CONFIG["time_grid"]["dt"] * np.arange(9)
    models = {
        "pairing-4": PairingModel.uniform(4, 2, 1.0, 1.0),
        "hubbard-3": HubbardModel(sites=3, hopping=1.0, onsite=1.3),
    }
    for label, model in models.items():
        member = initial_state(model).members[0]
        p0 = _coherence_p0(member, model, times, NOISE_CONFIG["trotter"]["n_steps"], NOISE_CONFIG["noise"]["p_dep"])
        yield f"noise_p0/{label}", sha(np.stack(p0).astype(float).tobytes())


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    import_gfsim(Path(sys.argv[1]))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, digest in (*traces(), *chain(work), *noise(work), *noise_p0()):
            print(name, digest)


if __name__ == "__main__":
    main()
