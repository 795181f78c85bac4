"""Batch command-line front end.

Subcommands: gf, moments, texpand, krylov, noise.  Every run writes its CSV
outputs plus a manifest (resolved config, tool version, seeds, input and
output hashes, timings); re-running a command from its manifest reproduces
the CSVs byte for byte.  Exit codes: 0 success, 1 runtime failure, 2 invalid
configuration, 3 no admissible rational approximant.

`main` does the steps every command shares: it starts the clock, loads the
config (--config, else the command's preset; --seed goes through the same
schema), creates the output directory, runs the command, writes the manifest
and prints the command's message.  Each `cmd_*(args, cfg, out_dir)` only
computes and writes its outputs, and returns (outputs, manifest extras,
message).  A configuration error writes no manifest.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import NOISE_PRESET, ConfigError, RunConfig
from .genfunc import GfSeries, gf_exact, gf_series
from .genfunc import hadamard_test_circuit  # noqa: F401  perfbench wraps this name until ROADMAP item 1
from .krylov import build_krylov_matrices, eigen_table_csv, solve_generalized, survival_csv, survival_probability
from .models import build_dense, to_qubits
from .moments import MomentSet, moments_exact, moments_fdm, moments_fourier, spectral_peaks
from .noise import calibrate_reference, mitigate_readout, mitigate_series, noisy_sample
from .statevector import SimulationError
from .texpand import PadeRejection, extrapolate_ground_energy, imaginary_time_oracle, selection_report


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(
    out_dir: Path, command: str, config: RunConfig, outputs: list[Path], t_start: float, extra=None, inputs=None
):
    manifest = {
        "command": command,
        "tool_version": __version__,
        "config": config.resolved(),
        "seed": config.seed,
        "inputs": {Path(p).name: _sha256(Path(p)) for p in (inputs or []) if p is not None},
        "outputs": {p.name: _sha256(p) for p in outputs},
        "wall_clock_seconds": round(time.time() - t_start, 3),
    }
    if extra:
        manifest.update(extra)
    path = out_dir / f"{command}_manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _load_config(args) -> RunConfig:
    """Config from --config, else a copy of the command's preset if it has one; --seed overrides the seed."""
    overrides = {} if args.seed is None else {"seed": args.seed}
    if args.config is not None:
        return RunConfig.from_file(args.config, **overrides)
    if args.preset is None:
        raise ConfigError("--config is required for this command")
    return RunConfig({**json.loads(json.dumps(args.preset)), **overrides})


def cmd_gf(args, cfg: RunConfig, out_dir: Path):
    series = gf_series(cfg.model, cfg.init, cfg.t_grid, cfg.trotter_policy, shots=cfg.shots, seed=cfg.seed)
    if cfg.overlay_exact:
        dense = build_dense(to_qubits(cfg.model))
        exact = gf_exact(dense, cfg.init, cfg.t_grid, model=cfg.model.fingerprint())
        series.extra["re_exact"] = exact.re
        series.extra["im_exact"] = exact.im
    out = out_dir / "gf.csv"
    series.to_csv(out)
    return [out], None, f"wrote {out} ({series.route}, {series.t.size} points, shots={series.shots})"


def _moments_from_config(cfg: RunConfig, series_path: str | None) -> MomentSet:
    if cfg.moment_route == "exact":
        dense = build_dense(to_qubits(cfg.model))
        mom = moments_exact(dense, cfg.init, cfg.moment_order)
        mom.source = cfg.model.fingerprint()
        return mom
    if series_path is not None:
        series = GfSeries.from_csv(series_path)
    else:
        dense = build_dense(to_qubits(cfg.model))
        series = gf_exact(dense, cfg.init, cfg.t_grid, model=cfg.model.fingerprint())
    if cfg.moment_route == "fdm":
        return moments_fdm(series, cfg.moment_order, accuracy=cfg.fdm_accuracy)
    center, radius = to_qubits(cfg.model).spectral_window
    spec = spectral_peaks(series, energy_bound=radius, center=center)
    mom = moments_fourier(spec, cfg.moment_order)
    mom.source = series.model
    return mom


def cmd_moments(args, cfg: RunConfig, out_dir: Path):
    mom = _moments_from_config(cfg, args.series)
    out = out_dir / "moments.csv"
    mom.to_csv(out)
    return [out], None, f"wrote {out} (route={mom.route}, order={mom.order})"


def cmd_texpand(args, cfg: RunConfig, out_dir: Path):
    if args.moments is not None:
        mom = MomentSet.from_csv(args.moments)
    else:
        mom = _moments_from_config(cfg, None)
    curve, approx, log = extrapolate_ground_energy(mom, cfg.texpansion_order)
    out = out_dir / "energy_curve.csv"
    curve.to_csv(out)
    report = out_dir / "pade_selection.txt"
    with open(report, "w", encoding="utf-8") as fh:
        fh.write(selection_report(log, approx))
        fh.write(f"asymptote {curve.asymptote!r}\n")
        fh.write(f"asymptote_grid_end {curve.asymptote_grid_end!r}\n")
    dense = build_dense(to_qubits(cfg.model))
    oracle = imaginary_time_oracle(dense, cfg.init, curve.tau)
    e_gs = dense.ground_energy(cfg.init)
    extra = {
        "oracle_ground_energy": e_gs,
        "asymptote_abs_error": abs(curve.asymptote - e_gs),
        "oracle_curve_max_abs_error": float(np.abs(curve.energy - oracle.energy).max()),
    }
    orders = approx.orders if approx is not None else None
    return [out, report], extra, f"wrote {out} (pade={orders}, asymptote={curve.asymptote:.8g})"


def cmd_krylov(args, cfg: RunConfig, out_dir: Path):
    needed = 2 * max(cfg.krylov_orders) + 1
    if args.moments is not None:
        mom = MomentSet.from_csv(args.moments)
    else:
        if cfg.moment_order < needed:
            cfg.moment_order = needed
        mom = _moments_from_config(cfg, None)
    if mom.order < needed:
        raise SimulationError(f"need moments through {needed} for the requested subspace orders")
    if mom.route == "fdm" and np.any(mom.errors[: needed + 1] > 1e-6 * np.abs(mom.values[: needed + 1])):
        print(
            "warning: finite-difference moments exceed 1e-6 relative error; Krylov output may be unreliable",
            file=sys.stderr,
        )

    solutions = {m: solve_generalized(build_krylov_matrices(mom, m)) for m in cfg.krylov_orders}
    eigen_out = out_dir / "krylov_eigs.csv"
    eigen_table_csv(eigen_out, solutions)

    t_grid = cfg.krylov_dt * np.arange(int(round(cfg.krylov_t_max / cfg.krylov_dt)) + 1)
    dense = build_dense(to_qubits(cfg.model))
    p_exact = survival_probability(dense.spectrum(cfg.init), t_grid)
    best = max(cfg.krylov_orders)
    p_approx = survival_probability(solutions[best], t_grid)
    survival_out = out_dir / "survival.csv"
    survival_csv(survival_out, t_grid, p_approx, p_exact)
    return [eigen_out, survival_out], None, f"wrote {eigen_out} and {survival_out} (orders {cfg.krylov_orders})"


def _noise_rms(series: GfSeries, exact: GfSeries) -> float:
    dev = np.concatenate([series.re - exact.re, series.im - exact.im])
    return float(np.sqrt(np.mean(dev**2)))


def cmd_noise(args, cfg: RunConfig, out_dir: Path):
    if cfg.noise is None:
        raise ConfigError("noise command needs a noise block in the config")
    if not isinstance(cfg.trotter_policy, int):
        raise ConfigError('noise command needs a fixed Trotter step count: {"policy": "fixed", "n_steps": N}')
    if cfg.shots == 0:
        raise ConfigError("noise command samples every circuit and needs config.shots > 0, got 0")

    model = cfg.model
    dense = build_dense(to_qubits(model))
    exact = gf_exact(dense, cfg.init, cfg.t_grid, model=model.fingerprint())

    members = len(cfg.init)
    per_member = cfg.shots // members
    estimates = np.zeros((2, cfg.t_grid.size))  # Re and Im, summed over the members in order
    for m_idx, (weight, member) in enumerate(zip(cfg.init.weights, cfg.init.members)):
        seeds = [(cfg.seed, m_idx, quad) for quad in (0, 1)]  # gf_series's streams
        biases = noisy_sample(member, model, cfg.t_grid, per_member, seeds, n_steps=cfg.trotter_policy, noise=cfg.noise)
        estimates += weight * biases
    total = per_member * members
    errs = np.sqrt(np.maximum(0.0, 1.0 - estimates**2) / total)
    raw = GfSeries(cfg.t_grid, *estimates, *errs, shots=total, route="noisy", model=model.fingerprint(), seed=cfg.seed)

    noise = cfg.noise
    if noise.p_dep == 0.0 and max(noise.p01, noise.p10) <= 1e-15:
        # nothing left to calibrate once the (identity) readout is inverted;
        # a measured calibration would only inject shot noise
        ref = calibrate_reference(1.0, 0.0)
        clipped = False
    else:
        re0, clipped_re = mitigate_readout(raw.re[0], noise)
        im0, clipped_im = mitigate_readout(raw.im[0], noise)
        ref = calibrate_reference(re0, im0)
        clipped = clipped_re or clipped_im
    mitigated = mitigate_series(raw, noise, ref)

    paths = []
    for name, series in (("gf_exact", exact), ("gf_raw", raw), ("gf_mitigated", mitigated)):
        path = out_dir / f"{name}.csv"
        series.to_csv(path)
        paths.append(path)
    rms_raw = _noise_rms(raw, exact)
    rms_mit = _noise_rms(mitigated, exact)
    extra = {"rms_raw": rms_raw, "rms_mitigated": rms_mit, "calibration_clipped": clipped}
    return paths, extra, f"rms raw={rms_raw:.6f} mitigated={rms_mit:.6f} ratio={rms_mit / rms_raw:.3f}"


@functools.cache  # parsing leaves the parser as it is, so one per process serves every main call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfsim",
        description="Hadamard-test generating-function runs and moment-based post-processing",
    )
    parser.add_argument("--version", action="version", version=f"gfsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run configuration (a run manifest is also accepted)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out-dir", default=".", help="output directory")
        p.set_defaults(preset=None)

    p_gf = sub.add_parser("gf", help="generating-function trace")
    common(p_gf)
    p_gf.set_defaults(func=cmd_gf)

    p_mom = sub.add_parser("moments", help="Hamiltonian moments from a model or series file")
    common(p_mom)
    p_mom.add_argument("--series", help="GfSeries CSV to post-process (fdm/fourier routes)")
    p_mom.set_defaults(func=cmd_moments)

    p_tex = sub.add_parser("texpand", help="ground-state energy extrapolation")
    common(p_tex)
    p_tex.add_argument("--moments", help="MomentSet CSV input (otherwise computed per config)")
    p_tex.set_defaults(func=cmd_texpand)

    p_kry = sub.add_parser("krylov", help="subspace eigenvalues and survival probability")
    common(p_kry)
    p_kry.add_argument("--moments", help="MomentSet CSV input (otherwise computed per config)")
    p_kry.set_defaults(func=cmd_krylov)

    p_noi = sub.add_parser("noise", help="noisy run with readout + reference mitigation")
    common(p_noi)
    p_noi.set_defaults(func=cmd_noise, preset=NOISE_PRESET)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t_start = time.time()
    try:
        cfg = _load_config(args)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs, extra, message = args.func(args, cfg, out_dir)
        inputs = [getattr(args, name, None) for name in ("series", "moments")]
        _write_manifest(out_dir, args.command, cfg, outputs, t_start, extra=extra, inputs=inputs)
        print(message)
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except PadeRejection as exc:
        print(f"no admissible approximant: {exc}", file=sys.stderr)
        return 3
    except (SimulationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
