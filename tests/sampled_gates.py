"""The statistics that Tier-1's stochastic gates read off sampled draws, and the gates' bounds.

A gate on sampled draws passes or fails with the stream its draws come from,
so a change of stream can fail it with the code unchanged.  Each gate here is
sized for a false-failure rate of at most 1e-3 over streams, and its test
states the measured rate and the gate's power against a named defect.
`python3 tools/stochastic_rates.py ROOT` recomputes both from these same
functions, over many seeds, with each defect patched in.

Every statistic calls gfsim through its module attributes (`genfunc.gf_series`,
`moments.spectral_peaks`, `noise.noisy_sample`, ...), so a patch of the module
reaches it.
"""

import functools
import json
from pathlib import Path

import numpy as np
from scipy.stats import binom, chi2

from gfsim import cli, genfunc, moments, noise
from gfsim.config import NOISE_PRESET, RunConfig
from gfsim.models import HubbardModel, PairingModel, build_dense, initial_state, pairing_to_qubits, to_qubits
from gfsim.statevector import SimulationError

# -- criterion 1: sampled traces against the dense oracle, pooled over both models and quadratures --

SIGMA_GATE = 4.0  # a point misses when |sampled - exact| > 4 standard errors
SHARE_MIN = 0.99  # of the 132 pooled points, so one miss passes and two fail
CHI2_MAX = 200.0  # sum of z^2 over the points with a nonzero error bar (131 here)
SIGNED_MAX = 3.9  # |sum of z| / sqrt(points): a bias of every point the same way


def sigma_statistics(pairs) -> tuple[int, int, float, float]:
    """(points, misses, chi2, signed) of (sampled, exact) GfSeries pairs, Re and Im of each.

    z = (sampled - exact) / error bar at each point whose bar is nonzero; a
    point with a zero bar (a bias of exactly +-1) misses when it is off at all.
    """
    points = misses = 0
    z = []
    for sampled, exact in pairs:
        for est, err, ref in ((sampled.re, sampled.re_err, exact.re), (sampled.im, sampled.im_err, exact.im)):
            misses += int(np.count_nonzero(np.abs(est - ref) > SIGMA_GATE * err + 1e-15))
            points += ref.size
            z.append((est - ref)[err > 0] / err[err > 0])
    z = np.concatenate(z)
    return points, misses, float(np.sum(z**2)), float(np.sum(z) / np.sqrt(z.size))


def criterion1_pairs(seed_pairing=101, seed_hubbard=202):
    """(sampled, exact) series of pairing-8 and Hubbard-4 on criterion 1's grid, 10^4 shots each."""
    t_grid = np.arange(0.0, 2.0001, 0.0625)
    pairing = PairingModel.uniform(8, 4, 1.0, 1.0)
    hubbard = HubbardModel(sites=4, hopping=1.0, onsite=1.0)
    pairs = []
    for model, seed in ((pairing, seed_pairing), (hubbard, seed_hubbard)):
        init = initial_state(model)
        sampled = genfunc.gf_series(model, init, t_grid, "reference", shots=10**4, seed=seed)
        pairs.append((sampled, genfunc.gf_exact(build_dense(to_qubits(model)), init, t_grid)))
    return pairs


def sigma_problems(points, misses, sum_z2, signed) -> list[str]:
    problems = []
    if (points - misses) / points < SHARE_MIN:
        problems.append(f"{points - misses}/{points} points within {SIGMA_GATE:g} sigma")
    if sum_z2 > CHI2_MAX:
        problems.append(f"chi2 {sum_z2:.1f} > {CHI2_MAX:g}")
    if abs(signed) > SIGNED_MAX:
        problems.append(f"signed z sum {signed:.2f} outside +-{SIGNED_MAX:g}")
    return problems


# -- the sampled Fourier route: K <= 4 moments of the 2-level pairing model --

FOURIER_CONFIG = {
    "model": {"kind": "pairing", "levels": 2, "pairs": 1, "delta_e": 1.0, "g": 1.0},
    "time_grid": {"auto": True, "gap_target": 0.1},  # 51 points
    "shots": 10000,
    "seed": 3,
    "moments": {"route": "fourier", "order": 4},
}
FOURIER_SEEDS = range(3, 54)  # seed 3 through the CLI, the other 50 through the library calls it makes
FIT_FAILURES_MAX = 2
FOURIER_MEDIAN_MAX = 7e-3
EXACT_MOMENTS = np.array([1.0, 2.0, 5.0, 16.0, 61.0])  # <H^K> of the 2x2 sector matrix [[2, -1], [-1, 4]]


def fourier_error(run: RunConfig, seed: int) -> float:
    """Max K <= 4 relative error of the Fourier moments of one sampled trace.

    inf where the fit fails: spectral_peaks raises (where the CLI exits 1),
    fits shot noise as a tone (rank other than the two tones), or leaves the
    weights unrenormalized.
    """
    center, radius = to_qubits(run.model).spectral_window
    sampled = genfunc.gf_series(run.model, run.init, run.t_grid, run.trotter_policy, shots=run.shots, seed=seed)
    try:
        spec = moments.spectral_peaks(sampled, energy_bound=radius, center=center)
    except SimulationError:
        return np.inf
    if spec.diagnostics["rank"] != 2 or not spec.diagnostics["renormalized"]:
        return np.inf
    return float(np.abs(moments.moments_fourier(spec, 4).values / EXACT_MOMENTS - 1.0).max())


def fourier_problems(errors) -> list[str]:
    errors = np.asarray(errors)
    problems = []
    failed = int(np.count_nonzero(~np.isfinite(errors)))
    if failed > FIT_FAILURES_MAX:
        problems.append(f"{failed} of {errors.size} fits failed")
    if np.median(errors) >= FOURIER_MEDIAN_MAX:
        problems.append(f"median K <= 4 error {np.median(errors):.2e}")
    return problems


# -- the sampler: counts over seeds against the binomial --

GOF_GRID = np.array([0.0, 0.3, 0.6, 0.9, 1.2])
GOF_SHOTS = 10**4
GOF_SEEDS = range(400)
GOF_P_MIN = 1e-4  # the chi-square tail probability below which the fit fails


def binomial_fit(seeds=GOF_SEEDS) -> tuple[float, int]:
    """(chi2, dof) of the shots reading 0 over seeds against Binomial(GOF_SHOTS, p0), per point and quadrature.

    A one-member trace of the 2-level pairing model; p0 comes from the
    statevector route.  Each point's histogram is binned from the low counts
    up until every bin expects at least 5.
    """
    model, init = two_level()
    exact = genfunc.gf_series(model, init, GOF_GRID, n_steps_policy=8)
    p0 = (1.0 + np.array([exact.re, exact.im])) / 2.0
    sampled = [genfunc.gf_series(model, init, GOF_GRID, n_steps_policy=8, shots=GOF_SHOTS, seed=s) for s in seeds]
    counts = np.rint((1.0 + np.array([[s.re, s.im] for s in sampled])) * GOF_SHOTS / 2.0).astype(int)
    stat, dof = 0.0, 0
    for quad in (0, 1):
        for point in range(GOF_GRID.size):
            pmf = binom.pmf(np.arange(GOF_SHOTS + 1), GOF_SHOTS, p0[quad, point])  # a certain outcome: one bin
            observed = np.bincount(counts[:, quad, point], minlength=GOF_SHOTS + 1)
            bins, expected, seen = [], 0.0, 0
            for e, o in zip(len(sampled) * pmf, observed):
                expected, seen = expected + e, seen + o
                if expected >= 5.0:
                    bins.append([expected, seen])
                    expected, seen = 0.0, 0
            if bins:
                bins[-1][0] += expected
                bins[-1][1] += seen
            stat += sum((o - e) ** 2 / e for e, o in bins)
            dof += max(len(bins) - 1, 0)
    return stat, dof


# -- FDM's noisy-order flags on a sampled trace --

FDM_SEEDS = range(3, 13)
FDM_NOISY = list(range(2, 9))  # the orders that shot noise overwhelms at 10^4 shots
FDM_AGREE_SHARE = 0.8  # of the runs, on which each order's flag must match


def fdm_series(seed, shots=10**4):
    """The 2-level pairing trace on t = 0..0.5 step 0.005 that FDM differentiates."""
    model, init = two_level()
    return genfunc.gf_series(model, init, 0.005 * np.arange(101), shots=shots, seed=seed)


def fdm_problems(flag_lists, noisy=FDM_NOISY) -> list[str]:
    """Orders whose noisy flag matches `noisy` on fewer than FDM_AGREE_SHARE of the runs."""
    runs = len(flag_lists)
    counts = np.zeros(9, dtype=int)
    for flags in flag_lists:
        counts[flags] += 1
    agree = np.where(np.isin(np.arange(9), noisy), counts, runs - counts)
    return [f"order {k} flagged on {counts[k]} of {runs} runs" for k in np.flatnonzero(agree < FDM_AGREE_SHARE * runs)]


# -- the reported error bar against the scatter over seeds --

SCATTER_SEEDS = range(400)
SCATTER_TOL = 0.2


def two_level():
    model = PairingModel.uniform(2, 1, 1.0, 1.0)
    return model, initial_state(model)


def scatter_draws(seeds) -> tuple[np.ndarray, np.ndarray]:
    """Re F(0.9) of the 2-level pairing model at 2,000 shots and its error bar, one per seed."""
    model, init = two_level()
    series = [genfunc.gf_series(model, init, [0.0, 0.9], n_steps_policy=200, shots=2000, seed=s) for s in seeds]
    return np.array([s.re[1] for s in series]), np.array([s.re_err[1] for s in series])


# -- the noisy route on the preset's 2-level member --

READOUT = noise.NoiseModel(p01=0.05, p10=0.10)
PRESET_NOISE = noise.NoiseModel(p01=0.05, p10=0.10, p_dep=0.002)


def preset_biases(t, cfg, shots, seeds, n_steps=1) -> tuple[float, float]:
    """noisy_sample at the one time t on the preset's member: its (Re, Im) biases."""
    model, init = two_level()
    (bias_re,), (bias_im,) = noise.noisy_sample(init.members[0], model, [t], shots, seeds, n_steps=n_steps, noise=cfg)
    return bias_re, bias_im


RECOVERY_SEEDS = range(60)
RECOVERY_RATIO_MAX = 0.25


def recovery_ratio(seeds=RECOVERY_SEEDS) -> float:
    """rms error of the readout-inverted Re bias at t = 0 (exactly 1) at 10^5 shots over that at 10^3.

    Seed s draws on the streams (s, 0) and (s, 1) at 10^3 shots, (s, 2) and (s, 3) at 10^5.
    """
    errors = []
    for shots, streams in ((10**3, (0, 1)), (10**5, (2, 3))):
        recovered = [
            noise.mitigate_readout(preset_biases(0.0, READOUT, shots, [(s, q) for q in streams])[0], READOUT)[0]
            for s in seeds
        ]
        errors.append(np.sqrt(np.mean((np.array(recovered) - 1.0) ** 2)))
    return errors[1] / errors[0]


MITIGATION_GRID = np.arange(0.0, 0.4001, 0.02)


@functools.cache
def preset_exact() -> genfunc.GfSeries:
    """The preset's exact series on MITIGATION_GRID (the same for every seed)."""
    model, init = two_level()
    return genfunc.gf_exact(build_dense(pairing_to_qubits(model)), init, MITIGATION_GRID)


def mitigated_preset(seed, shots=10**5, cfg=PRESET_NOISE):
    """(raw, mitigated, exact) series of the cfg noise on the preset's grid, mitigated as `gfsim noise` does."""
    model, init = two_level()
    re, im = noise.noisy_sample(
        init.members[0], model, MITIGATION_GRID, shots, [(seed, 0, 0), (seed, 0, 1)], n_steps=1, noise=cfg
    )
    errs = [np.sqrt(np.maximum(0.0, 1 - b**2) / shots) for b in (re, im)]
    raw = genfunc.GfSeries(MITIGATION_GRID, re, im, *errs, shots=shots, route="noisy", model=model.fingerprint())
    re0, _ = noise.mitigate_readout(raw.re[0], cfg)
    im0, _ = noise.mitigate_readout(raw.im[0], cfg)
    mitigated = noise.mitigate_series(raw, cfg, noise.calibrate_reference(re0, im0))
    return raw, mitigated, preset_exact()


def rms_ratio(raw, mitigated, exact) -> float:
    def rms(s):
        return np.sqrt(np.mean(np.concatenate([s.re - exact.re, s.im - exact.im]) ** 2))

    return float(rms(mitigated) / rms(raw))


def rms_and_band_problems(raw, mitigated, exact) -> list[str]:
    """rms ratio <= 0.3 and |F| inside 1 + 3 sigma at every point."""
    problems = []
    if rms_ratio(raw, mitigated, exact) > 0.3:
        problems.append(f"rms ratio {rms_ratio(raw, mitigated, exact):.3f}")
    mag = np.hypot(mitigated.re, mitigated.im)
    if np.any(mag > 1.0 + 3.0 * np.maximum(mitigated.re_err, mitigated.im_err) + 1e-12):
        problems.append(f"|F| up to {mag.max():.5f}")
    return problems


def mitigation_problems(raw, mitigated, exact) -> list[str]:
    """rms ratio <= 0.3, F(0) restored within 3 sigma, |F| inside 1 + 3 sigma at every point."""
    problems = rms_and_band_problems(raw, mitigated, exact)
    bars = [max(err[0], 1e-6) for err in (mitigated.re_err, mitigated.im_err)]
    if abs(mitigated.re[0] - 1.0) > 3 * bars[0] or abs(mitigated.im[0]) > 3 * bars[1]:
        problems.append(f"F(0) = ({mitigated.re[0]:.5f}, {mitigated.im[0]:.5f})")
    return problems


# -- mitigation where the calibration clips: the flips alone --

CLIPPED_SEEDS = range(20)
CLIPPED_TAIL = 1e-4  # each tail of the chi-square that the clipped seeds' F(0) z^2 sum must sit inside


def clipped_mitigation_rows(seeds=CLIPPED_SEEDS) -> list[tuple[list[str], bool, float]]:
    """Per seed of the flips alone at 10^5 shots: (problems of its own, whether its calibration clipped, F(0)'s z).

    Re's true t = 0 bias is 1, so its readout inversion clips on about half
    the seeds.  An unclipped calibration maps F(0) to (1, 0) exactly.  A
    clipped one takes Re F(0) = 1 for the inversion c > 1, which leaves the
    mitigated Re F(0) at 1 + (c - 1) / r: its z = (Re F(0) - 1) / bar is the
    positive half of a standard normal.  Im F(0) is 0 exactly either way.
    """
    rows = []
    for seed in seeds:
        raw, mitigated, exact = mitigated_preset(seed, cfg=READOUT)
        problems = rms_and_band_problems(raw, mitigated, exact)
        clipped = noise.mitigate_readout(raw.re[0], READOUT)[1]
        z = (mitigated.re[0] - 1.0) / mitigated.re_err[0]
        if abs(mitigated.im[0]) > 1e-12 or (not clipped and abs(mitigated.re[0] - 1.0) > 1e-12):
            problems.append(f"F(0) = ({mitigated.re[0]:.5f}, {mitigated.im[0]:.5f}), calibration clipped {clipped}")
        rows.append(([f"seed {seed}: {p}" for p in problems], clipped, z))
    return rows


def clipped_mitigation_problems(rows) -> list[str]:
    """Each seed's own problems; both outcomes of the clip; the clipped seeds' sum of z^2 inside
    both CLIPPED_TAIL tails of the chi-square on as many degrees of freedom."""
    problems = [p for own, _, _ in rows for p in own]
    z = np.array([z for _, clipped, z in rows if clipped])
    if z.size in (0, len(rows)):
        return problems + [f"the calibration clipped on {z.size} of {len(rows)} seeds"]
    total = float(np.sum(z**2))
    if min(chi2.sf(total, z.size), chi2.cdf(total, z.size)) < CLIPPED_TAIL:
        problems.append(f"clipped seeds' F(0) z^2 sum {total:.2f} on {z.size} dof")
    return problems


# -- gfsim noise: the calibration's clipping flag --

CLIP_SEEDS = range(3, 23)


def clip_config():
    """The preset without depolarization, 20,000 shots on t = 0, 0.05, 0.1: Re's true t = 0 bias is 1,
    so the readout inversion clips on about half the seeds."""
    cfg = json.loads(json.dumps(NOISE_PRESET))
    cfg.update(shots=20000, time_grid={"t_max": 0.1, "dt": 0.05})
    cfg["noise"]["p_dep"] = 0.0
    return cfg


def clip_flags(config_path, out_dir, seed) -> tuple[bool, bool]:
    """(calibration_clipped of a `gfsim noise` run, whether its raw t = 0 biases invert past +-1)."""
    assert cli.main(["noise", "--config", str(config_path), "--seed", str(seed), "--out-dir", str(out_dir)]) == 0
    flag = json.loads((Path(out_dir) / "noise_manifest.json").read_text())["calibration_clipped"]
    raw = genfunc.GfSeries.from_csv(Path(out_dir) / "gf_raw.csv")
    offset, slope = READOUT.bias_map
    return flag, bool(abs((raw.re[0] - offset) / slope) > 1.0 or abs((raw.im[0] - offset) / slope) > 1.0)
