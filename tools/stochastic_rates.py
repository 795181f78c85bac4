"""Print each stochastic Tier-1 gate's false-failure rate and its power against a named defect.

    python3 tools/stochastic_rates.py ROOT

ROOT is a checkout of this repository: gfsim is imported from ROOT/src and the
gates' statistics from ROOT/tests/sampled_gates.py, the module the tests call.
A gate on sampled draws passes or fails with the streams its draws come from.
Its false-failure rate is the probability, over streams, that it fails on
working code; its power is the probability that it fails with a named defect
patched in (pytest's MonkeyPatch).  For each gate the tool recomputes the
statistic over many seeds, each a fresh set of streams, and prints the gate,
its rate and its power.

A rate far below one over the number of seeds cannot be counted.  Each line
says how its rate is reached: counted over the seeds (with the one-sided 95%
upper bound of the share), or computed from a model fitted to the draws (the
binomial tail of a median or a count, the chi-square tail of a sum of z^2,
or the normal tail at the measured mean and spread).  The run takes about
two minutes on 2 vCPU.

Not part of Tier-1.  Beyond numpy it needs pytest and scipy, both in the
package's [test] extra.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import beta, binom, chi2, norm


def binom_sf(k: int, n: int, q: float) -> float:
    """P(Binomial(n, q) >= k)."""
    return float(binom.sf(k - 1, n, q))


def upper95(count: int, total: int) -> float:
    """One-sided 95% upper bound of a share seen count times in total (Clopper-Pearson)."""
    return 1.0 if count >= total else float(beta.ppf(0.95, count + 1, total - count))


def counted(fails, label="seeds") -> str:
    fails = np.asarray(fails, dtype=bool)
    count = int(fails.sum())
    return f"{count} of {fails.size} {label} fail ({fails.mean():.2g}; 95% upper bound {upper95(count, fails.size):.2g})"


def tails(values, lo=-math.inf, hi=math.inf) -> float:
    """Normal tail mass outside [lo, hi] at the values' mean and spread."""
    mean, sd = float(np.mean(values)), float(np.std(values, ddof=1))
    return (norm.sf((mean - lo) / sd) if lo > -math.inf else 0.0) + (
        norm.sf((hi - mean) / sd) if hi < math.inf else 0.0
    )


def fails_or_raises(statistic, *args):
    """statistic(*args), or None where it raises (a defect that breaks the run fails the gate)."""
    try:
        return statistic(*args)
    except Exception:
        return None


def report(test: str, gate: str, rate: str, powers: list[str]):
    print(f"{test}\n  gate: {gate}\n  false-failure rate: {rate}")
    for line in powers:
        print(f"  power against {line}")
    print()


class Patches:
    """The named defects, each a method that patches gfsim through a MonkeyPatch."""

    def __init__(self):
        from gfsim import cli, genfunc, moments, noise, statevector

        self.cli, self.genfunc, self.moments, self.noise = cli, genfunc, moments, noise
        self.sample = statevector.sample_ancilla

    def sampler_bias(self, mp, delta):
        """p0 read delta too high by the sampler, on both routes."""

        def biased(p0, shots, seed):
            return self.sample(np.asarray(p0) + delta, shots, seed)

        mp.setattr(self.genfunc, "sample_ancilla", biased)
        mp.setattr(self.noise, "sample_ancilla", biased)

    def shots_capped(self, mp, cap):
        """the sampler draws at most cap shots, whatever it is asked for."""
        mp.setattr(self.noise, "sample_ancilla", lambda p0, shots, seed: self.sample(p0, min(shots, cap), seed))

    def bars_scaled(self, mp, factor):
        """gf_series reports its error bars times factor."""
        real = self.genfunc.gf_series

        def scaled(*args, **kwargs):
            s = real(*args, **kwargs)
            return dataclasses.replace(s, re_err=s.re_err * factor, im_err=s.im_err * factor)

        mp.setattr(self.genfunc, "gf_series", scaled)

    def floor_halved(self, mp):
        """spectral_peaks' rank floor halved: the noise estimate it reads from the error bars halved."""
        real = self.moments.spectral_peaks

        def halved(series, **kwargs):
            return real(dataclasses.replace(series, re_err=series.re_err / 2, im_err=series.im_err / 2), **kwargs)

        mp.setattr(self.moments, "spectral_peaks", halved)

    def inversion_unclipped(self, mp):
        """mitigate_readout's clip dropped: it returns the readout inversion as it is, with its flag."""
        real = self.noise.mitigate_readout

        def unclipped(bias, noise):
            offset, slope = noise.bias_map
            return (float(bias) - offset) / slope, real(bias, noise)[1]

        mp.setattr(self.noise, "mitigate_readout", unclipped)

    def reference_skipped(self, mp):
        """the reference correction skipped: calibrate_reference returns the identity map."""
        for owner in (self.noise, self.cli):
            mp.setattr(owner, "calibrate_reference", lambda f0_re, f0_im: (0.0, 1.0))

    def flips_swapped(self, mp):
        """noisy_sample applies p01 where p10 belongs."""
        real = self.noise.noisy_sample

        def swapped(*args, noise, **kwargs):
            return real(*args, noise=dataclasses.replace(noise, p01=noise.p10, p10=noise.p01), **kwargs)

        mp.setattr(self.noise, "noisy_sample", swapped)

    def slots_skipped(self, mp):
        """the depolarizing slots skipped: _coherence_p0 run at p_dep = 0."""
        real = self.noise._coherence_p0
        def noiseless(member, model, times, n_steps, p_dep):
            return real(member, model, times, n_steps, 0.0)

        mp.setattr(self.noise, "_coherence_p0", noiseless)

    def clip_flag_dropped(self, mp):
        """cmd_noise never records a clipped calibration."""
        real = self.cli.mitigate_readout
        mp.setattr(self.cli, "mitigate_readout", lambda bias, noise: (real(bias, noise)[0], False))


def quiet():
    """Swallow the CLI's console message."""
    return contextlib.redirect_stdout(io.StringIO())


@contextlib.contextmanager
def with_defect(patch, *args):
    with pytest.MonkeyPatch.context() as mp:
        patch(mp, *args)
        yield


def memoize_evolution(genfunc, noise):
    """Cache controlled_evolve and _coherence_p0 by their inputs: seeds change the draws, not the evolution."""
    real, cache = genfunc.controlled_evolve, {}

    def cached(state, model, t, n_steps):
        key = (model.fingerprint(), state.amplitudes.tobytes(), t, n_steps)
        if key not in cache:
            cache[key] = real(state, model, t, n_steps)
        return cache[key]

    real_p0, cache_p0 = noise._coherence_p0, {}

    def cached_p0(member, model, times, n_steps, p_dep):
        key = (model.fingerprint(), member.amplitudes.tobytes(), np.asarray(times, dtype=float).tobytes(), n_steps, p_dep)
        if key not in cache_p0:
            cache_p0[key] = real_p0(member, model, times, n_steps, p_dep)
        return cache_p0[key]

    genfunc.controlled_evolve = cached
    noise._coherence_p0 = cached_p0


# -- the gates ----------------------------------------------------------------------


def fourier(sg, defects):
    from gfsim.config import RunConfig

    run = RunConfig(sg.FOURIER_CONFIG)
    n, k_max, c = len(sg.FOURIER_SEEDS), sg.FIT_FAILURES_MAX, sg.FOURIER_MEDIAN_MAX

    def errors(count, start=1000):
        return np.array([sg.fourier_error(run, seed) for seed in range(start, start + count)])

    def gate_fails(block, seeds, failures_max, median_max):
        return np.count_nonzero(~np.isfinite(block[:seeds])) > failures_max or np.median(block[:seeds]) >= median_max

    def resampled(errs, seeds, failures_max, median_max, rng):
        picks = rng.choice(errs, size=(4000, seeds))
        return np.mean([gate_fails(p, seeds, failures_max, median_max) for p in picks])

    null = errors(4000)
    failed = int(np.count_nonzero(~np.isfinite(null)))
    q_fail, q_fail_up = failed / null.size, upper95(failed, null.size)
    above = int(np.count_nonzero(null >= c))
    q_c, q_c_up = above / null.size, upper95(above, null.size)
    rate = binom_sf(k_max + 1, n, q_fail) + binom_sf((n + 1) // 2, n, q_c)
    rate_up = q_fail_up + binom_sf(k_max + 1, n, q_fail_up) + binom_sf((n + 1) // 2, n, q_c_up)
    rng = np.random.default_rng(0)
    powers = []
    for name, patch, args in defects:
        with with_defect(patch, *args):
            errs = errors(300, start=20000)
        powers.append(f"{name}: {resampled(errs, n, k_max, c, rng):.3f} ({np.mean(~np.isfinite(errs)):.0%} of fits fail)")
    report(
        "tests/test_config_cli.py::test_cmd_moments_fourier_from_sampled_series",
        f"at most {k_max} of {n} fits fail, median K <= 4 error < {c:g}",
        f"{rate:.2g} (binomial tails at the per-seed shares over {null.size} seeds: fits failing {failed}, "
        f"errors >= {c:g} {q_c:.3f}); with the 95% upper shares, and the CLI seed's own fit raising, "
        f"at most {rate_up:.2g}",
        powers,
    )


def criterion1(sg, defects):
    def stats(count, start=0):
        rows = []
        for seed in range(start, start + count):
            pairs = fails_or_raises(sg.criterion1_pairs, seed, seed)
            rows.append(None if pairs is None else sg.sigma_statistics(pairs))
        return rows

    null = stats(1000)
    points = null[0][0]
    misses = np.array([s[1] for s in null])
    sums = np.array([s[2] for s in null])
    signed = np.array([s[3] for s in null])
    new_fails = [bool(sg.sigma_problems(*s)) for s in null]
    lam = misses.mean()
    share_rate = 1.0 - math.exp(-lam) * (1.0 + lam)
    dof = points - 1  # the t = 0 Re point has a zero bar
    chi2_rate = chi2.sf(sg.CHI2_MAX, dof)
    signed_rate = tails(signed, -sg.SIGNED_MAX, sg.SIGNED_MAX)
    powers = []
    for name, patch, args in defects:
        with with_defect(patch, *args):
            rows = stats(300, start=50000)
        powers.append(f"{name}: {np.mean([r is None or bool(sg.sigma_problems(*r)) for r in rows]):.3f}")
    report(
        "tests/test_acceptance.py::test_criterion_01_gf_fidelity",
        f"{sg.SHARE_MIN:.0%} of {points} pooled points within {sg.SIGMA_GATE:g} sigma, chi2 <= {sg.CHI2_MAX:g}, "
        f"|signed z sum| <= {sg.SIGNED_MAX:g}",
        f"{share_rate + chi2_rate + signed_rate:.2g} = {share_rate:.1g} (two misses, Poisson at {lam:.4f} misses per seed) "
        f"+ {chi2_rate:.2g} (chi-square tail, {dof} dof; measured mean {sums.mean():.1f}, sd {sums.std():.1f}) "
        f"+ {signed_rate:.2g} (normal tail; measured mean {signed.mean():.3f}, sd {signed.std():.3f}); "
        f"{counted(new_fails)}",
        powers,
    )


def scatter(sg, defects):
    def rate(seeds, tol, bar, sigma):
        # s^2 (N - 1) / sigma^2 is chi-square on N - 1 dof; the gate wants s in [bar / (1 + tol), bar / (1 - tol)]
        dof = seeds - 1
        return chi2.cdf(dof * (bar / ((1 + tol) * sigma)) ** 2, dof) + chi2.sf(dof * (bar / ((1 - tol) * sigma)) ** 2, dof)

    est, bars = sg.scatter_draws(range(20000))
    sigma, bar = float(np.std(est, ddof=1)), float(np.mean(bars))
    n, tol = len(sg.SCATTER_SEEDS), sg.SCATTER_TOL
    blocks = [
        abs(np.mean(b) - np.std(e, ddof=1)) > tol * np.std(e, ddof=1)
        for e, b in zip(est.reshape(-1, n), bars.reshape(-1, n))
    ]
    powers = []
    for name, patch, args in defects:
        with with_defect(patch, *args):
            _, bars_d = sg.scatter_draws(range(2000))
        bar_d = float(np.mean(bars_d))
        powers.append(f"{name}: {rate(n, tol, bar_d, sigma):.3f}")
    report(
        "tests/test_genfunc.py::test_sampled_error_bar_matches_empirical_scatter",
        f"mean error bar within {tol:.0%} of the scatter over {n} seeds",
        f"{rate(n, tol, bar, sigma):.2g} (chi-square tails of the scatter at sigma {sigma:.5f} over {est.size} seeds, "
        f"mean bar {bar:.5f}); {counted(blocks, 'blocks')}",
        powers,
    )


def recovery(sg, defects):
    def ratios(n, blocks, start=0):
        return np.array([sg.recovery_ratio(range(start + b * n, start + (b + 1) * n)) for b in range(blocks)])

    n, top = len(sg.RECOVERY_SEEDS), sg.RECOVERY_RATIO_MAX
    new = ratios(n, 200)
    logs = np.log(new)
    powers = []
    for name, patch, args in defects:
        with with_defect(patch, *args):
            new_d = ratios(n, 50, 2 * 10**6)
        powers.append(f"{name}: {np.mean(new_d >= top):.3f}")
    report(
        "tests/test_noise.py::test_readout_recovery_improves_with_shots",
        f"rms error ratio, 10^5 over 10^3 shots, below {top:g} over {n} seeds",
        f"{tails(logs, hi=math.log(top)):.2g} (normal tail of log ratio, mean ratio {new.mean():.3f}); "
        f"{counted(new >= top, 'blocks')}",
        powers,
    )


def mitigation(sg, defects):
    def margins(seeds, cfg):
        rows = []
        for seed in seeds:
            raw, mit, exact = sg.mitigated_preset(seed, cfg=cfg)

            def rms(s):
                return np.sqrt(np.mean(np.concatenate([s.re - exact.re, s.im - exact.im]) ** 2))

            bars = [max(err[0], 1e-6) for err in (mit.re_err, mit.im_err)]
            f0 = max(abs(mit.re[0] - 1.0) / bars[0], abs(mit.im[0]) / bars[1])
            band = np.max((np.hypot(mit.re, mit.im) - 1.0 - 1e-12) / np.maximum(mit.re_err, mit.im_err))
            rows.append((rms(mit) / rms(raw), f0, band, bool(sg.mitigation_problems(raw, mit, exact))))
        return np.array(rows)

    seeds = range(4000)
    new = margins(seeds, sg.PRESET_NOISE)
    model_rate = tails(new[:, 0], hi=0.3) + tails(new[:, 2], hi=3.0) + (tails(new[:, 1], hi=3.0) if np.ptp(new[:, 1]) else 0.0)
    powers = []
    for name, patch, args in defects:
        with with_defect(patch, *args):
            d_new = margins(range(10**5, 10**5 + 500), sg.PRESET_NOISE)
        powers.append(f"{name}: {d_new[:, 3].mean():.3f}")
    report(
        "tests/test_noise.py::test_mitigated_series_beats_raw_on_preset",
        "the preset's flips and p_dep = 0.002 at 10^5 shots: rms ratio <= 0.3, F(0) within 3 sigma, |F| <= 1 + 3 sigma",
        f"{counted(new[:, 3])}; normal tails of the three margins {model_rate:.2g} "
        f"(rms ratio {new[:, 0].mean():.3f} +- {new[:, 0].std():.3f}, largest F(0) z {new[:, 1].max():.2f}, "
        f"largest band z {new[:, 2].max():.2f})",
        powers,
    )


def clipped_mitigation(sg, defects):
    n = len(sg.CLIPPED_SEEDS)

    def gate_fails(start, blocks):
        rows = sg.clipped_mitigation_rows(range(start, start + blocks * n))
        return rows, [bool(sg.clipped_mitigation_problems(rows[b * n : (b + 1) * n])) for b in range(blocks)]

    rows, fails = gate_fails(0, 5000)
    own = [bool(problems) for problems, _, _ in rows]
    clipped = np.array([c for _, c, _ in rows])
    z = np.array([z for _, c, z in rows if c])
    q = clipped.mean()
    both = q**n + (1 - q) ** n
    own_up = n * upper95(sum(own), len(own))
    powers = []
    for name, patch, args in defects:
        with with_defect(patch, *args):
            _, d_fails = gate_fails(10**6, 300)
        powers.append(f"{name}: {np.mean(d_fails):.3f}")
    report(
        "tests/test_noise.py::test_mitigation_where_the_calibration_clips",
        f"the flips alone at 10^5 shots over seeds {sg.CLIPPED_SEEDS.start}-{sg.CLIPPED_SEEDS.stop - 1}: each seed's "
        f"rms ratio <= 0.3, |F| <= 1 + 3 sigma and unclipped F(0) exact; the clip on some seeds and not on all; "
        f"the clipped seeds' F(0) z^2 sum inside both {sg.CLIPPED_TAIL:g} chi-square tails",
        f"at most {2 * sg.CLIPPED_TAIL + both + own_up:.2g} = {2 * sg.CLIPPED_TAIL:g} (the chi-square tails) "
        f"+ {both:.1g} (all {n} seeds alike at the clipping share {q:.3f}) + {own_up:.2g} ({n} seeds at the 95% upper "
        f"share of {sum(own)} of {len(own)} seeds with a problem of their own); mean z^2 of the clipped seeds "
        f"{np.mean(z**2):.3f} (1 expected), largest z {z.max():.2f}; {counted(fails, 'blocks')}",
        powers,
    )


def criterion10(sg, defects):
    from gfsim import cli
    from gfsim.config import NOISE_PRESET
    from gfsim.genfunc import GfSeries

    def stats(seeds, out):
        rows = []
        for seed in seeds:
            if cli.main(["noise", "--seed", str(seed), "--out-dir", str(out)]) != 0:
                raise RuntimeError(f"gfsim noise --seed {seed} failed")
            manifest = json.loads((out / "noise_manifest.json").read_text())
            mit = GfSeries.from_csv(out / "gf_mitigated.csv")
            f0 = max(abs(mit.re[0] - 1.0) / mit.re_err[0], abs(mit.im[0]) / mit.im_err[0])
            rows.append((manifest["rms_mitigated"] / manifest["rms_raw"], f0))
        return np.array(rows)

    with tempfile.TemporaryDirectory() as tmp, quiet():
        null = stats(range(1000), Path(tmp))
        powers = []
        for name, patch, args in defects:
            with with_defect(patch, *args):
                d = stats(range(10**5, 10**5 + 100), Path(tmp))
            powers.append(f"{name}: {np.mean((d[:, 0] > 0.3) | (d[:, 1] > 3)):.3f}")
    fails = (null[:, 0] > 0.3) | (null[:, 1] > 3)
    report(
        "tests/test_acceptance.py::test_criterion_10_noise_mitigation",
        f"`gfsim noise` on the preset ({NOISE_PRESET['shots']:,} shots): rms ratio <= 0.3, F(0) within 3 sigma",
        f"{counted(fails)}; normal tail of the rms ratio {tails(null[:, 0], hi=0.3):.2g} "
        f"(mean {null[:, 0].mean():.4f}, sd {null[:, 0].std():.4f}), largest F(0) z {null[:, 1].max():.2g}",
        powers,
    )


def single_draws(sg, patches):
    """Gates on one draw: the normal tail at the measured mean and spread of the drawn value."""
    from gfsim.genfunc import gf_exact, gf_series
    from gfsim.models import build_dense, pairing_to_qubits
    from gfsim.noise import NoiseModel

    seeds = range(400)
    full = NoiseModel(p_dep=1.0)

    def full_bias(shots):
        return lambda s: sg.preset_biases(0.5, full, shots, (s, s + 10**6))[0]

    def mild(s):
        return sg.preset_biases(0.0, NoiseModel(p_dep=0.05), 10**5, (s, s + 10**6))[0]

    def readout_share(s):
        return (1.0 + sg.preset_biases(0.0, sg.READOUT, 10**5, (s, s + 10**6))[0]) / 2.0

    model, init = sg.two_level()
    exact = gf_exact(build_dense(pairing_to_qubits(model)), init, [0.7]).values[0]

    def hadamard_z(s):  # tests/test_genfunc.py::test_hadamard_sampled_within_error_bars
        est = gf_series(model, init, [0.0, 0.7], n_steps_policy=500, shots=10**4, seed=s)
        return (est.re[1] - exact.real) / max(est.re_err[1], 1e-4), (est.im[1] - exact.imag) / max(est.im_err[1], 1e-4)

    def values(draw, patch=None, *args):
        if patch is None:
            return np.array([draw(s) for s in seeds])
        with with_defect(patch, *args):
            return np.array([draw(s) for s in range(10**5, 10**5 + len(seeds))])

    cases = [
        (
            "tests/test_noise.py::test_full_depolarization_kills_the_signal",
            "|bias| < 0.01 at 10^6 shots",
            full_bias(10**6),
            (-0.01, 0.01),
            ("p0 read 0.01 high by the sampler", patches.sampler_bias, 0.01),
        ),
        (
            "tests/test_noise.py::test_mild_depolarization_damps_towards_zero",
            "0.7 < bias < 0.999 at 10^5 shots",
            mild,
            (0.7, 0.999),
            ("the depolarizing slots skipped", patches.slots_skipped),
        ),
        (
            "tests/test_noise.py::test_readout_only_shifts_reported_probabilities",
            "share reading 0 within 0.01 of 0.95",
            readout_share,
            (0.94, 0.96),
            ("p01 and p10 swapped", patches.flips_swapped),
        ),
    ]
    for test, gate, draw, (lo, hi), (defect, patch, *args) in cases:
        v = values(draw)
        d = values(draw, patch, *args)
        power = f"{defect}: {tails(d, lo, hi) if np.std(d) > 0 else float(not lo < d[0] < hi):.3f}"
        rate = f"{tails(v, lo, hi):.2g} (normal tails at mean {v.mean():.4f}, sd {v.std(ddof=1):.2g} over {v.size} seeds)"
        report(test, gate, rate, [power])

    z = values(hadamard_z)
    d = values(hadamard_z, patches.sampler_bias, 0.01)
    report(
        "tests/test_genfunc.py::test_hadamard_sampled_within_error_bars",
        "Re and Im within 5 standard errors",
        f"{tails(z[:, 0], -5, 5) + tails(z[:, 1], -5, 5):.2g} (normal tails at the measured z spread over {len(z)} seeds)",
        [f"p0 read 0.01 high by the sampler: {1 - (1 - tails(d[:, 0], -5, 5)) * (1 - tails(d[:, 1], -5, 5)):.3f}"],
    )


def fdm_orders(sg, patches):
    from gfsim import moments

    orders = np.arange(9)
    sign = np.where(np.isin(orders, sg.FDM_NOISY), 1.0, -1.0)

    def run(seed):
        """One run's noisy orders, and each order's log margin to the 1/10 flag line, positive where it matches."""
        series = sg.fdm_series(seed)
        mom = moments.moments_fdm(series, 8)
        e_rms = moments._rms_energy(series.values, series.dt())
        ratio = mom.errors / (0.1 * np.maximum(np.abs(mom.values), e_rms**orders))
        return mom.diagnostics["noisy_orders"], sign * np.log(ratio)

    n = len(sg.FDM_SEEDS)
    allowed = n - math.ceil(sg.FDM_AGREE_SHARE * n)
    rows = [run(s) for s in range(2000)]
    logs = np.array([r[1] for r in rows])
    p_wrong = [tails(logs[:, k], lo=0.0) for k in orders]  # one run's chance that order k's flag is wrong
    rng = np.random.default_rng(0)
    powers = []
    for name, factor in (("the noise floor read 100 times small", 0.01), ("the noise floor read 100 times large", 100.0)):
        real = moments._noise_floor
        with with_defect(lambda mp: mp.setattr(moments, "_noise_floor", lambda series: factor * real(series))):
            flags = [run(s)[0] for s in range(10**5, 10**5 + 200)]
        blocks = rng.integers(len(flags), size=(2000, n))
        powers.append(f"{name}: {np.mean([bool(sg.fdm_problems([flags[i] for i in block])) for block in blocks]):.3f}")
    report(
        "tests/test_moments.py::test_fdm_flags_the_orders_shot_noise_overwhelms[sampled]",
        f"each order's flag matches {sg.FDM_NOISY} on at least {sg.FDM_AGREE_SHARE:.0%} of seeds "
        f"{sg.FDM_SEEDS.start}-{sg.FDM_SEEDS.stop - 1}",
        f"{sum(binom_sf(allowed + 1, n, p) for p in p_wrong):.2g} (binomial tails at each order's one-run error "
        f"rate, the normal tail of its log margin over {len(rows)} seeds: order 1 {p_wrong[1]:.2g}, order 2 {p_wrong[2]:.2g})",
        powers,
    )


def clipping(sg, patches):
    with tempfile.TemporaryDirectory() as tmp, quiet():
        path = Path(tmp) / "clip.json"
        path.write_text(json.dumps(sg.clip_config()))
        flags = np.array([sg.clip_flags(path, Path(tmp) / "out", s)[1] for s in range(400)])
        with with_defect(patches.clip_flag_dropped):
            dropped = [sg.clip_flags(path, Path(tmp) / "out", s)[0] for s in range(10)]
    q, n = flags.mean(), len(sg.CLIP_SEEDS)
    if any(dropped):
        raise RuntimeError("the clip_flag_dropped patch did not reach cmd_noise")
    report(
        "tests/test_config_cli.py::test_cmd_noise_records_calibration_clipping",
        f"the manifest's flag matches the raw biases on seeds {sg.CLIP_SEEDS.start}-{sg.CLIP_SEEDS.stop - 1}, "
        "and both outcomes occur",
        f"{q**n + (1 - q) ** n:.2g} (all {n} seeds alike, at the clipping share {q:.3f} over {flags.size} seeds)",
        [f"the clipping flag dropped: {1 - (1 - q) ** n:.6f}"],
    )


def binomial_fit(sg, patches):
    blocks = 30
    n = len(sg.GOF_SEEDS)
    p_values = [chi2.sf(*sg.binomial_fit(range(b * n, (b + 1) * n))) for b in range(blocks)]
    with with_defect(patches.sampler_bias, 0.01):
        biased = [chi2.sf(*sg.binomial_fit(range(10**6 + b * n, 10**6 + (b + 1) * n))) for b in range(blocks // 3)]
    report(
        "tests/test_genfunc.py::test_sampled_counts_are_binomial_over_seeds",
        f"chi-square tail probability > {sg.GOF_P_MIN:g}",
        f"{sg.GOF_P_MIN:g} (the chi-square tail it gates); over {blocks} blocks of {n} seeds the p-values average "
        f"{np.mean(p_values):.2f} (0.5 expected) with {np.mean(np.array(p_values) < 0.05):.0%} below 0.05 (5% expected)",
        [f"p0 read 0.01 high by the sampler: {np.mean(np.array(biased) <= sg.GOF_P_MIN):.3f}"],
    )


def exact_lines(sg):
    """Gates whose rate follows from the binomial alone."""

    # tests/test_config_cli.py::test_cmd_noise_calibrates_when_one_flip_is_set: raw Im bias at t = 0 exactly 0
    worst = max(binom.pmf(2500, 5000, q) for q in (0.55, 0.45))
    report(
        "tests/test_config_cli.py::test_cmd_noise_calibrates_when_one_flip_is_set",
        "raw Im bias at t = 0 nonzero (5,000 shots; reported 0 with probability 0.55 or 0.45)",
        f"{worst:.2g} (binomial probability of exactly 2,500 zeros)",
        ["the reference skipped: 1.0, since the mitigated Im bias is then not 0 (gate deterministic)"],
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", help="a checkout of this repository")
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    import sampled_gates as sg
    from gfsim import genfunc, noise

    memoize_evolution(genfunc, noise)
    patches = Patches()
    fourier(
        sg,
        [
            ("the rank floor halved", patches.floor_halved, ()),
            ("p0 read 0.003 high by the sampler", patches.sampler_bias, (0.003,)),
        ],
    )
    criterion1(
        sg,
        [
            ("p0 read 0.002 high by the sampler", patches.sampler_bias, (0.002,)),
            ("error bars a factor sqrt(2) small", patches.bars_scaled, (2**-0.5,)),
        ],
    )
    scatter(sg, [("error bars 25% large", patches.bars_scaled, (1.25,))])
    recovery(sg, [("shots capped at 10^4", patches.shots_capped, (10**4,))])
    mitigation(sg, [("the reference correction skipped", patches.reference_skipped, ())])
    clipped_mitigation(
        sg,
        [
            ("mitigate_readout's clip dropped", patches.inversion_unclipped, ()),
            ("the reference correction skipped", patches.reference_skipped, ()),
        ],
    )
    criterion10(sg, [("the reference correction skipped", patches.reference_skipped, ())])
    single_draws(sg, patches)
    fdm_orders(sg, patches)
    clipping(sg, patches)
    binomial_fit(sg, patches)
    exact_lines(sg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
