"""Run-configuration schema: JSON in, validated objects out.

Unknown keys are rejected and every numeric field is range-checked, so a
typo'd config fails before any compute starts.  The run manifest records
`RunConfig.resolved()`: the top-level defaults filled in, and the model,
time-grid, trotter and noise blocks copied as given, so the defaults inside
them (delta_e, g, gap_target, p_dep) stay implicit.  Feeding a manifest back
reproduces the run byte for byte within one gfsim version.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .models import HubbardModel, PairingModel, initial_state, to_qubits
from .moments import fourier_grid
from .noise import NoiseModel
from .statevector import SimulationError


class ConfigError(SimulationError):
    """Invalid run configuration."""


def _require_keys(block: dict, allowed: set[str], context: str):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {context}; allowed: {sorted(allowed)}")


def _number(block: dict, key: str, context: str, default=None, minimum=None, maximum=None, integer=False):
    if key not in block:
        if default is None:
            raise ConfigError(f"missing required key {key!r} in {context}")
        return default
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context}.{key} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN or +-Infinity, which json reads, or an int no float holds
        raise ConfigError(f"{context}.{key} must be finite, got {value!r}")
    if integer and int(value) != value:
        raise ConfigError(f"{context}.{key} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{context}.{key} = {value} below minimum {minimum}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{context}.{key} = {value} above maximum {maximum}")
    return int(value) if integer else float(value)


def _flag(block: dict, key: str, context: str) -> bool:
    """A JSON true or false (default false); a string such as "false" would otherwise read as true."""
    value = block.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{context}.{key} must be true or false, got {value!r}")
    return value


def build_model(block: dict):
    kind = block.get("kind")
    if kind == "pairing":
        _require_keys(block, {"kind", "levels", "pairs", "delta_e", "g", "eps"}, "pairing model")
        if "eps" in block:
            if "levels" in block or "delta_e" in block:
                raise ConfigError("model.eps fixes the levels; levels and delta_e cannot go with it")
            eps = np.asarray(block["eps"], dtype=float)
            levels = eps.size
            if eps.ndim != 1 or levels == 0:
                raise ConfigError(f"model.eps must be a nonempty list of level energies, got {block['eps']!r}")
            if not np.isfinite(eps).all():
                raise ConfigError(f"model.eps entries must be finite, got {block['eps']!r}")
        else:
            levels = _number(block, "levels", "model", minimum=1, integer=True)
            delta_e = _number(block, "delta_e", "model", default=1.0, minimum=0.0)
            eps = delta_e * np.arange(1, levels + 1)
        pairs = _number(block, "pairs", "model", minimum=0, integer=True)
        g = _number(block, "g", "model", default=1.0)
        return PairingModel(eps=eps, g=np.full((levels, levels), g), n_pairs=pairs)
    if kind == "hubbard":
        _require_keys(block, {"kind", "sites", "hopping", "onsite"}, "hubbard model")
        sites = _number(block, "sites", "model", minimum=2, integer=True)
        hopping = _number(block, "hopping", "model", default=1.0)
        onsite = _number(block, "onsite", "model", default=1.0)
        return HubbardModel(sites=sites, hopping=hopping, onsite=onsite)
    raise ConfigError(f"model.kind must be pairing|hubbard, got {kind!r}")


def build_time_grid(block: dict | None, model) -> np.ndarray:
    """Explicit {t_max, dt} grid, or {auto: true} for the spectral grid rule."""
    if block is None:
        block = {"auto": True}
    if _flag(block, "auto", "time_grid"):
        _require_keys(block, {"auto", "gap_target"}, "time_grid with auto")
        gap_target = _number(block, "gap_target", "time_grid", default=0.02, minimum=1e-6)
        _, radius = to_qubits(model).spectral_window
        return fourier_grid(radius, gap_target=gap_target)
    _require_keys(block, {"auto", "t_max", "dt"}, "time_grid without auto")
    t_max = _number(block, "t_max", "time_grid", minimum=0.0)
    dt = _number(block, "dt", "time_grid", minimum=1e-12)
    n = int(round(t_max / dt))
    return dt * np.arange(n + 1)


def build_trotter_policy(block: dict | None):
    if block is None:
        return "reference"
    policy = block.get("policy", "reference")
    if policy == "reference":
        _require_keys(block, {"policy"}, "trotter with the reference policy")
        return "reference"
    if policy == "fixed":
        _require_keys(block, {"policy", "n_steps"}, "trotter")
        return _number(block, "n_steps", "trotter", minimum=1, integer=True)
    raise ConfigError(f"trotter.policy must be reference|fixed, got {policy!r}")


def build_noise(block: dict) -> NoiseModel:
    """Readout as {p01, p10} flip probabilities (null: no readout error), plus p_dep."""
    _require_keys(block, {"readout", "p_dep"}, "noise")
    readout = {} if block.get("readout") is None else block["readout"]
    if not isinstance(readout, dict):
        raise ConfigError(f"noise.readout must be {{p01, p10}}, got {readout!r}")
    _require_keys(readout, {"p01", "p10"}, "noise.readout")
    p01 = _number(readout, "p01", "noise.readout", default=0.0, minimum=0.0, maximum=0.5)
    p10 = _number(readout, "p10", "noise.readout", default=0.0, minimum=0.0, maximum=0.5)
    p_dep = _number(block, "p_dep", "noise", default=0.0, minimum=0.0, maximum=1.0)
    return NoiseModel(p01, p10, p_dep)


_TOP_KEYS = {
    "model",
    "initial_state",
    "time_grid",
    "shots",
    "seed",
    "trotter",
    "moments",
    "texpansion",
    "krylov",
    "noise",
    "overlay_exact",
}


@dataclass
class RunConfig:
    """Validated run configuration with resolved defaults."""

    raw: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.raw, dict):
            raise ConfigError("config must be a JSON object")
        _require_keys(self.raw, _TOP_KEYS, "config")
        if "model" not in self.raw:
            raise ConfigError("config needs a model block")
        try:
            self.model = build_model(self.raw["model"])
            spec = self.raw.get("initial_state")
            self.init = initial_state(self.model, "default" if spec is None else spec)
            self.t_grid = build_time_grid(self.raw.get("time_grid"), self.model)
        except ConfigError:
            raise
        except SimulationError as exc:  # a model, state or grid the config cannot build is a config error
            raise ConfigError(str(exc)) from exc
        # Generator.binomial takes the shot count as a C long
        self.shots = _number(self.raw, "shots", "config", default=0, minimum=0, maximum=2**63 - 1, integer=True)
        members = len(self.init)
        if 0 < self.shots < members:  # sampled routes split the shots evenly over the mixture members
            raise ConfigError(f"config.shots = {self.shots} leaves a member of the {members}-member mixture no shot")
        self.seed = _number(self.raw, "seed", "config", default=0, minimum=0, maximum=2**32 - 1, integer=True)
        self.trotter_policy = build_trotter_policy(self.raw.get("trotter"))
        self.overlay_exact = _flag(self.raw, "overlay_exact", "config")

        mom = self.raw.get("moments", {})
        _require_keys(mom, {"route", "order", "accuracy"}, "moments")
        self.moment_route = mom.get("route", "exact")
        if self.moment_route not in ("exact", "fdm", "fourier"):
            raise ConfigError(f"moments.route must be exact|fdm|fourier, got {self.moment_route!r}")
        self.moment_order = _number(mom, "order", "moments", default=12, minimum=0, integer=True)
        if "accuracy" in mom and self.moment_route != "fdm":
            raise ConfigError(f"moments.accuracy applies only to route 'fdm', not {self.moment_route!r}")
        self.fdm_accuracy = _number(mom, "accuracy", "moments", default=8, minimum=2, integer=True)
        if self.fdm_accuracy % 2:
            raise ConfigError(f"moments.accuracy must be even, as central stencils are, got {self.fdm_accuracy}")

        tex = self.raw.get("texpansion", {})
        _require_keys(tex, {"order", "tau_max"}, "texpansion")
        self.texpansion_order = _number(tex, "order", "texpansion", default=10, minimum=2, integer=True)
        self.tau_max = tex.get("tau_max")
        if self.tau_max is not None:
            self.tau_max = _number(tex, "tau_max", "texpansion", minimum=1e-9)

        kry = self.raw.get("krylov", {})
        _require_keys(kry, {"orders", "t_max", "dt"}, "krylov")
        orders = kry.get("orders", [0, 1, 2, 3, 4, 5, 6])
        if not (isinstance(orders, list) and orders and all(type(m) is int and m >= 0 for m in orders)):
            raise ConfigError(f"krylov.orders must be a nonempty list of nonnegative integers, got {orders!r}")
        self.krylov_orders = orders
        self.krylov_t_max = _number(kry, "t_max", "krylov", default=8.0, minimum=0.0)
        self.krylov_dt = _number(kry, "dt", "krylov", default=0.01, minimum=1e-9)

        self.noise = None
        if "noise" in self.raw:
            self.noise = build_noise(self.raw["noise"])

    @classmethod
    def from_file(cls, path, **overrides) -> "RunConfig":
        """Config (or a manifest's config) from a JSON file, with top-level keys replaced by `overrides`."""
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        # a manifest file can be fed back in place of its config
        if isinstance(data, dict) and "config" in data and "tool_version" in data:
            data = data["config"]
        if overrides and isinstance(data, dict):
            data = {**data, **overrides}
        return cls(data)

    def resolved(self) -> dict:
        """Round-trippable plain dict with defaults filled in; model, grid, trotter and noise blocks as given."""
        out = {
            "model": dict(self.raw["model"]),
            "initial_state": self.raw.get("initial_state", "default"),
            "time_grid": dict(self.raw.get("time_grid") or {"auto": True}),
            "shots": self.shots,
            "seed": self.seed,
            "trotter": dict(self.raw.get("trotter") or {"policy": "reference"}),
            "moments": {"route": self.moment_route, "order": self.moment_order},
            "texpansion": {"order": self.texpansion_order, "tau_max": self.tau_max},
            "krylov": {
                "orders": list(self.krylov_orders),
                "t_max": self.krylov_t_max,
                "dt": self.krylov_dt,
            },
            "overlay_exact": self.overlay_exact,
        }
        if self.moment_route == "fdm":
            out["moments"]["accuracy"] = self.fdm_accuracy
        if "noise" in self.raw:
            out["noise"] = dict(self.raw["noise"])
        return out


NOISE_PRESET = {
    "model": {"kind": "pairing", "levels": 2, "pairs": 1, "delta_e": 1.0, "g": 1.0},
    "initial_state": "pairing-lowest-filled",
    "time_grid": {"t_max": 0.4, "dt": 0.02},
    "shots": 1000000,
    "seed": 11,
    "trotter": {"policy": "fixed", "n_steps": 1},
    "noise": {"readout": {"p01": 0.05, "p10": 0.10}, "p_dep": 0.002},
}
