"""Experiment configuration: flat key-value text with dotted sections.

Example::

    kind = energy-growth
    grid.n = 8
    time.dt = 0.01
    time.horizon = 0.5
    noise.gamma = 3.0
    noise.c = 0.5
    init.kind = zero
    seed = 12345
    ensemble.size = 1000

Unknown keys are rejected (strict mode); parse / serialize round-trips
losslessly.  See docs/formats.md for the full schema.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

__all__ = ["ExperimentConfig", "ConfigError", "parse_config", "parse_config_text"]

KINDS = ("simulate-euler", "simulate-averaged", "equivalence", "convergence",
         "isometry", "energy-growth")
INIT_KINDS = ("taylor-green", "single-mode", "random", "zero")
SCHEMES = ("heun", "euler-maruyama")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    kind: str = ""
    n: int = 8
    dt: float = 0.01
    horizon: float = 0.5
    gamma: float = 3.0
    c: float = 0.0
    s_prime: int = 2
    alpha: float = 0.0
    init_kind: str = "taylor-green"
    init_kx: int = 1
    init_ky: int = 0
    init_amplitude: float = 1.0
    init_seed: int = 0
    init_slope: float = 2.0
    scheme: str = "heun"
    seed: int = 12345
    ensemble: int = 1
    radius_factor: float = 10.0
    out_dir: str = "runs"
    eq_levels: int = 4
    eq_particles: int = 8

    def validate(self) -> "ExperimentConfig":
        if not self.kind:
            raise ConfigError("missing required key: kind")
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.init_kind not in INIT_KINDS:
            raise ConfigError(f"unknown init.kind {self.init_kind!r}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        for key, (attr, typ) in _KEYMAP.items():
            val = getattr(self, attr)
            if typ is float and not math.isfinite(val):
                raise ConfigError(f"{key} must be a finite number, got {val}")
        for key, val in (("grid.n", self.n), ("time.dt", self.dt),
                         ("time.horizon", self.horizon)):
            if val <= 0:
                raise ConfigError(f"{key.split('.')[-1]} must be positive "
                                  f"(key {key!r}, got {val})")
        steps = self.horizon / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ConfigError(f"time.dt = {self.dt!r} does not divide time.horizon = "
                              f"{self.horizon!r} (horizon/dt = {steps:.6g})")
        for key, val in (("seed", self.seed), ("init.seed", self.init_seed)):
            if val < 0:
                raise ConfigError(f"{key} must be >= 0, got {val}")
        if self.c < 0:
            raise ConfigError("noise.c must be >= 0")
        if self.alpha < 0:
            raise ConfigError("alpha must be >= 0")
        if self.ensemble < 1:
            raise ConfigError("ensemble.size must be >= 1")
        if self.kind == "energy-growth" and self.ensemble < 2:
            raise ConfigError("ensemble.size must be >= 2 for energy-growth")
        if self.eq_levels < 1:
            raise ConfigError("equivalence.levels must be >= 1")
        if self.eq_particles < 2:
            raise ConfigError("equivalence.particles must be >= 2")
        if self.radius_factor <= 0:
            raise ConfigError("localization.radius_factor must be positive")
        return self

    def to_text(self) -> str:
        lines = [f"{key} = {_fmt(getattr(self, attr))}" for key, (attr, _) in _KEYMAP.items()]
        return "\n".join(lines) + "\n"

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()[:16]


_KEYMAP = {
    "kind": ("kind", str),
    "grid.n": ("n", int),
    "time.dt": ("dt", float),
    "time.horizon": ("horizon", float),
    "noise.gamma": ("gamma", float),
    "noise.c": ("c", float),
    "noise.s_prime": ("s_prime", int),
    "alpha": ("alpha", float),
    "init.kind": ("init_kind", str),
    "init.kx": ("init_kx", int),
    "init.ky": ("init_ky", int),
    "init.amplitude": ("init_amplitude", float),
    "init.seed": ("init_seed", int),
    "init.slope": ("init_slope", float),
    "scheme": ("scheme", str),
    "seed": ("seed", int),
    "ensemble.size": ("ensemble", int),
    "localization.radius_factor": ("radius_factor", float),
    "output.dir": ("out_dir", str),
    "equivalence.levels": ("eq_levels", int),
    "equivalence.particles": ("eq_particles", int),
}


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def parse_config_text(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYMAP:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        attr, typ = _KEYMAP[key]
        try:
            setattr(cfg, attr, typ(value))
        except ValueError:
            raise ConfigError(
                f"line {lineno}: key {key!r} expects {typ.__name__}, got {value!r}")
    return cfg.validate()


def parse_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
