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
import operator
import typing
from dataclasses import dataclass, field, fields

__all__ = ["ExperimentConfig", "ConfigError", "parse_config", "parse_config_text"]

KINDS = ("simulate-euler", "simulate-averaged", "equivalence", "convergence",
         "isometry", "energy-growth")
SCHEMES = ("heun", "euler-maruyama")
_OPS = {">=": operator.ge, ">": operator.gt}


class ConfigError(ValueError):
    pass


def _key(key: str, default, *, ge=None, gt=None, choices=()):
    """A field whose value the config text sets by `key`; `validate` holds
    it to its lower bound, inclusive (`ge`) or strict (`gt`), or to its
    `choices`."""
    bound = (">=", ge) if ge is not None else (">", gt) if gt is not None else None
    return field(default=default, metadata={"key": key, "bound": bound, "choices": choices})


@dataclass
class ExperimentConfig:
    kind: str = _key("kind", "", choices=KINDS)
    n: int = _key("grid.n", 8, ge=1)
    dt: float = _key("time.dt", 0.01, gt=0)
    horizon: float = _key("time.horizon", 0.5, gt=0)
    gamma: float = _key("noise.gamma", 3.0)
    c: float = _key("noise.c", 0.0, ge=0)
    s_prime: int = _key("noise.s_prime", 2)
    alpha: float = _key("alpha", 0.0, ge=0)
    init_kind: str = _key("init.kind", "taylor-green",
                          choices=("taylor-green", "single-mode", "random", "zero"))
    init_kx: int = _key("init.kx", 1)
    init_ky: int = _key("init.ky", 0)
    init_amplitude: float = _key("init.amplitude", 1.0)
    init_seed: int = _key("init.seed", 0, ge=0)
    init_slope: float = _key("init.slope", 2.0)
    scheme: str = _key("scheme", "heun", choices=SCHEMES)
    seed: int = _key("seed", 12345, ge=0)
    ensemble: int = _key("ensemble.size", 1, ge=1)
    radius_factor: float = _key("localization.radius_factor", 10.0, gt=0)
    out_dir: str = _key("output.dir", "runs")
    eq_levels: int = _key("equivalence.levels", 4, ge=1)
    eq_particles: int = _key("equivalence.particles", 8, ge=2)

    def validate(self) -> "ExperimentConfig":
        if not self.kind:
            raise ConfigError("missing required key: kind")
        for f in fields(self):
            key, val = f.metadata["key"], getattr(self, f.name)
            bound, choices = f.metadata["bound"], f.metadata["choices"]
            if _TYPES[f.name] is float and not math.isfinite(val):
                raise ConfigError(f"{key} must be a finite number, got {val!r}")
            if choices and val not in choices:
                raise ConfigError(f"{key} must be one of {', '.join(choices)}, got {val!r}")
            if bound and not _OPS[bound[0]](val, bound[1]):
                raise ConfigError(f"{key} must be {bound[0]} {bound[1]}, got {val!r}")
        # the rules below tie keys to each other or to the kind
        steps = self.horizon / self.dt
        if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * steps:
            raise ConfigError(f"time.dt = {self.dt!r} does not divide time.horizon = "
                              f"{self.horizon!r} into a finite whole number of steps "
                              f"(horizon/dt = {steps:.6g})")
        if self.c == 0 and self.kind == "isometry":
            raise ConfigError("noise.c must be positive for kind 'isometry': "
                              "its z-scores divide by the noise variances")
        try:
            float(self.s_prime)
        except OverflowError:
            raise ConfigError(f"noise.s_prime has {len(str(abs(self.s_prime)))} digits, too "
                              f"many for a float: the regularity budget's weights "
                              f"(1+|k|^2)^s_prime need a float exponent") from None
        if self.alpha != 0 and self.kind != "simulate-averaged":
            raise ConfigError(f"alpha = {self.alpha!r} is not used by kind "
                              f"{self.kind!r}; only simulate-averaged reads alpha")
        if not math.isfinite(self.alpha * self.alpha):
            raise ConfigError(f"alpha = {self.alpha!r} is too large: the Helmholtz "
                              f"operator id - alpha^2 Lap needs a finite alpha^2")
        if self.kind == "energy-growth" and self.ensemble < 2:
            raise ConfigError("ensemble.size must be >= 2 for energy-growth")
        if self.kind == "equivalence" and math.ldexp(self.dt, -self.eq_levels) == 0:
            raise ConfigError(f"equivalence.levels = {self.eq_levels} halves time.dt = "
                              f"{self.dt!r} to 0: the finest step time.dt / 2^levels "
                              f"must be a positive float")
        return self

    def to_text(self) -> str:
        lines = [f"{key} = {_fmt(getattr(self, attr))}" for key, (attr, _) in _KEYMAP.items()]
        return "\n".join(lines) + "\n"

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()[:16]


# key -> (attribute, type), in field order; the hints are resolved once
_TYPES = typing.get_type_hints(ExperimentConfig)
_KEYMAP = {f.metadata["key"]: (f.name, _TYPES[f.name]) for f in fields(ExperimentConfig)}


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
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte 0x{data[exc.start]:02x} "
                          f"at offset {exc.start})") from None
    return parse_config_text(text)
