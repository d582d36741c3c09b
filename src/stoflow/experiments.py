"""Experiment orchestration: dispatch, ensembles, CSV artifacts, manifests.

All floating-point CSV values are written with 17 significant digits so
reruns are byte-identical; trajectories get their own derived RNG streams
and run one after another in index order.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import spectral as sp
from .config import ExperimentConfig
from .eulerian import run_eulerian
from .lagrangian import run_equivalence, uniform_labels
from .qwiener import QWienerSpec, build_spectrum, sample_coefficients
from .sde import SdeProblem, coarsen_increments, strong_convergence_order
from .streams import derive_stream

__all__ = ["RunManifest", "run_experiment", "initial_field", "brownian_exit_mean"]

Z_BOUND = 4.0


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _write_csv(path: Path, header: list, rows: list) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class RunManifest:
    config_hash: str
    code_version: str
    kind: str
    seeds: list
    wall_clock_s: float
    acceptance: dict
    files: list
    noise: dict | None = None
    exits: dict | None = None

    @property
    def all_passed(self) -> bool:
        return all(self.acceptance.values())

    def to_json(self) -> str:
        d = dict(config_hash=self.config_hash, code_version=self.code_version,
                 kind=self.kind, seeds=self.seeds, wall_clock_s=self.wall_clock_s,
                 acceptance=self.acceptance, files=self.files,
                 all_passed=self.all_passed, noise=self.noise, exits=self.exits)
        return json.dumps(d, indent=2, sort_keys=True)


def initial_field(cfg: ExperimentConfig) -> sp.SpectralField:
    if cfg.init_kind == "taylor-green":
        return sp.taylor_green(cfg.n, cfg.init_amplitude)
    if cfg.init_kind == "single-mode":
        return sp.single_mode_field(cfg.n, (cfg.init_kx, cfg.init_ky), cfg.init_amplitude)
    if cfg.init_kind == "random":
        rng = derive_stream(cfg.init_seed, "init")
        return sp.random_divergence_free(cfg.n, rng, cfg.init_slope, cfg.init_amplitude)
    return sp.SpectralField.zero(cfg.n)


# ---------------------------------------------------------------------------
# experiment kinds

def _exit_record(exit_times: list) -> dict:
    """How many paths left the localization ball, and the earliest and mean
    exit times (None when none left)."""
    return {"count": len(exit_times),
            "min_time": min(exit_times) if exit_times else None,
            "mean_time": float(np.mean(exit_times)) if exit_times else None}


def _run_simulate(cfg: ExperimentConfig, spec: QWienerSpec):
    u0 = initial_field(cfg)
    alpha = cfg.alpha if cfg.kind == "simulate-averaged" else 0.0
    steady = cfg.c == 0.0 and cfg.init_kind == "taylor-green"
    scale = sp.l2_norm(u0) or 1.0  # a zero field is steady: absolute drift

    rows, exit_times, max_div, max_drift = [], [], 0.0, 0.0
    for i in range(cfg.ensemble):
        rng = derive_stream(cfg.seed, i, "noise")
        p = run_eulerian(u0, spec, cfg.dt, cfg.horizon, scheme=cfg.scheme,
                         alpha=alpha, rng=rng, radius_factor=cfg.radius_factor)
        rows += [(i, j, t, p.energy[j], p.enstrophy[j], p.hs_norm[j], p.div_residual[j])
                 for j, t in enumerate(p.times)]
        max_div = max(max_div, float(np.max(p.div_residual)))
        if steady:
            max_drift = max(max_drift, sp.l2_norm(p.terminal - u0) / scale)
        if p.exited:
            exit_times.append(p.exit_time)
    header = ["traj", "step", "t", "energy", "enstrophy", "hs_norm", "div_residual"]

    acceptance = {"divergence_free": max_div < 1e-10}
    if steady:
        acceptance["taylor_green_steady"] = max_drift < 1e-8
    return {"diagnostics.csv": (header, rows)}, acceptance, _exit_record(exit_times)


def _run_equivalence(cfg: ExperimentConfig, spec: QWienerSpec):
    u0 = initial_field(cfg)
    labels = uniform_labels(cfg.eq_particles)
    levels = cfg.eq_levels
    nsteps0 = int(round(cfg.horizon / cfg.dt))
    finest_factor = 2 ** levels
    rng = derive_stream(cfg.seed, "equivalence")
    inc_fine = sample_coefficients(spec, cfg.dt / finest_factor,
                                   nsteps0 * finest_factor, rng)

    rows = []
    dts, residuals = [], []
    for lvl in range(levels + 1):
        factor = 2 ** lvl
        dt = cfg.dt / factor
        inc = coarsen_increments(inc_fine, finest_factor // factor)
        res = run_equivalence(u0, spec, dt, cfg.horizon, labels=labels,
                              increments=inc, radius_factor=cfg.radius_factor)
        rows.append((lvl, dt, res))
        dts.append(dt)
        residuals.append(res)

    acceptance = {}
    if cfg.c == 0.0:
        acceptance["deterministic_residual"] = residuals[-1] < 1e-6
        slope = float("nan")
    else:
        slope = float(np.polyfit(np.log(dts), np.log(residuals), 1)[0])
        acceptance["residual_decay_slope"] = 0.6 <= slope <= 1.4
    header = ["level", "dt", "residual"]
    files = {"equivalence.csv": (header, rows),
             "equivalence_summary.csv": (["slope"], [(slope,)])}
    return files, acceptance, None


def _run_convergence(cfg: ExperimentConfig, spec: None):
    rng = derive_stream(cfg.seed, "convergence")
    n_paths = max(cfg.ensemble, 64)
    steps = [8, 16, 32, 64, 128, 256]

    # additive-noise Ornstein-Uhlenbeck, Euler-Maruyama (strong order 1)
    ou = SdeProblem(dim=1, drift=lambda t, x: -x, diffusion=lambda x, dW: dW,
                    noise_variances=np.array([1.0]), x0=np.array([1.0]))
    ord_add, _, _ = strong_convergence_order(ou, "euler-maruyama", 1.0, steps,
                                             n_paths, rng)

    # scalar Stratonovich dX = X o dW against the exact exp(W_T)
    mult = SdeProblem(dim=1, drift=lambda t, x: np.zeros(1),
                      diffusion=lambda x, dW: x * dW,
                      noise_variances=np.array([1.0]), x0=np.array([1.0]))
    ord_mult, _, _ = strong_convergence_order(
        mult, "heun", 1.0, steps, n_paths, rng,
        exact=lambda wT: np.exp(wT))

    # zero noise, smooth drift: Heun is the order-2 ODE method
    ode = SdeProblem(dim=1, drift=lambda t, x: np.sin(x) + 0.5,
                     diffusion=lambda x, dW: np.zeros(1),
                     noise_variances=np.array([1.0]), x0=np.array([0.3]))
    ord_ode, _, _ = strong_convergence_order(
        ode, "heun", 1.0, [8, 16, 32, 64], 1, rng,
        exact=None)

    rows = [("em-additive", ord_add, 0.7, 1.3, int(0.7 <= ord_add <= 1.3)),
            ("heun-stratonovich", ord_mult, 0.5, 1.3, int(0.5 <= ord_mult <= 1.3)),
            ("heun-deterministic", ord_ode, 1.6, 2.4, int(1.6 <= ord_ode <= 2.4))]
    header = ["benchmark", "order", "lo", "hi", "pass"]
    acceptance = {r[0]: bool(r[4]) for r in rows}
    return {"convergence.csv": (header, rows)}, acceptance, None


def _run_isometry(cfg: ExperimentConfig, spec: QWienerSpec):
    n = max(cfg.ensemble, 10_000)
    rng = derive_stream(cfg.seed, "isometry")
    T = 1.0
    w = sample_coefficients(spec, T, n, rng)  # W(1) coordinates per path

    lam = spec.mode_variances
    # per-mode variance z-scores (chi-square normal approximation)
    var_hat = np.var(w, axis=0)
    z_var = (var_hat / (lam * T) - 1.0) * np.sqrt(n / 2.0)
    # cross-mode correlations, z = r sqrt(n)
    std = np.sqrt(lam * T)
    wn = w / std
    corr = (wn.T @ wn) / n
    off = corr[~np.eye(len(lam), dtype=bool)]
    z_cross = off * np.sqrt(n)
    # Ito isometry: E |W(1)|^2 = trace(Q)
    sq = np.sum(w**2, axis=1)
    se = np.std(sq, ddof=1) / np.sqrt(n)
    z_iso = (np.mean(sq) - spec.trace) / se
    # zero mean
    mean_z = np.mean(w, axis=0) / (std / np.sqrt(n))

    rows = [("ito_isometry_z", z_iso),
            ("max_mode_variance_z", float(np.max(np.abs(z_var)))),
            ("max_cross_covariance_z", float(np.max(np.abs(z_cross)))),
            ("max_mean_z", float(np.max(np.abs(mean_z)))),
            ("empirical_second_moment", float(np.mean(sq))),
            ("trace_q", spec.trace)]
    header = ["quantity", "value"]
    acceptance = {
        "ito_isometry": abs(z_iso) < Z_BOUND,
        "mode_variances": bool(np.max(np.abs(z_var)) < Z_BOUND),
        "cross_covariances": bool(np.max(np.abs(z_cross)) < Z_BOUND),
        "zero_mean": bool(np.max(np.abs(mean_z)) < Z_BOUND),
    }
    return {"isometry.csv": (header, rows)}, acceptance, None


def _run_energy_growth(cfg: ExperimentConfig, spec: QWienerSpec):
    u0 = initial_field(cfg)
    e0 = sp.l2_norm(u0) ** 2

    terminal, exit_times, max_div = np.empty(cfg.ensemble), [], 0.0
    for i in range(cfg.ensemble):
        rng = derive_stream(cfg.seed, i, "noise")
        p = run_eulerian(u0, spec, cfg.dt, cfg.horizon, scheme=cfg.scheme,
                         rng=rng, radius_factor=cfg.radius_factor)
        terminal[i] = p.energy[-1]
        max_div = max(max_div, float(np.max(p.div_residual)))
        if p.exited:
            exit_times.append(p.exit_time)

    slopes = (terminal - e0) / cfg.horizon
    slope = float(np.mean(slopes))
    se = float(np.std(slopes, ddof=1) / np.sqrt(len(slopes)))
    z = (slope - spec.trace) / se if se > 0 else 0.0

    rows = [(i, e) for i, e in enumerate(terminal)]
    summary = [(slope, se, spec.trace, z)]
    acceptance = {"energy_growth_slope": abs(z) < Z_BOUND,
                  "divergence_free": max_div < 1e-10}
    return {"energy.csv": (["traj", "terminal_energy"], rows),
            "energy_summary.csv": (["slope", "stderr", "trace_q", "z"], summary)}, \
        acceptance, _exit_record(exit_times)


def _drawn_streams(cfg: ExperimentConfig) -> list:
    """Labels "<seed>:<keys>" of the RNG streams a run of cfg draws."""
    streams = []
    if cfg.init_kind == "random" and cfg.kind not in ("convergence", "isometry"):
        streams.append(f"{cfg.init_seed}:init")
    if cfg.kind in ("equivalence", "convergence", "isometry"):
        return streams + [f"{cfg.seed}:{cfg.kind}"]
    return streams + [f"{cfg.seed}:{i}:noise" for i in range(cfg.ensemble)]


_RUNNERS = {
    "simulate-euler": _run_simulate,
    "simulate-averaged": _run_simulate,
    "equivalence": _run_equivalence,
    "convergence": _run_convergence,
    "isometry": _run_isometry,
    "energy-growth": _run_energy_growth,
}


def run_experiment(cfg: ExperimentConfig, out_dir=None, threads: int = 1) -> RunManifest:
    """Dispatch one experiment, write its CSV artifacts and manifest.

    Returns the manifest; `manifest.all_passed` reflects the embedded
    acceptance checks for that experiment kind.  `threads` is accepted
    and ignored: trajectories run sequentially, because a thread pool
    was slower than one thread on these small NumPy calls.
    """
    cfg.validate()
    t0 = time.perf_counter()
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # every kind but convergence draws its noise from one Q-Wiener spectrum
    spec = None if cfg.kind == "convergence" else \
        build_spectrum(cfg.n, cfg.gamma, cfg.c, cfg.s_prime)
    files, acceptance, exits = _RUNNERS[cfg.kind](cfg, spec)
    acceptance = {k: bool(v) for k, v in acceptance.items()}
    written = []
    for name, (header, rows) in files.items():
        _write_csv(out / name, header, rows)
        written.append(name)

    manifest = RunManifest(
        config_hash=cfg.content_hash(),
        code_version=__version__,
        kind=cfg.kind,
        seeds=_drawn_streams(cfg),
        wall_clock_s=time.perf_counter() - t0,
        acceptance=acceptance,
        files=sorted(written),
        noise=None if spec is None else {
            "trace_q": spec.trace,
            "regularity_budget": spec.regularity_budget(),
            "converges_in_limit": spec.converges_in_limit,
        },
        exits=exits,
    )
    (out / "manifest.json").write_text(manifest.to_json() + "\n", encoding="utf-8")
    (out / "config.txt").write_text(cfg.to_text(), encoding="utf-8")
    return manifest


def brownian_exit_mean(R: float, dt: float, n_paths: int,
                       rng: np.random.Generator, t_max: float = 50.0) -> float:
    """Mean first grid time |W_t| > R for scalar Brownian paths from 0.

    Batched over paths; exit checked at grid times only, like solve_path.
    The continuum value is R^2.
    """
    x = np.zeros(n_paths)
    exit_t = np.full(n_paths, np.nan)
    alive = np.ones(n_paths, dtype=bool)
    nsteps = int(round(t_max / dt))
    sqdt = np.sqrt(dt)
    for i in range(1, nsteps + 1):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        x[idx] += sqdt * rng.standard_normal(idx.size)
        crossed = idx[np.abs(x[idx]) > R]
        exit_t[crossed] = i * dt
        alive[crossed] = False
    if np.any(alive):
        raise RuntimeError("some paths never exited within t_max")
    return float(np.mean(exit_t))
