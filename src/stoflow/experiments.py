"""Experiment orchestration: dispatch, ensembles, CSV artifacts, manifests.

All floating-point CSV values are written with 17 significant digits so
reruns are byte-identical; each trajectory draws its own derived RNG
stream, and an ensemble's paths are split into contiguous ranges of path
indices, one per worker process, each stepped as chunks of paths in one
stack; the rows are put back in index order, so the bytes depend neither
on the chunk size nor on the number of workers.  Ensembles keep no path:
each path's noise is drawn one step of time.dt at a time as the stack
reaches it, and each range's chunks are reduced a block of grid times at
a time as they are stepped, to the four per-row diagnostics, in the one
runner every ensemble kind shares (_run_ensemble).
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
import time
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from . import spectral as sp
from .config import ExperimentConfig
from .eulerian import _diagnostics, _velocity_blocks
from .lagrangian import run_equivalence, uniform_labels
from .qwiener import QWienerSpec, build_spectrum, sample_coefficients
from .sde import SdeProblem, coarsen_increments, strong_convergence_order
from .streams import derive_stream

__all__ = ["RunManifest", "run_experiment", "initial_field"]

Z_BOUND = 4.0
# paths stepped as one stack: a chunk's transport-kernel grid values
# (paths x 4 x Mg^2 x 8 B, Mg the product grid) stay within this, which
# gives 8 paths at N = 16 (Mg = 50) and 32 at N = 8 (Mg = 25).  Per-path
# advection_term cost with lent buffers (timeit, best of 9-15 repeats,
# three runs, 2-vCPU host, NumPy 2.4):
#   N = 16: 142-184 us at 1 path, 129-179 at 2, 157-180 at 6, 107-121 at 8,
#           128-163 at 32
#   N = 8:   78-95 us at 1 path, 44-50 at 8, 32-39 at 32
# so both resolutions sit near their best stack with one constant; every
# other per-step call (velocity, noise, Heun sums, exit check) is also paid
# once per stack.  No path is kept, so it bounds the stepping work of a
# chunk, not a history
_CHUNK_BYTES = 5 * 2**17
# the kinds that step an ensemble of paths, split over `threads` workers
_ENSEMBLE_KINDS = ("simulate-euler", "simulate-averaged", "energy-growth")


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
    workers: int = 1

    @property
    def all_passed(self) -> bool:
        return all(self.acceptance.values())

    def to_json(self) -> str:
        # allow_nan=False: NaN and Infinity are not JSON (RFC 8259)
        return json.dumps(asdict(self) | {"all_passed": self.all_passed},
                          indent=2, sort_keys=True, allow_nan=False)


def initial_field(cfg: ExperimentConfig) -> np.ndarray:
    """Velocity coefficients (2, M, M) of the configured initial field."""
    if cfg.init_kind == "taylor-green":
        return sp.taylor_green(cfg.n, cfg.init_amplitude)
    if cfg.init_kind == "single-mode":
        try:
            return sp.single_mode_field(cfg.n, (cfg.init_kx, cfg.init_ky), cfg.init_amplitude)
        except ValueError as exc:
            raise ValueError(f"init.kx = {cfg.init_kx}, init.ky = {cfg.init_ky} at "
                             f"grid.n = {cfg.n}: {exc}") from None
    if cfg.init_kind == "random":
        rng = derive_stream(cfg.init_seed, "init")
        return sp.random_divergence_free(cfg.n, rng, cfg.init_slope, cfg.init_amplitude)
    M = 2 * cfg.n + 1
    return np.zeros((2, M, M), dtype=complex)


# ---------------------------------------------------------------------------
# experiment kinds

def _nsteps(cfg: ExperimentConfig) -> int:
    return int(round(cfg.horizon / cfg.dt))


def _time_grid(cfg: ExperimentConfig) -> np.ndarray:
    """The times of the rows, for the CSV `t` column and the exit times."""
    return np.linspace(0.0, _nsteps(cfg) * cfg.dt, _nsteps(cfg) + 1)


def _workers(cfg: ExperimentConfig, threads: int) -> int:
    """Processes an ensemble kind steps its paths in: at most `threads`,
    one per path and one per CPU this process may run on; 1 for the other
    kinds and where os.fork does not exist."""
    if cfg.kind not in _ENSEMBLE_KINDS or not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(threads, cfg.ensemble, cpus)


def _over_ranges(size: int, workers: int, reduce) -> list:
    """[reduce(paths) for each of `workers` contiguous ranges of range(size)],
    in index order, the range sizes differing by at most one.

    The first range is reduced in this process and each other one in a
    child forked for it, which pickles its result (or its exception) onto a
    pipe and leaves by os._exit; with one worker nothing is forked.  Every
    pipe is read before its child is reaped.  If a range raises, every
    child is killed and reaped, and the exception of the lowest failing
    range is raised; no child outlives the call either way.
    """
    ranges = [range(size * i // workers, size * (i + 1) // workers) for i in range(workers)]
    children = []  # (pid, read end of its pipe) per range after the first
    done = False
    try:
        for paths in ranges[1:]:
            children.append(_fork(reduce, paths))
        results = [reduce(ranges[0])]
        for _, pipe in children:
            with pipe:
                data = pipe.read()
            if not data:
                raise ChildProcessError("an ensemble worker ended without a result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        done = True
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            if not done:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork(reduce, paths: range):
    """Fork a child that sends (True, reduce(paths)) or (False, the exception
    it raised) pickled on a pipe and exits; returns its pid and the read end."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(r)
            try:
                data = pickle.dumps((True, reduce(paths)), pickle.HIGHEST_PROTOCOL)
            except BaseException as exc:  # handed to the parent, which raises it
                data = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
            with open(w, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(w)  # so that a later child holds no write end of this pipe
    return pid, open(r, "rb")


def _increments(cfg: ExperimentConfig, spec: QWienerSpec, nsteps: int, paths: range):
    """Yields the increments of the paths as step_paths reads them: one row
    (len(paths), n_modes) per step of cfg.dt, pulled as the step needs it.  Path
    i draws derive_stream(cfg.seed, i, "noise") a step at a time, in place
    and scaled in place, so its rows are those of sample_coefficients(spec,
    cfg.dt, nsteps, that stream) bit for bit.  Every row is the same
    buffer, overwritten by the next one."""
    rngs = [derive_stream(cfg.seed, i, "noise") for i in paths]
    scale = np.sqrt(spec.mode_variances * cfg.dt)
    row = np.empty((len(paths), spec.n_modes))
    for _ in range(nsteps):
        for rng, w in zip(rngs, row):
            rng.standard_normal(out=w)
        row *= scale
        yield row


def _ensemble_range(cfg: ExperimentConfig, spec: QWienerSpec, u0: np.ndarray,
                    paths: range):
    """Steps the paths `paths` a chunk at a time, each chunk at most
    _CHUNK_BYTES of transport-kernel grid values, and returns the
    diagnostics (4, len(paths), grid times) of their velocity rows
    (eulerian._diagnostics: energy, enstrophy, H^s norm, divergence
    residual), their exit indices, and the L2 distance (len(paths),) of
    each path's last row (a stopped path's exit row) from u0.  A chunk
    keeps one row of its increments and its latest rows, never its path."""
    size = max(1, _CHUNK_BYTES // (4 * sp._dealias_grid_size(cfg.n) ** 2 * 8))
    diags, exits, drifts = [], [], []
    for first in range(paths.start, paths.stop, size):
        chunk = range(first, min(first + size, paths.stop))
        parts = []
        for u, hs, exit_index in _velocity_blocks(
                u0, spec, cfg.dt, _increments(cfg, spec, _nsteps(cfg), chunk),
                scheme=cfg.scheme, alpha=cfg.alpha, radius_factor=cfg.radius_factor):
            parts.append(_diagnostics(u, hs))
        diags.append(np.concatenate(parts, axis=-1))
        exits.append(exit_index)
        drifts.append(sp.l2_norm(u[:, -1] - u0))
    return np.concatenate(diags, axis=-2), np.concatenate(exits), np.concatenate(drifts)


def _run_ensemble(cfg: ExperimentConfig, spec: QWienerSpec, workers: int):
    """The configured ensemble stepped over `workers` ranges of paths (see
    _over_ranges): u0, the ranges' _ensemble_range results joined in path
    order, and the exit record: how many paths left the localization ball,
    and the earliest and mean exit times (None when none left)."""
    u0 = initial_field(cfg)
    diags, exit_indices, drifts = zip(*_over_ranges(
        cfg.ensemble, workers, partial(_ensemble_range, cfg, spec, u0)))
    exit_index = np.concatenate(exit_indices)
    times = _time_grid(cfg)[exit_index[exit_index >= 0]].tolist()
    return u0, np.concatenate(diags, axis=-2), exit_index, np.concatenate(drifts), {
        "count": len(times), "min_time": min(times) if times else None,
        "mean_time": float(np.mean(times)) if times else None}


def _run_simulate(cfg: ExperimentConfig, spec: QWienerSpec, workers: int):
    u0, diag, exit_index, drift, exits = _run_ensemble(cfg, spec, workers)
    times = _time_grid(cfg)

    rows = []
    for k, e in enumerate(exit_index):
        rows += [(k, j, *r) for j, r in
                 enumerate(zip(times[:e + 1 if e >= 0 else None], *diag[:, k]))]
    header = ["traj", "step", "t", "energy", "enstrophy", "hs_norm", "div_residual"]

    acceptance = {"divergence_free": float(np.max(diag[3])) < 1e-10}
    if cfg.c == 0.0 and cfg.init_kind == "taylor-green":
        # the largest drift of a last row relative to |u0|; a zero field is
        # steady: absolute drift
        acceptance["taylor_green_steady"] = np.max(drift) / (sp.l2_norm(u0) or 1.0) < 1e-8
    return {"diagnostics.csv": (header, rows)}, acceptance, exits


def _run_equivalence(cfg: ExperimentConfig, spec: QWienerSpec, workers: int):
    u0 = initial_field(cfg)
    labels = uniform_labels(cfg.eq_particles)
    levels = cfg.eq_levels
    finest_factor = 2 ** levels
    rng = derive_stream(cfg.seed, "equivalence")
    # the same value as cfg.dt / finest_factor, which overflows past 2^1023
    inc_fine = sample_coefficients(spec, math.ldexp(cfg.dt, -levels),
                                   _nsteps(cfg) * finest_factor, rng)

    rows = []  # (level, dt, residual)
    for lvl in range(levels + 1):
        factor = 2 ** lvl
        dt = cfg.dt / factor
        inc = coarsen_increments(inc_fine, finest_factor // factor)
        rows.append((lvl, dt, run_equivalence(u0, spec, dt, labels=labels, increments=inc,
                                              radius_factor=cfg.radius_factor)))
    _, dts, residuals = zip(*rows)

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


def _run_convergence(cfg: ExperimentConfig, spec: None, workers: int):
    rng = derive_stream(cfg.seed, "convergence")
    n_paths = max(cfg.ensemble, 64)
    steps = [8, 16, 32, 64, 128, 256]

    # additive-noise Ornstein-Uhlenbeck, Euler-Maruyama (strong order 1)
    ou = SdeProblem(drift=lambda x: -x, diffusion=lambda x, dW: dW,
                    noise_variances=np.array([1.0]), x0=np.array([1.0]))
    ord_add, _, _ = strong_convergence_order(ou, "euler-maruyama", 1.0, steps,
                                             n_paths, rng)

    # scalar Stratonovich dX = X o dW against the exact exp(W_T)
    mult = SdeProblem(drift=lambda x: np.zeros(1),
                      diffusion=lambda x, dW: x * dW,
                      noise_variances=np.array([1.0]), x0=np.array([1.0]))
    ord_mult, _, _ = strong_convergence_order(
        mult, "heun", 1.0, steps, n_paths, rng,
        exact=lambda wT: np.exp(wT))

    # zero noise, smooth drift: Heun is the order-2 ODE method
    ode = SdeProblem(drift=lambda x: np.sin(x) + 0.5,
                     diffusion=lambda x, dW: np.zeros(1),
                     noise_variances=np.array([1.0]), x0=np.array([0.3]))
    ord_ode, _, _ = strong_convergence_order(
        ode, "heun", 1.0, [8, 16, 32, 64], 1, rng,
        exact=None)

    bands = [("em-additive", ord_add, 0.7, 1.3),
             ("heun-stratonovich", ord_mult, 0.5, 1.3),
             ("heun-deterministic", ord_ode, 1.6, 2.4)]
    rows = [(name, order, lo, hi, int(lo <= order <= hi)) for name, order, lo, hi in bands]
    header = ["benchmark", "order", "lo", "hi", "pass"]
    acceptance = {r[0]: bool(r[4]) for r in rows}
    return {"convergence.csv": (header, rows)}, acceptance, None


def _run_isometry(cfg: ExperimentConfig, spec: QWienerSpec, workers: int):
    lam = spec.mode_variances
    given = f"noise.gamma = {cfg.gamma:g}, noise.c = {cfg.c:g} and grid.n = {cfg.n} give"
    bad = np.count_nonzero(~(np.isfinite(lam) & (lam > 0)))
    if bad:  # a variance of 0 leaves the z-scores nan, as noise.c = 0 would
        raise ValueError(f"{given} {bad} of {len(lam)} mode variances of 0 or not "
                         f"finite; the isometry checks need them positive")
    n = max(cfg.ensemble, 10_000)
    rng = derive_stream(cfg.seed, "isometry")
    T = 1.0
    w = sample_coefficients(spec, T, n, rng)  # W(1) coordinates per path

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
    if not (np.isfinite(se) and se > 0):  # |W(1)|^2's spread overflowed or underflowed
        raise ValueError(f"{given} a standard error {se:g} of |W(1)|^2; the Ito "
                         f"isometry check needs it positive and finite")
    second_moment = np.mean(sq)
    z_iso = (second_moment - spec.trace) / se
    # zero mean
    mean_z = np.mean(w, axis=0) / (std / np.sqrt(n))

    # (check, quantity, z): each check passes when |z| < Z_BOUND
    zs = [("ito_isometry", "ito_isometry_z", z_iso),
          ("mode_variances", "max_mode_variance_z", np.max(np.abs(z_var))),
          ("cross_covariances", "max_cross_covariance_z", np.max(np.abs(z_cross))),
          ("zero_mean", "max_mean_z", np.max(np.abs(mean_z)))]
    rows = [(quantity, z) for _, quantity, z in zs]
    rows += [("empirical_second_moment", second_moment), ("trace_q", spec.trace)]
    header = ["quantity", "value"]
    acceptance = {check: abs(z) < Z_BOUND for check, _, z in zs}
    return {"isometry.csv": (header, rows)}, acceptance, None


def _run_energy_growth(cfg: ExperimentConfig, spec: QWienerSpec, workers: int):
    u0, diag, _, _, exits = _run_ensemble(cfg, spec, workers)
    terminal = diag[0, :, -1]  # a stopped path's energy at its exit row
    slopes = (terminal - sp.l2_norm(u0) ** 2) / cfg.horizon
    slope = float(np.mean(slopes))
    se = float(np.std(slopes, ddof=1) / np.sqrt(len(slopes)))
    z = (slope - spec.trace) / se if se > 0 else 0.0

    rows = [(i, e) for i, e in enumerate(terminal)]
    summary = [(slope, se, spec.trace, z)]
    acceptance = {"energy_growth_slope": abs(z) < Z_BOUND,
                  "divergence_free": float(np.max(diag[3])) < 1e-10}
    return {"energy.csv": (["traj", "terminal_energy"], rows),
            "energy_summary.csv": (["slope", "stderr", "trace_q", "z"], summary)}, \
        acceptance, exits


def _drawn_streams(cfg: ExperimentConfig) -> list:
    """Labels "<seed>:<keys>" of the RNG streams a run of cfg draws."""
    streams = []
    if cfg.init_kind == "random" and cfg.kind not in ("convergence", "isometry"):
        streams.append(f"{cfg.init_seed}:init")
    if cfg.kind in _ENSEMBLE_KINDS:
        return streams + [f"{cfg.seed}:{i}:noise" for i in range(cfg.ensemble)]
    return streams + [f"{cfg.seed}:{cfg.kind}"]


def _noise_record(cfg: ExperimentConfig, spec: QWienerSpec) -> dict:
    """The manifest's `noise` record at s' = noise.s_prime; a regularity
    budget that is not finite is a ValueError naming the keys that set it,
    raised before any run.  The budget stays finite as N -> infinity iff
    2 gamma - 2 s' > 2 (lambda_k = c (1+|k|^2)^(-gamma), dimension 2)."""
    budget = spec.regularity_budget(cfg.s_prime)
    if not np.isfinite(budget):
        raise ValueError(f"noise.s_prime = {cfg.s_prime}, noise.gamma = {cfg.gamma:g}, "
                         f"noise.c = {cfg.c:g} and grid.n = {cfg.n} give a regularity "
                         f"budget {budget:g}; the manifest needs it finite")
    return {"trace_q": spec.trace, "regularity_budget": budget,
            "converges_in_limit": 2.0 * cfg.gamma - 2.0 * cfg.s_prime > 2.0}


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
    acceptance checks for that experiment kind.  `threads` (at least 1)
    bounds the processes an ensemble kind (`simulate-*`, `energy-growth`)
    steps its paths in: min(threads, ensemble.size, usable CPUs) workers,
    each a contiguous range of path indices, the first stepped in this
    process and the others in children forked for the call and reaped
    before it returns or raises (see _over_ranges).  The other kinds run
    in this process.  The CSV bytes do not depend on `threads`; the
    manifest's `workers` says how many processes ran.  The output directory
    is made only once the runner has returned, so a run that raises leaves
    none behind.
    """
    cfg.validate()
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    t0 = time.perf_counter()

    # every kind but convergence draws its noise from one Q-Wiener spectrum
    spec = None if cfg.kind == "convergence" else \
        build_spectrum(cfg.n, cfg.gamma, cfg.c)
    noise = None if spec is None else _noise_record(cfg, spec)
    workers = _workers(cfg, threads)
    files, acceptance, exits = _RUNNERS[cfg.kind](cfg, spec, workers)
    acceptance = {k: bool(v) for k, v in acceptance.items()}
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)  # only once the run has results
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
        noise=noise,
        exits=exits,
        workers=workers,
    )
    (out / "manifest.json").write_text(manifest.to_json() + "\n", encoding="utf-8")
    (out / "config.txt").write_text(cfg.to_text(), encoding="utf-8")
    return manifest

