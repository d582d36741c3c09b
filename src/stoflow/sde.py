"""Finite-dimensional SDE engine: Ito / Stratonovich steppers, the
Ito-Stratonovich drift correction, exit-time localization, and strong
convergence-order estimation.

Noise is a vector of independent Gaussian coordinates with per-coordinate
variances (the diagonal of Q in its eigenbasis); an increment over dt has
coordinate j distributed N(0, lambda_j dt).  The diffusion is given by its
action: `diffusion(x, dW)` returns the state-space increment sigma(x) dW,
so sigma never has to exist as a matrix.  States are real or complex
arrays of any shape; the steppers only add and scale them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "SdeProblem",
    "PathResult",
    "SdePathError",
    "step_euler_maruyama",
    "step_heun_stratonovich",
    "stratonovich_correction",
    "sample_increments",
    "solve_path",
    "coarsen_increments",
    "strong_convergence_order",
]


class SdePathError(RuntimeError):
    """A path produced non-finite state; carries the offending step index."""

    def __init__(self, step: int, t: float):
        super().__init__(f"non-finite state at step {step}, t={t}")
        self.step = step
        self.t = t


@dataclass(frozen=True)
class SdeProblem:
    """dX = b(t, X) dt + sigma(X) dW on a localization ball U.

    `diffusion(x, dW)` is sigma(x) dW, an array shaped like the state.
    `dim` counts the real degrees of freedom of the state (a complex entry
    counts twice); `noise_variances` has one entry per noise coordinate.
    U is the closed ball of radius `domain_radius` about the origin in the
    norm `domain_norm` (Euclidean when None); paths are certified only up
    to the first grid time they leave U.
    """

    dim: int
    drift: Callable[[float, np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray, np.ndarray], np.ndarray]
    noise_variances: np.ndarray
    x0: np.ndarray
    domain_radius: float = np.inf
    domain_norm: Optional[Callable[[np.ndarray], float]] = None

    def outside(self, x: np.ndarray) -> bool:
        """Whether the state x lies outside U."""
        norm = self.domain_norm if self.domain_norm is not None else np.linalg.norm
        return float(norm(x)) > self.domain_radius


@dataclass
class PathResult:
    """Time grid and states up to (and including) the exit-time state;
    `states` has one row per grid time, shape (len(times), *x0.shape)."""

    times: np.ndarray
    states: np.ndarray
    exited: bool
    exit_time: Optional[float]
    exit_index: Optional[int]

    @property
    def terminal(self) -> np.ndarray:
        return self.states[-1]


def step_euler_maruyama(problem: SdeProblem, t: float, x: np.ndarray,
                        dW: np.ndarray, dt: float) -> np.ndarray:
    """x + b(t,x) dt + sigma(x) dW."""
    return x + problem.drift(t, x) * dt + problem.diffusion(x, dW)


def step_heun_stratonovich(problem: SdeProblem, t: float, x: np.ndarray,
                           dW: np.ndarray, dt: float) -> np.ndarray:
    """Predictor-corrector (Heun) step targeting the Stratonovich solution.

    Predictor: xp = x + b(t,x) dt + sigma(x) dW
    Corrector: x + (b(t,x) + b(t+dt,xp))/2 dt + (sigma(x) + sigma(xp))/2 dW

    Reduces to second-order Heun for the ODE when the noise is off.  For
    additive noise the two diffusion terms are equal and their average is
    exact.
    """
    b0 = problem.drift(t, x)
    n0 = problem.diffusion(x, dW)
    xp = x + b0 * dt + n0
    b1 = problem.drift(t + dt, xp)
    n1 = problem.diffusion(xp, dW)
    return x + 0.5 * (b0 + b1) * dt + 0.5 * (n0 + n1)


_STEPPERS = {
    "euler-maruyama": step_euler_maruyama,
    "heun": step_heun_stratonovich,
}


def stratonovich_correction(problem: SdeProblem, x: np.ndarray,
                            h: Optional[float] = None) -> np.ndarray:
    """Drift correction (1/2) tr[sigma'(x) sigma(x) Q] by central differences.

    Converts a Stratonovich drift into the equivalent Ito drift:
    b_ito = b_strat + correction.  Works for a black-box diffusion: column
    j of sigma(y) is diffusion(y, e_j).
    """
    if h is None:
        h = 1e-5 * (1.0 + float(np.linalg.norm(x)))
    lam = np.asarray(problem.noise_variances, dtype=float)
    out = np.zeros(np.shape(x), dtype=np.result_type(x, float))
    for j in range(len(lam)):
        if lam[j] == 0.0:
            continue
        e = np.zeros(len(lam))
        e[j] = 1.0
        v = problem.diffusion(x, e)
        if not np.any(v):
            continue
        col_plus = problem.diffusion(x + h * v, e)
        col_minus = problem.diffusion(x - h * v, e)
        out += lam[j] * (col_plus - col_minus) / (2.0 * h)
    return 0.5 * out


def sample_increments(problem: SdeProblem, t_grid: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
    """Gaussian increments dW for each step of the grid, shape (nsteps, m)."""
    dts = np.diff(t_grid)
    lam = np.asarray(problem.noise_variances, dtype=float)
    xi = rng.standard_normal((len(dts), len(lam)))
    return xi * np.sqrt(lam[None, :] * dts[:, None])


def solve_path(problem: SdeProblem, scheme: str, t_grid: np.ndarray,
               increments: np.ndarray) -> PathResult:
    """Integrate on the grid until the end or the first exit from U.

    The output is a pure function of (problem, scheme, grid, increments).
    """
    stepper = _STEPPERS[scheme]
    t_grid = np.asarray(t_grid, dtype=float)
    nsteps = len(t_grid) - 1
    x = np.array(problem.x0, dtype=np.result_type(problem.x0, float))

    if problem.outside(x):
        raise ValueError("initial state outside the localization domain U")
    if increments.shape[0] != nsteps:
        raise ValueError("increment array does not match the time grid")

    states = np.empty((nsteps + 1,) + x.shape, dtype=x.dtype)
    states[0] = x
    for i in range(nsteps):
        dt = t_grid[i + 1] - t_grid[i]
        x = stepper(problem, t_grid[i], x, increments[i], dt)
        if not np.all(np.isfinite(x)):
            raise SdePathError(i, float(t_grid[i + 1]))
        states[i + 1] = x
        if problem.outside(x):
            return PathResult(times=t_grid[: i + 2], states=states[: i + 2],
                              exited=True, exit_time=float(t_grid[i + 1]),
                              exit_index=i + 1)
    return PathResult(times=t_grid, states=states, exited=False,
                      exit_time=None, exit_index=None)


def coarsen_increments(increments: np.ndarray, factor: int) -> np.ndarray:
    """Sum blocks of `factor` fine increments into coarse ones."""
    n = increments.shape[0]
    if n % factor != 0:
        raise ValueError("increment count not divisible by coarsening factor")
    return increments.reshape(n // factor, factor, -1).sum(axis=1)


def strong_convergence_order(problem: SdeProblem, scheme: str, T: float,
                             steps: Sequence[int], n_paths: int,
                             rng: np.random.Generator,
                             exact: Optional[Callable[[np.ndarray], np.ndarray]] = None):
    """Estimate the strong order from coupled-noise refinement.

    `steps` must be >= 3 step counts in increasing geometric progression;
    coarse increments are block sums of the finest ones so all levels share
    one driving path.  The reference at time T is `exact(W_T)` when given,
    otherwise the finest-grid solution.  Returns (order, dts, rms_errors).
    """
    steps = sorted(int(n) for n in steps)
    if len(steps) < 3:
        raise ValueError("need at least 3 step counts")
    finest = steps[-1]
    for n in steps:
        if finest % n != 0:
            raise ValueError("step counts must divide the finest count")

    compare = steps if exact is not None else steps[:-1]
    errs = np.zeros(len(compare))
    for _ in range(n_paths):
        grid_f = np.linspace(0.0, T, finest + 1)
        inc_f = sample_increments(problem, grid_f, rng)
        if exact is not None:
            ref = exact(inc_f.sum(axis=0))
        else:
            ref = solve_path(problem, scheme, grid_f, increments=inc_f).terminal
        for i, n in enumerate(compare):
            grid = np.linspace(0.0, T, n + 1)
            inc = coarsen_increments(inc_f, finest // n)
            sol = solve_path(problem, scheme, grid, increments=inc).terminal
            errs[i] += np.sum((sol - ref) ** 2)
    rms = np.sqrt(errs / n_paths)
    if np.any(rms == 0.0):
        raise ValueError("degenerate (zero) strong errors; cannot fit an order")
    dts = np.array([T / n for n in compare])
    order = float(np.polyfit(np.log(dts), np.log(rms), 1)[0])
    return order, dts, rms
