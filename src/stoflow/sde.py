"""Finite-dimensional SDE engine: Ito / Stratonovich steppers, exit-time
localization, and strong convergence-order estimation.

Noise is a vector of independent Gaussian coordinates with per-coordinate
variances (the diagonal of Q in its eigenbasis); an increment over dt has
coordinate j distributed N(0, lambda_j dt).  The diffusion is given by its
action: `diffusion(x, dW)` returns the state-space increment sigma(x) dW,
so sigma never has to exist as a matrix.  States are real or complex
arrays of any shape; the steppers only add and scale them.  An ensemble is
one stack of states with a leading path axis: `step_paths` steps it by
one dt per noise row (K, m), pulled as the step needs it; it is the only
way a path is stepped, and no path is collected.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "SdeProblem",
    "SdePathError",
    "step_euler_maruyama",
    "step_heun_stratonovich",
    "sample_increments",
    "step_paths",
    "coarsen_increments",
    "strong_convergence_order",
]


class SdePathError(RuntimeError):
    """A path produced a non-finite state or domain norm; the message names
    the row the failing step started from and the time it reached, or, for
    an initial state out of range before any step, what was not finite."""


@dataclass(frozen=True)
class SdeProblem:
    """dX = b(X) dt + sigma(X) dW on a localization ball U.

    `drift(x)`, `diffusion(x, dW)` = sigma(x) dW and `domain_norm(x)` act
    on a stack x (K, *x0.shape) of paths, dW (K, m); the norm gives one
    value per path.  `dim` counts the real degrees of freedom of x0 (a
    complex entry counts twice); `noise_variances` has one entry per noise
    coordinate.  U is the closed ball of radius `domain_radius` about the
    origin in the norm `domain_norm` (by default the Euclidean norm of each
    flattened state); paths are certified only up to their first row outside U.
    """

    drift: Callable[[np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray, np.ndarray], np.ndarray]
    noise_variances: np.ndarray
    x0: np.ndarray
    domain_radius: float = np.inf
    domain_norm: Callable[[np.ndarray], np.ndarray] = \
        lambda x: np.linalg.norm(x.reshape(len(x), -1), axis=1)

    @property
    def dim(self) -> int:
        """Read only by bench/spans.py, which sizes sigma from it; it goes
        with that tracer."""
        return self.x0.size * (2 if np.iscomplexobj(self.x0) else 1)


def step_euler_maruyama(problem: SdeProblem, x: np.ndarray,
                        dW: np.ndarray, dt: float) -> np.ndarray:
    """x + b(x) dt + sigma(x) dW."""
    return x + problem.drift(x) * dt + problem.diffusion(x, dW)


def step_heun_stratonovich(problem: SdeProblem, x: np.ndarray,
                           dW: np.ndarray, dt: float) -> np.ndarray:
    """Predictor-corrector (Heun) step targeting the Stratonovich solution.

    Predictor: xp = x + b(x) dt + sigma(x) dW
    Corrector: x + (b(x) + b(xp))/2 dt + (sigma(x) + sigma(xp))/2 dW

    Reduces to second-order Heun for the ODE when the noise is off.  The
    sums are formed in place in the step's own temporaries (never in what
    drift or diffusion returned), in the order of the formulas above, so
    the bits are those of the formulas.
    """
    b0 = problem.drift(x)
    n0 = problem.diffusion(x, dW)
    xp = x + b0 * dt
    xp += n0
    b1 = problem.drift(xp)
    n1 = problem.diffusion(xp, dW)
    b = b0 + b1
    b *= 0.5
    b *= dt
    out = x + b
    n = n0 + n1
    n *= 0.5
    out += n
    return out


_STEPPERS = {
    "euler-maruyama": step_euler_maruyama,
    "heun": step_heun_stratonovich,
}


def sample_increments(problem: SdeProblem, dt: float, nsteps: int,
                      rng: np.random.Generator, n_paths: int) -> np.ndarray:
    """Gaussian increments dW (n_paths, nsteps, m) over steps of dt, drawn path by path."""
    lam = np.asarray(problem.noise_variances, dtype=float)
    xi = rng.standard_normal((n_paths, nsteps, len(lam)))
    xi *= np.sqrt(lam * dt)
    return xi


def step_paths(problem: SdeProblem, scheme: str, dt: float, increments):
    """Step K paths from problem.x0 by one dt per noise row, each until the
    stream ends or its first exit from U; yields (states (K, *x0.shape),
    exit_index (K,)) at x0 and after every step, row i at time i dt.

    `increments` is an iterable of noise rows dW (K, m), at least one, pulled
    as the step needs it (an (nsteps, K, m) array is one): row k of each
    drives path k, K is read from the first row, and a row may be
    overwritten once the next one is pulled.  A stream with no row, or a row
    of another shape, raises ValueError.  Both yielded arrays are updated in
    place by the next step, so copy what must outlive it.  Only live paths
    are stepped (the whole stack in place of a gather and a scatter while
    none has exited), so an exited path keeps its exit state and never
    raises SdePathError: its rows after its exit row repeat its exit state
    (the stopped path), and the last row is X(tau ^ T).  exit_index holds
    the row at which each path first left U, or -1.  A live path whose new
    state or its domain norm is not finite raises SdePathError, whose
    message names the step and the time it reached: an overflow is no exit.
    Each path's rows are a pure function of (problem, scheme, dt, its
    increments).
    """
    stepper = _STEPPERS[scheme]
    stream = iter(increments)
    first = next(stream, None)
    if first is None or first.ndim != 2:
        raise ValueError("increment stream has no row of shape (paths, m)")
    x0 = np.asarray(problem.x0)
    states = np.empty((len(first),) + x0.shape, dtype=np.result_type(x0, float))
    states[:] = x0
    if problem.domain_norm(states[:1])[0] > problem.domain_radius:
        raise ValueError("initial state outside the localization domain U")

    exit_index = np.full(len(states), -1)
    live = np.arange(len(states))
    yield states, exit_index
    for i, dW in enumerate(chain((first,), stream)):
        if dW.shape != first.shape:
            raise ValueError(f"increment row {i} has shape {dW.shape}, not {first.shape}")
        if len(live):
            rows = np.s_[:] if len(live) == len(states) else live
            x = stepper(problem, states[rows], dW[rows], dt)
            norm = problem.domain_norm(x)
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(norm))):
                raise SdePathError(f"non-finite state at step {i}, t={(i + 1) * dt}")
            states[rows] = x
            out = norm > problem.domain_radius
            exit_index[live[out]] = i + 1
            live = live[~out]
        yield states, exit_index


def _last_row(problem: SdeProblem, scheme: str, dt: float,
              increments: np.ndarray) -> np.ndarray:
    """The last states (K, *x0.shape) of `step_paths` on increments (K, nsteps, m)."""
    for x, _ in step_paths(problem, scheme, dt, increments.swapaxes(0, 1)):
        pass
    return x


def coarsen_increments(increments: np.ndarray, factor: int) -> np.ndarray:
    """Sum blocks of `factor` fine increments (..., n, m) into coarse ones."""
    *lead, n, m = increments.shape
    if n % factor != 0:
        raise ValueError("increment count not divisible by coarsening factor")
    return increments.reshape(*lead, n // factor, factor, m).sum(axis=-2)


def strong_convergence_order(problem: SdeProblem, scheme: str, T: float,
                             steps: Sequence[int], n_paths: int,
                             rng: np.random.Generator,
                             exact: Optional[Callable[[np.ndarray], np.ndarray]] = None):
    """Estimate the strong order from coupled-noise refinement.

    `steps` must be >= 3 step counts in increasing geometric progression;
    coarse increments are block sums of the finest ones so all levels share
    one driving path; each level is one stack of the n_paths paths, of
    which only the last row is kept.  The reference at time T is
    `exact(W_T)` of the W_T rows (n_paths, m) when given, otherwise the
    finest-grid solution.  Returns (order, dts, rms).
    """
    steps = sorted(int(n) for n in steps)
    if len(steps) < 3:
        raise ValueError("need at least 3 step counts")
    finest = steps[-1]
    for n in steps:
        if finest % n != 0:
            raise ValueError("step counts must divide the finest count")

    compare = steps if exact is not None else steps[:-1]
    inc_f = sample_increments(problem, T / finest, finest, rng, n_paths)
    if exact is not None:
        ref = exact(inc_f.sum(axis=1))
    else:
        ref = _last_row(problem, scheme, T / finest, inc_f)
    sols = [_last_row(problem, scheme, T / n, coarsen_increments(inc_f, finest // n))
            for n in compare]
    errs = np.zeros(len(compare))
    for k in range(n_paths):  # path by path, the summation order of the rms
        errs += [np.sum((sol[k] - ref[k]) ** 2) for sol in sols]
    rms = np.sqrt(errs / n_paths)
    if np.any(rms == 0.0):
        raise ValueError("degenerate (zero) strong errors; cannot fit an order")
    dts = np.array([T / n for n in compare])
    order = float(np.polyfit(np.log(dts), np.log(rms), 1)[0])
    return order, dts, rms
