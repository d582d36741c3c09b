"""Particle-flow (Lagrangian) formulation.

The lab integrates the flow map Phi of the Eulerian SDE: `run_equivalence`
steps the Eulerian path and moves particles along its rows by RK2
(`advect`) as they are stepped,

    dPhi = u o Phi dt,

where u is the Eulerian solution.  `equivalence_residual` then measures the
defect of the identity eta = u o Phi for the carried material velocity

    deta = ((I - Pi)[(u.grad)u]) o Phi dt + (dW) o Phi     (vertical lift).

The drift is the flat-coordinate localization of the geodesic spray: the
full transport term (u.grad)u minus its divergence-free part, i.e. the
pressure-gradient acceleration -(grad p) o Phi.  The fields u_j, its
gradient, Pi[(u_j.grad)u_j] (`_spray_fields`) and dW_j are built for a
block of grid times at once, and each particle step evaluates them at Phi_j
in one stack: its u_j slot is RK2's first stage, so `advect` evaluates only
the midpoint field.  The residual is streamed: it reduces each grid time's
values as the particles reach it, without evaluating again, and the values
are never collected, so the particle path holds one grid time of them and
one block of Eulerian rows, however many steps it takes.  The stacked
(Phi, eta) system, with noise kicks on velocities only, is
`make_lagrangian_problem`, used for the Stratonovich-degeneracy check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral as sp
from .eulerian import _velocity, euler_drift, make_eulerian_problem
from .qwiener import QWienerSpec, field_from_coefficients
from .sde import SdeProblem, step_paths
from .spectral import evaluate_stack_at

__all__ = [
    "ParticleEnsemble",
    "uniform_labels",
    "initial_ensemble",
    "advect",
    "equivalence_residual",
    "run_equivalence",
]

TWO_PI = 2.0 * np.pi
# grid times of spray and kick fields built at once: 11 at N = 8, a few
# advection_term calls more per path than whole-path blocks, but a block's
# fields and their temporaries stay under a megabyte
_SPRAY_BLOCK_BYTES = 2**19


@dataclass(frozen=True)
class ParticleEnsemble:
    """Labels x and positions Phi(x).

    Only the continuous (unwrapped) trajectory is stored; `positions` is
    that trajectory wrapped into [0, 2pi)^2.
    """

    labels: np.ndarray
    positions_unwrapped: np.ndarray

    @property
    def positions(self) -> np.ndarray:
        return self.positions_unwrapped % TWO_PI

    @property
    def n(self) -> int:
        return len(self.labels)


def uniform_labels(n_side: int) -> np.ndarray:
    """n_side x n_side uniform label grid on [0, 2pi)^2, row-major."""
    x = TWO_PI * np.arange(n_side) / n_side
    X, Y = np.meshgrid(x, x, indexing="ij")
    return np.stack([X.ravel(), Y.ravel()], axis=1)


def initial_ensemble(labels: np.ndarray) -> ParticleEnsemble:
    """Phi = identity on the labels."""
    labels = np.asarray(labels, dtype=float) % TWO_PI
    return ParticleEnsemble(labels=labels, positions_unwrapped=labels.copy())


def advect(particles: ParticleEnsemble, k1: np.ndarray, u_mid: np.ndarray,
           dt: float) -> ParticleEnsemble:
    """Advance positions by explicit midpoint (RK2): k1 (P, 2) is the field
    at the step's start evaluated at the positions, u_mid (2, M, M) the
    midpoint field."""
    x = particles.positions_unwrapped
    k2 = evaluate_stack_at(u_mid, x + 0.5 * dt * k1)
    return ParticleEnsemble(labels=particles.labels, positions_unwrapped=x + dt * k2)


def _spray_fields(u: np.ndarray) -> np.ndarray:
    """u, d_x u, d_y u and Pi[(u.grad)u] of each field of u (..., 2, M, M),
    stacked on axis -4: shape (..., 4, 2, M, M), from one drift call."""
    proj = -euler_drift(u)
    return np.concatenate([sp._gradient_stack(u), proj[..., None, :, :, :]], axis=-4)


def _spray_from(vals: np.ndarray) -> np.ndarray:
    """Material acceleration from the values at the points of _spray_fields."""
    return sp._transport(vals[:, :3]) - vals[:, 3]


def material_acceleration_at(u: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Spray drift ((u.grad)u - Pi[(u.grad)u]) evaluated at the points.

    The transport part is the exact pointwise product (modes up to 2N),
    the subtracted part is the Galerkin-truncated projected advection that
    drives the Eulerian system; their difference is -(grad p) plus the
    truncation tail, matching the discrete dynamics exactly.  All four
    fields are evaluated in one `evaluate_stack_at` call: one power table of
    the points, one real matrix product and one per-point contraction.
    """
    return _spray_from(evaluate_stack_at(_spray_fields(u), points))


def make_lagrangian_problem(u: np.ndarray, spec: QWienerSpec,
                            positions: np.ndarray, velocities: np.ndarray):
    """Stacked (Phi, eta) SdeProblem with the field u frozen in the drift,
    starting from positions and velocities, each of shape (P, 2).

    State layout: [Phi.ravel(), eta.ravel()].  The diffusion is the
    vertical lift: dW kicks the velocity slots by (dW)(Phi(x_i)) and never
    touches the position slots.  Its drift and diffusion take one state, not
    a stack: it feeds the Stratonovich-correction check, not step_paths.
    """
    P = len(positions)
    x0 = np.concatenate([np.ravel(positions), np.ravel(velocities)])

    def drift(t, z):
        eta = z[2 * P:]
        pos = z[:2 * P].reshape(P, 2)
        acc = material_acceleration_at(u, pos)
        return np.concatenate([eta, acc.ravel()])

    def diffusion(z, dW):
        pos = z[:2 * P].reshape(P, 2)
        kicks = evaluate_stack_at(field_from_coefficients(spec, dW), pos)
        return np.concatenate([np.zeros(2 * P), kicks.ravel()])

    return SdeProblem(dim=4 * P, drift=drift, diffusion=diffusion,
                      noise_variances=spec.mode_variances, x0=x0)


def equivalence_residual(vals, dt: float) -> float:
    """Discrete Lagrangian-identity defect along Eulerian characteristics.

    For eta(t) = u(t) o Phi_t the chain rule (Phi has finite variation, so
    Ito and Stratonovich evaluations coincide) gives

        u(T, Phi_T(x)) = u0(x) + int ((I-Pi)[(u.grad)u])(r, Phi_r(x)) dr
                               + int (dW)(Phi_r(x)).

    `vals` is any iterable over the grid times j = 0..n: its item j (P, 5, 2)
    holds the values at Phi_j of `_spray_fields(u_j)` and of dW_j, without
    the dW slot at the last time.  It is read once, in order, and only the
    first u_j values, the previous item and the running sums are kept.
    Returns max_i of the defect norm; the dt-integral uses the trapezoid
    rule, the noise sum left-point (Ito) evaluation.
    """
    it = iter(vals)
    prev = next(it, None)
    if prev is None:
        raise ValueError("no spray values")
    # slot 0 (u_j) gives final at j = n and, since Phi_0 is the identity on
    # the labels, init at j = 0
    init = prev[:, 0].copy()
    g_prev = _spray_from(prev)
    acc_sum = np.zeros_like(g_prev)
    for v in it:
        if prev.shape[1] != 5:
            raise ValueError("spray values and increments do not align")
        g = _spray_from(v)
        acc_sum += 0.5 * dt * (g_prev + g)
        acc_sum += prev[:, 4]
        prev, g_prev = v, g
    if prev.shape[1] != 4:
        raise ValueError("spray values and increments do not align")
    res = prev[:, 0] - init - acc_sum
    return float(np.max(np.linalg.norm(res, axis=1)))


def _particle_values(rows, mean: np.ndarray, spec: QWienerSpec,
                     increments: np.ndarray, labels: np.ndarray, dt: float):
    """Yields, for each grid time j of a one-path Eulerian path, the values
    (P, 5, 2) at Phi_j of _spray_fields(u_j) and dW_j, and (P, 4, 2) at the
    last time, which has no kick; between two items it advects the
    particles by RK2 from j to j + 1, taking k1 from slot 0.

    `rows` yields the path's q rows (M, M), one per grid time, each of
    which may be overwritten once the next is asked for; `mean` is its mean
    flow.  The spray and kick fields are built for blocks of about
    _SPRAY_BLOCK_BYTES of grid times, so a block's rows and the next one,
    for the midpoint field of the block's last step, are all that is read
    ahead."""
    nsteps = len(increments)
    rows = iter(rows)
    row = next(rows)
    block = max(1, _SPRAY_BLOCK_BYTES // (5 * 2 * row.nbytes))  # 5-slot rows
    q = np.empty((block + 1,) + row.shape, dtype=row.dtype)
    q[0] = row
    ens = initial_ensemble(labels)
    for first in range(0, nsteps + 1, block):
        n = min(block, nsteps - first) + 1  # the block's grid times and the next
        for j in range(1, n):
            q[j] = next(rows)
        u = _velocity(q[:n], 0.0, mean)
        kicks = field_from_coefficients(spec, increments[first:first + block])
        for i, fields in enumerate(_spray_fields(u[:block])):
            if i < len(kicks):  # the last grid time has no kick and no step
                fields = np.concatenate([fields, kicks[i, None]])
            vals = evaluate_stack_at(fields, ens.positions_unwrapped)  # the kernel wraps them
            yield vals
            if i < len(kicks):
                ens = advect(ens, vals[:, 0], 0.5 * (u[i] + u[i + 1]), dt)
        q[0] = q[n - 1]


def run_equivalence(u0: np.ndarray, spec: QWienerSpec, dt: float, T: float,
                    labels: np.ndarray, increments: np.ndarray,
                    radius_factor: float = 10.0) -> float:
    """Drive the Heun Eulerian path on the increments, advect particles
    along it, return the residual.

    Each particle step is the midpoint rule with the midpoint field taken
    as the average of the step's end fields, good to O(dt^2).  The one
    evaluation per step of the spray and kick fields at Phi_j serves the
    residual and, through its slot 0, the step's k1; the residual consumes
    the values as they are made (`_particle_values`), one grid time at a
    time, and the particles read the Eulerian rows as `step_paths` steps
    them, so only a block of the path's rows is held.  A path that leaves
    the localization ball raises ValueError at the row where it leaves.
    `increments` has one row of noise coordinates per step of dt up to T.
    u0 is a (2, M, M) field at the resolution of spec;
    make_eulerian_problem rejects any other shape.
    """
    nsteps = int(round(T / dt))
    if len(increments) != nsteps:
        raise ValueError(f"{len(increments)} increment rows for the {nsteps} steps "
                         f"of dt = {dt:.6g} up to T = {T:.6g}")
    problem = make_eulerian_problem(u0, spec, radius_factor=radius_factor)
    t_grid = np.linspace(0.0, nsteps * dt, nsteps + 1)

    def rows():
        for q, exit_index in step_paths(problem, "heun", t_grid, increments[None]):
            if exit_index[0] >= 0:
                raise ValueError(
                    f"the Eulerian path left the localization ball at "
                    f"t = {t_grid[exit_index[0]]:.6g}, "
                    f"before the horizon {T:.6g}; the particle flow needs the whole "
                    f"path (raise localization.radius_factor)")
            yield q[0]

    values = _particle_values(rows(), np.array(u0[:, 0, 0]), spec, increments, labels, dt)
    return equivalence_residual(values, dt)
