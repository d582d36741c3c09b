"""Particle-flow (Lagrangian) formulation.

The lab integrates the flow map Phi of the Eulerian SDE: `run_equivalence`
reads the Eulerian velocity rows from `eulerian._velocity_blocks`, the row
stream the ensembles read, and moves particles, started at their labels
(Phi_0 the identity), along them by RK2 (`advect`) as they come,

    dPhi = u o Phi dt,

where u is the Eulerian solution.  In the same loop it measures the defect
of the identity eta = u o Phi for the carried material velocity

    deta = ((I - Pi)[(u.grad)u]) o Phi dt + (dW) o Phi     (vertical lift).

The drift is the flat-coordinate localization of the geodesic spray: the
full transport term (u.grad)u minus its divergence-free part, i.e. the
pressure-gradient acceleration -(grad p) o Phi.  The five fields u_j, its
two derivatives, Pi[(u_j.grad)u_j] and dW_j are one stack per block of
velocity rows (`_spray_fields`), and each grid time evaluates its row of
the stack at Phi_j: the u_j slot is RK2's first stage, so `advect`
evaluates only the midpoint field.  The defect is reduced as the particles
reach each grid time and the values are never collected, so the particle
path holds one grid time of them and one block of Eulerian rows, however
many steps it takes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral as sp
from .eulerian import _velocity_blocks, averaged_drift
from .qwiener import QWienerSpec, field_from_coefficients
from .spectral import evaluate_stack_at

__all__ = [
    "ParticleEnsemble",
    "uniform_labels",
    "advect",
    "run_equivalence",
]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class ParticleEnsemble:
    """Positions Phi(x) of the particles started at the labels x, as the
    continuous (unwrapped) trajectory; the evaluation kernel wraps them.
    The particle path reads only the trajectory: the class and `n` stay for
    bench/spans.py, which counts particle steps from `advect`'s first
    argument and is their last reader.
    """

    positions_unwrapped: np.ndarray

    @property
    def n(self) -> int:
        return len(self.positions_unwrapped)


def uniform_labels(n_side: int) -> np.ndarray:
    """n_side x n_side uniform label grid on [0, 2pi)^2, row-major."""
    x = TWO_PI * np.arange(n_side) / n_side
    X, Y = np.meshgrid(x, x, indexing="ij")
    return np.stack([X.ravel(), Y.ravel()], axis=1)


def advect(particles: ParticleEnsemble, k1: np.ndarray, u_mid: np.ndarray,
           dt: float) -> ParticleEnsemble:
    """Advance positions by explicit midpoint (RK2): k1 (P, 2) is the field
    at the step's start evaluated at the positions, u_mid (2, M, M) the
    midpoint field.  A function of its own, not a line of the particle
    loop, because bench/spans.py traces it by name."""
    x = particles.positions_unwrapped
    k2 = evaluate_stack_at(u_mid, x + 0.5 * dt * k1)
    return ParticleEnsemble(x + dt * k2)


def _spray_fields(u: np.ndarray, kicks: np.ndarray) -> np.ndarray:
    """u, d_x u, d_y u, Pi[(u.grad)u] and the kick of each row of u (b, 2, M, M),
    stacked on axis 1: (b, 5, 2, M, M).  `kicks` has b rows, or b - 1 when
    the last grid time starts no step; that row's kick slot is zero."""
    drift = averaged_drift(u, 0.0)  # before the stack, so its work is freed first
    ikx, iky = sp._ik_grids(sp._resolution(u))
    out = np.zeros((len(u), 5) + u.shape[1:], dtype=complex)
    out[:, 0] = u
    np.multiply(ikx, u, out=out[:, 1])
    np.multiply(iky, u, out=out[:, 2])
    np.negative(drift, out=out[:, 3])
    out[:len(kicks), 4] = kicks
    return out


def _spray_from(vals: np.ndarray) -> np.ndarray:
    """(u.grad)u - Pi[(u.grad)u] from a _spray_fields row's values (P, 5, 2)."""
    u, dudx, dudy, proj = vals[:, 0], vals[:, 1], vals[:, 2], vals[:, 3]
    return u[:, :1] * dudx + u[:, 1:] * dudy - proj


def run_equivalence(u0: np.ndarray, spec: QWienerSpec, dt: float, labels: np.ndarray,
                    increments: np.ndarray, radius_factor: float = 10.0) -> float:
    """Drive the Heun Eulerian path on the increments, advect particles
    along it, return the discrete Lagrangian-identity defect.

    For eta(t) = u(t) o Phi_t the chain rule (Phi has finite variation, so
    Ito and Stratonovich evaluations coincide) gives

        u(T, Phi_T(x)) = u0(x) + int ((I-Pi)[(u.grad)u])(r, Phi_r(x)) dr
                               + int (dW)(Phi_r(x)),

    and the defect is max over the labels of the norm of the left side
    minus the right side, the dt-integral by the trapezoid rule, the noise
    sum by left-point (Ito) evaluation of the kicks dW_j at Phi_j.

    The velocity rows come from `_velocity_blocks`, a block of grid times
    at a time, and `_spray_fields` stacks each block's five fields.  At each
    grid time j the particles take an RK2 step from j - 1, whose midpoint
    field is the average of the rows j - 1 and j (good to O(dt^2)), then
    row j of the stack is evaluated at Phi_j: its u_j slot is the next
    step's k1 and the first term of the defect, the rest feed the running
    sums.  So the path holds one block of velocity rows and one grid time
    of particle values, however many steps it takes.  A path that leaves
    the localization ball raises ValueError naming the time it leaves.
    `increments` has one row of noise coordinates per step of dt, at least
    one, so the path runs to T = len(increments) * dt.  u0 is a (2, M, M)
    field at the resolution of spec; make_eulerian_problem rejects any
    other shape.
    """
    nsteps = len(increments)
    t_grid = np.linspace(0.0, nsteps * dt, nsteps + 1)
    ens = ParticleEnsemble(np.asarray(labels, dtype=float) % TWO_PI)  # Phi_0 = identity
    j = 0  # the grid time reached
    for u, exit_index in _velocity_blocks(u0, spec, t_grid, increments[:, None],
                                          radius_factor=radius_factor):
        if exit_index[0] >= 0:
            raise ValueError(
                f"the Eulerian path left the localization ball at "
                f"t = {t_grid[exit_index[0]]:.6g}, "
                f"before the horizon {t_grid[-1]:.6g}; the particle flow needs the whole "
                f"path (raise localization.radius_factor)")
        u = u[0]
        stack = _spray_fields(u, field_from_coefficients(spec, increments[j:j + len(u)]))
        for i, fields in enumerate(stack):
            if j > 0:  # RK2 from j - 1, k1 from the previous stack's u slot
                ens = advect(ens, vals[:, 0], 0.5 * (u_prev + u[i]), dt)
            v = evaluate_stack_at(fields, ens.positions_unwrapped)  # the kernel wraps them
            g = _spray_from(v)
            if j == 0:  # Phi_0 is the identity on the labels
                init, acc = v[:, 0].copy(), np.zeros_like(g)
            else:
                acc += 0.5 * dt * (g_prev + g)
                acc += vals[:, 4]  # the kick of j - 1, at Phi_{j-1} (Ito)
            vals, g_prev, u_prev = v, g, u[i]
            j += 1
    res = vals[:, 0] - init - acc
    return float(np.max(np.linalg.norm(res, axis=1)))
