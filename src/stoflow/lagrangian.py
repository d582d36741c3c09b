"""Particle-flow (Lagrangian) formulation.

The lab integrates the flow map Phi of the Eulerian SDE: `run_equivalence`
drives the Eulerian path and moves particles along it by RK2 (`advect`),

    dPhi = u o Phi dt,

where u is the Eulerian solution.  `equivalence_residual` then measures the
defect of the identity eta = u o Phi for the carried material velocity

    deta = ((I - Pi)[(u.grad)u]) o Phi dt + (dW) o Phi     (vertical lift).

The drift is the flat-coordinate localization of the geodesic spray: the
full transport term (u.grad)u minus its divergence-free part, i.e. the
pressure-gradient acceleration -(grad p) o Phi.  The stacked (Phi, eta)
system, with noise kicks on velocities only, is `make_lagrangian_problem`,
used for the Stratonovich-degeneracy check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import spectral as sp
from .eulerian import euler_drift, run_eulerian
from .qwiener import QWienerSpec, driving_coefficients, field_from_coefficients
from .spectral import SpectralField, evaluate_at, evaluate_stack_at

__all__ = [
    "ParticleEnsemble",
    "uniform_labels",
    "initial_ensemble",
    "advect",
    "equivalence_residual",
    "run_equivalence",
]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class ParticleEnsemble:
    """Labels x, positions Phi(x), velocities eta(x) = u(Phi(x)), time t.

    Only the continuous (unwrapped) trajectory is stored; `positions` is
    that trajectory wrapped into [0, 2pi)^2.
    """

    labels: np.ndarray
    positions_unwrapped: np.ndarray
    velocities: np.ndarray
    t: float

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


def initial_ensemble(labels: np.ndarray, u0: SpectralField) -> ParticleEnsemble:
    """Phi = identity on the labels; eta = u0 at the labels."""
    labels = np.asarray(labels, dtype=float) % TWO_PI
    return ParticleEnsemble(labels=labels, positions_unwrapped=labels.copy(),
                            velocities=evaluate_at(u0, labels), t=0.0)


def advect(particles: ParticleEnsemble, u_start: SpectralField,
           u_mid: SpectralField, dt: float) -> ParticleEnsemble:
    """Advance positions by explicit midpoint (RK2) through the field at
    the step's start and at its midpoint; velocities untouched."""
    x = particles.positions_unwrapped
    k1 = evaluate_at(u_start, x)
    k2 = evaluate_at(u_mid, x + 0.5 * dt * k1)
    return replace(particles, positions_unwrapped=x + dt * k2, t=particles.t + dt)


def _spray_values(u: SpectralField, points: np.ndarray, *extra: np.ndarray) -> np.ndarray:
    """Values at the points of u, d_x u, d_y u, Pi[(u.grad)u] and then of
    each extra coefficient array, shape (P, 4 + len(extra), 2), all on one
    set of phase tables."""
    proj = -euler_drift(u)
    stack = [sp._gradient_stack(u), proj.coeffs[None]] + [e[None] for e in extra]
    return evaluate_stack_at(np.concatenate(stack), points)


def _spray_from(vals: np.ndarray) -> np.ndarray:
    """Material acceleration from _spray_values."""
    return sp._transport(vals[:, :3]) - vals[:, 3]


def material_acceleration_at(u: SpectralField, points: np.ndarray) -> np.ndarray:
    """Spray drift ((u.grad)u - Pi[(u.grad)u]) evaluated at the points.

    The transport part is the exact pointwise product (modes up to 2N),
    the subtracted part is the Galerkin-truncated projected advection that
    drives the Eulerian system; their difference is -(grad p) plus the
    truncation tail, matching the discrete dynamics exactly.  All four
    fields are evaluated on one set of phase tables.
    """
    return _spray_from(_spray_values(u, points))


def make_lagrangian_problem(u: SpectralField, spec: QWienerSpec,
                            particles: ParticleEnsemble):
    """Stacked (Phi, eta) SdeProblem with the field u frozen in the drift.

    State layout: [Phi.ravel(), eta.ravel()].  The diffusion is the
    vertical lift: dW kicks the velocity slots by (dW)(Phi(x_i)) and never
    touches the position slots.  Exposes this structure to the generic SDE
    machinery, e.g. for the finite-difference Stratonovich-correction check.
    """
    from .sde import SdeProblem

    P = particles.n
    x0 = np.concatenate([particles.positions.ravel(), particles.velocities.ravel()])

    def drift(t, z):
        eta = z[2 * P:]
        pos = z[:2 * P].reshape(P, 2)
        acc = material_acceleration_at(u, pos)
        return np.concatenate([eta, acc.ravel()])

    def diffusion(z, dW):
        pos = z[:2 * P].reshape(P, 2)
        kicks = evaluate_at(field_from_coefficients(spec, dW), pos)
        return np.concatenate([np.zeros(2 * P), kicks.ravel()])

    return SdeProblem(dim=4 * P, drift=drift, diffusion=diffusion,
                      noise_variances=spec.mode_variances, x0=x0)


def equivalence_residual(states: np.ndarray, particle_path: list,
                         increments: np.ndarray, spec: QWienerSpec,
                         dt: float) -> float:
    """Discrete Lagrangian-identity defect along Eulerian characteristics.

    For eta(t) = u(t) o Phi_t the chain rule (Phi has finite variation, so
    Ito and Stratonovich evaluations coincide) gives

        u(T, Phi_T(x)) = u0(x) + int ((I-Pi)[(u.grad)u])(r, Phi_r(x)) dr
                               + int (dW)(Phi_r(x)).

    `states` holds the Eulerian coefficient arrays, one row per grid time.
    Returns max_i of the defect norm; the dt-integral uses the trapezoid
    rule, the noise sum left-point (Ito) evaluation.
    """
    nsteps = len(increments)
    if len(states) != nsteps + 1 or len(particle_path) != nsteps + 1:
        raise ValueError("field path, particle path and increments do not align")
    # one evaluation per step on shared tables: the spray fields of u_j, then
    # dW_j (j < n), at Phi_j; slot 0 (u_j) gives final at j = n and, since
    # Phi_0 is the identity on the labels, init at j = 0
    vals = []
    for j in range(nsteps + 1):
        dw = [field_from_coefficients(spec, increments[j]).coeffs] if j < nsteps else []
        u_j = SpectralField(spec.N, states[j])
        vals.append(_spray_values(u_j, particle_path[j].positions, *dw))
    grads = [_spray_from(v) for v in vals]
    acc_sum = np.zeros_like(grads[0])
    for j in range(nsteps):
        acc_sum += 0.5 * dt * (grads[j] + grads[j + 1])
        acc_sum += vals[j][:, 4]
    res = vals[-1][:, 0] - vals[0][:, 0] - acc_sum
    return float(np.max(np.linalg.norm(res, axis=1)))


def run_equivalence(u0: SpectralField, spec: QWienerSpec, dt: float, T: float,
                    labels: np.ndarray, increments: Optional[np.ndarray] = None,
                    radius_factor: float = 10.0) -> float:
    """Drive the Heun Eulerian path on the increments, advect particles
    along it, return the residual.

    Each particle step is the midpoint rule with the midpoint field taken
    as the average of the step's end fields, good to O(dt^2).  Without
    increments the noise must be off.
    """
    nsteps = int(round(T / dt))
    increments = driving_coefficients(spec, dt, nsteps, increments=increments)
    epath = run_eulerian(u0, spec, dt, T, scheme="heun", increments=increments,
                         radius_factor=radius_factor)
    if epath.exited:
        raise ValueError(
            f"the Eulerian path left the localization ball at t = {epath.exit_time:.6g}, "
            f"before the horizon {T:.6g}; the particle flow needs the whole path "
            f"(raise localization.radius_factor)")
    states = epath.states

    ens = initial_ensemble(labels, u0)
    path = [ens]
    for i in range(nsteps):
        u_mid = SpectralField(u0.N, 0.5 * (states[i] + states[i + 1]))
        ens = advect(ens, SpectralField(u0.N, states[i]), u_mid, dt)
        path.append(ens)
    return equivalence_residual(states, path, increments, spec, dt)
