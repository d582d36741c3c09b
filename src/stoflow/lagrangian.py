"""Particle-flow (Lagrangian) formulation.

The flow map Phi and the carried material velocity eta = u o Phi evolve by

    dPhi = eta dt
    deta = ((I - Pi)[(u.grad)u]) o Phi dt + (dW) o Phi     (vertical lift)

where u is the co-evolving Eulerian solution driven by the same noise
stream.  The drift is the flat-coordinate localization of the geodesic
spray: the full transport term (u.grad)u minus its divergence-free part,
i.e. the pressure-gradient acceleration -(grad p) o Phi.  Noise kicks act
on velocities only, never on positions.
"""

from __future__ import annotations

import warnings
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
    "spray",
    "run_lagrangian",
    "equivalence_residual",
    "run_equivalence",
    "quad_jacobians",
]

TWO_PI = 2.0 * np.pi
SPRAY_CONSISTENCY_TOL = 1e-3  # relative l-inf mismatch between eta and u o Phi


@dataclass(frozen=True)
class ParticleEnsemble:
    """Labels x, positions Phi(x), velocities eta(x) = u(Phi(x)), time t.

    Only the continuous (unwrapped) trajectory is stored, for volume
    monitoring; `positions` is that trajectory wrapped into [0, 2pi)^2.
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


def spray(particles: ParticleEnsemble, u: SpectralField) -> np.ndarray:
    """Material accelerations per particle: -(grad p) o Phi, the
    flat-coordinate geodesic spray.  A curve Phi with dPhi/dt = u o Phi
    then satisfies d(u o Phi)/dt = spray for the forcing-free Euler flow.
    Warns when the particle velocities are not u o Phi.
    """
    vals = _spray_values(u, particles.positions)
    ref = vals[:, 0]
    scale = max(np.max(np.abs(ref)), 1e-30)
    mismatch = np.max(np.abs(particles.velocities - ref)) / scale
    if mismatch > SPRAY_CONSISTENCY_TOL:
        warnings.warn(
            f"particle velocities deviate from u o Phi by {mismatch:.2e} "
            f"(relative l-inf); spray evaluated anyway", stacklevel=2)
    return _spray_from(vals)


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


@dataclass
class LagrangianPath:
    times: np.ndarray
    ensembles: list
    increments: np.ndarray


def _eulerian_states(u0: SpectralField, spec: QWienerSpec, dt: float, T: float,
                     increments: np.ndarray, radius_factor: float = 10.0) -> np.ndarray:
    """Coefficient arrays (nsteps + 1, 2, M, M) of the Heun Eulerian path on
    the given increments; the particle flow needs it up to the horizon."""
    epath = run_eulerian(u0, spec, dt, T, scheme="heun", increments=increments,
                         radius_factor=radius_factor)
    if epath.exited:
        raise ValueError(
            f"the Eulerian path left the localization ball at t = {epath.exit_time:.6g}, "
            f"before the horizon {T:.6g}; the particle flow needs the whole path "
            f"(raise localization.radius_factor)")
    return epath.states


def run_lagrangian(u0: SpectralField, spec: QWienerSpec, dt: float, T: float,
                   labels: Optional[np.ndarray] = None,
                   rng: Optional[np.random.Generator] = None,
                   increments: Optional[np.ndarray] = None,
                   with_noise_kicks: bool = True) -> LagrangianPath:
    """Co-evolve the particle flow with the Eulerian solution on one stream.

    Heun on (Phi, eta) with the spray drift and vertically lifted noise;
    the field u needed by the spray is the Eulerian path driven by the SAME
    increments (operator-splitting equivalence harness).
    `with_noise_kicks=False` suppresses the velocity kicks while keeping the
    identical Eulerian field, which must leave all positions unchanged.
    """
    nsteps = int(round(T / dt))
    if labels is None:
        labels = uniform_labels(32)
    increments = driving_coefficients(spec, dt, nsteps, rng, increments)
    states = _eulerian_states(u0, spec, dt, T, increments)

    ens = initial_ensemble(labels, u0)
    out = [ens]
    for i in range(nsteps):
        u_n, u_n1 = SpectralField(u0.N, states[i]), SpectralField(u0.N, states[i + 1])
        kick = [field_from_coefficients(spec, increments[i]).coeffs] if with_noise_kicks else []
        phi = ens.positions_unwrapped
        eta = ens.velocities

        # spray and kick share one set of phase tables at each stage
        vals0 = _spray_values(u_n, phi, *kick)
        acc0 = _spray_from(vals0)
        kick0 = vals0[:, 4] if with_noise_kicks else 0.0
        phi_p = phi + dt * eta
        eta_drift_p = eta + dt * acc0

        vals1 = _spray_values(u_n1, phi_p, *kick)
        acc1 = _spray_from(vals1)
        kick1 = vals1[:, 4] if with_noise_kicks else 0.0
        # vertical lift: the position update never sees the noise kicks
        phi_new = phi + 0.5 * dt * (eta + eta_drift_p)
        eta_new = eta + 0.5 * dt * (acc0 + acc1) + 0.5 * (kick0 + kick1)
        ens = ParticleEnsemble(labels=ens.labels, positions_unwrapped=phi_new,
                               velocities=eta_new, t=ens.t + dt)
        out.append(ens)

    times = np.linspace(0.0, nsteps * dt, nsteps + 1)
    return LagrangianPath(times=times, ensembles=out, increments=increments)


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
                    labels: Optional[np.ndarray] = None,
                    rng: Optional[np.random.Generator] = None,
                    increments: Optional[np.ndarray] = None,
                    radius_factor: float = 10.0) -> float:
    """Drive the Eulerian path, advect particles along it, return the residual.

    Each particle step is the midpoint rule with the midpoint field taken
    as the average of the step's end fields, good to O(dt^2).
    """
    nsteps = int(round(T / dt))
    if labels is None:
        labels = uniform_labels(8)
    increments = driving_coefficients(spec, dt, nsteps, rng, increments)
    states = _eulerian_states(u0, spec, dt, T, increments, radius_factor)

    ens = initial_ensemble(labels, u0)
    path = [ens]
    for i in range(nsteps):
        u_mid = SpectralField(u0.N, 0.5 * (states[i] + states[i + 1]))
        ens = advect(ens, SpectralField(u0.N, states[i]), u_mid, dt)
        path.append(ens)
    return equivalence_residual(states, path, increments, spec, dt)


def quad_jacobians(particles: ParticleEnsemble, n_side: int) -> np.ndarray:
    """Signed area ratio of each label quadrilateral under the flow map.

    Labels must come from uniform_labels(n_side).  Uses the unwrapped
    positions so periodic wrapping does not corrupt areas.  For a
    divergence-free flow these stay near 1.
    """
    pos = particles.positions_unwrapped.reshape(n_side, n_side, 2)
    cell = (TWO_PI / n_side) ** 2
    ip = np.arange(n_side)
    jp = (ip + 1) % n_side
    # wrap the last row/column by shifting a full period
    a = pos
    b = pos[jp, :, :].copy()
    b[-1, :, 0] += TWO_PI
    c = pos[:, jp, :].copy()
    c[:, -1, 1] += TWO_PI
    d = pos[jp][:, jp].copy()
    d[-1, :, 0] += TWO_PI
    d[:, -1, 1] += TWO_PI
    # shoelace area of the quad (a, b, d, c)
    def cross(p, q):
        return p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0]
    area = 0.5 * (cross(b - a, d - a) + cross(d - a, c - a))
    return area / cell
