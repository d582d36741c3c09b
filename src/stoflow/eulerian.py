"""Eulerian velocity-field SDEs: stochastic Euler and the averaged
Euler-alpha model, wrapped as finite SDE problems whose state is the
(2, M, M) Fourier coefficient array of the velocity.

    du = -Pi[(u.grad)u] dt + dW                      (plain Euler)
    du = -Pi H^-1[(u.grad)m + a^2 (grad u)^T Lap u] dt + H^-1 dW
         with m = H u,  H = id - a^2 Lap             (averaged, alpha = a)

Both drifts and the noise are divergence-free, so the solution stays
divergence-free at every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import spectral as sp
from .qwiener import QWienerSpec, driving_coefficients, field_from_coefficients
from .sde import SdeProblem, solve_path
from .spectral import SpectralField

__all__ = [
    "euler_drift",
    "averaged_drift",
    "noise_mode_multiplier",
    "make_eulerian_problem",
    "EulerianPath",
    "run_eulerian",
]

LOCALIZATION_SOBOLEV_INDEX = 2.0  # H^s norm used for the exit ball


def euler_drift(u: SpectralField) -> SpectralField:
    """-Pi[(u.grad)u], the averaged drift at alpha = 0."""
    return averaged_drift(u, 0.0)


def averaged_drift(u: SpectralField, alpha: float) -> SpectralField:
    """-Pi H^-1[(u.grad)m + alpha^2 (grad u)^T Lap u] with m = H u; alpha = 0
    is the plain Euler drift -Pi[(u.grad)u]."""
    quad = sp.advection_term(u, alpha)
    return -1.0 * sp.helmholtz_inverse(sp.leray_project(quad), alpha)


def noise_mode_multiplier(spec: QWienerSpec, alpha: float) -> np.ndarray:
    """Per-noise-coordinate factor 1/(1 + alpha^2 |k|^2); identity at alpha=0."""
    ksq = np.sum(spec.wavevectors.astype(float) ** 2, axis=1)
    return np.repeat(1.0 / (1.0 + alpha**2 * ksq), 2)


def make_eulerian_problem(u0: SpectralField, spec: QWienerSpec, alpha: float = 0.0,
                          radius_factor: float = 10.0) -> SdeProblem:
    """The SdeProblem over the (2, M, M) coefficient array of the velocity.

    The diffusion maps raw noise coordinates dW to the field
    sum_j mult_j dW_j e_j, with mult from noise_mode_multiplier.
    The localization domain is the H^s ball (s fixed by
    LOCALIZATION_SOBOLEV_INDEX) of radius radius_factor * max(|u0|_{H^s}, 1)
    centered at the origin.
    """
    if spec.N != u0.N:
        raise ValueError("noise spectrum and initial field resolutions differ")
    N = u0.N
    mult = noise_mode_multiplier(spec, alpha)

    def drift(t: float, x: np.ndarray) -> np.ndarray:
        return averaged_drift(SpectralField(N, x), alpha).coeffs

    def diffusion(x: np.ndarray, dW: np.ndarray) -> np.ndarray:
        return field_from_coefficients(spec, mult * dW).coeffs

    def hs_norm(x: np.ndarray) -> float:
        return sp.sobolev_norm(SpectralField(N, x), LOCALIZATION_SOBOLEV_INDEX)

    radius = radius_factor * max(sp.sobolev_norm(u0, LOCALIZATION_SOBOLEV_INDEX), 1.0)
    return SdeProblem(dim=2 * u0.coeffs.size, drift=drift, diffusion=diffusion,
                      noise_variances=spec.mode_variances, x0=u0.coeffs,
                      domain_radius=radius, domain_norm=hs_norm)


@dataclass
class EulerianPath:
    """One trajectory of the Eulerian SDE with per-step diagnostics."""

    times: np.ndarray
    fields: list
    increments: np.ndarray  # raw noise coordinates per step (pre-multiplier)
    energy: np.ndarray      # |u|_{L2}^2
    enstrophy: np.ndarray
    hs_norm: np.ndarray
    div_residual: np.ndarray
    exited: bool
    exit_time: Optional[float]

    @property
    def terminal(self) -> SpectralField:
        return self.fields[-1]


def run_eulerian(u0: SpectralField, spec: QWienerSpec, dt: float, T: float,
                 scheme: str = "heun", alpha: float = 0.0,
                 rng: Optional[np.random.Generator] = None,
                 increments: Optional[np.ndarray] = None,
                 radius_factor: float = 10.0,
                 keep_fields: bool = True) -> EulerianPath:
    """Integrate the velocity-field SDE and collect diagnostics.

    `increments` are raw Q-Wiener coordinates (before any alpha smoothing);
    when absent they are drawn from `rng`.  The same increments drive both
    the plain and the averaged model in coupled experiments.
    """
    nsteps = int(round(T / dt))
    t_grid = np.linspace(0.0, nsteps * dt, nsteps + 1)
    problem = make_eulerian_problem(u0, spec, alpha=alpha, radius_factor=radius_factor)
    increments = driving_coefficients(spec, dt, nsteps, rng, increments)
    res = solve_path(problem, scheme, t_grid, increments=increments)

    fields = [SpectralField(u0.N, x) for x in res.states]
    energy = np.array([sp.l2_norm(f) ** 2 for f in fields])
    ens = np.array([sp.enstrophy(f) for f in fields])
    hs = np.array([sp.sobolev_norm(f, LOCALIZATION_SOBOLEV_INDEX) for f in fields])
    div = np.array([sp.divergence_residual(f) for f in fields])
    return EulerianPath(times=res.times, fields=fields if keep_fields else [fields[-1]],
                        increments=increments[: len(res.times) - 1],
                        energy=energy, enstrophy=ens, hs_norm=hs, div_residual=div,
                        exited=res.exited, exit_time=res.exit_time)
