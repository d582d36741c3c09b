"""Eulerian SDEs of stochastic Euler and the averaged Euler-alpha model,
wrapped as finite SDE problems whose state is the (M, M) Fourier
coefficient array of the potential vorticity q = curl(H u), H = id - a^2 Lap:

    dq + (u.grad)q dt = curl dW,    u = U + H^-1 grad-perp Lap^-1 q

with alpha = a; plain Euler is a = 0, where q is the vorticity.  In velocity
form, du = -Pi H^-1[(u.grad)m + (grad u)^T m] dt + H^-1 dW with m = H u.
The noise curl dW is in closed form: the curl of the unit eigenfield
(kperp/|k|) exp(i k.x) is i|k| exp(i k.x), so raw coordinates (w_cos, w_sin)
place i|k| (sqrt(2)/2) (w_cos - i w_sin) at +k and the conjugate at -k.
The mean flow U = uhat(0) is constant (the drift has no k = 0 mode and the
noise none), so the problem holds it apart.  Velocities rebuilt from q are
divergence-free by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import spectral as sp
from .qwiener import QWienerSpec, curl_from_coefficients, driving_coefficients
from .sde import SdeProblem, solve_path
from .spectral import SpectralField

__all__ = [
    "euler_drift",
    "averaged_drift",
    "make_eulerian_problem",
    "EulerianPath",
    "run_eulerian",
]

LOCALIZATION_SOBOLEV_INDEX = 2.0  # H^s norm used for the exit ball
_DIAGNOSTIC_BLOCK_BYTES = 2**18  # velocity rows reduced at once by the path diagnostics


def euler_drift(u: SpectralField) -> SpectralField:
    """-Pi[(u.grad)u], the averaged drift at alpha = 0."""
    return averaged_drift(u, 0.0)


def averaged_drift(u: SpectralField, alpha: float) -> SpectralField:
    """-Pi H^-1[(u.grad)m + (grad u)^T m] with m = H u, at a divergence-free u:
    the velocity of dq/dt = -(u.grad)q, q = curl(H u).  alpha = 0 is -Pi[(u.grad)u]."""
    q = sp.curl(sp.helmholtz_apply(u, alpha))
    return SpectralField(u.N, sp.biot_savart(-sp.advection_term(q, u.coeffs), alpha))


def _velocity(q: np.ndarray, alpha: float, mean: np.ndarray) -> np.ndarray:
    """Velocity coefficients (..., 2, M, M) of a stack (..., M, M) of q,
    with the mean flow `mean` at k = 0."""
    u = sp.biot_savart(q, alpha)
    u[..., :, 0, 0] = mean
    return u


def make_eulerian_problem(u0: SpectralField, spec: QWienerSpec, alpha: float = 0.0,
                          radius_factor: float = 10.0) -> SdeProblem:
    """The SdeProblem over the (M, M) coefficient array of q = curl(H u).

    The drift is -(u.grad)q with u = U + biot_savart(q); the diffusion maps raw
    noise coordinates dW to curl_from_coefficients(spec, dW), as H^-1
    cancels against H.  The localization domain is the H^s ball of the
    velocity (s fixed by LOCALIZATION_SOBOLEV_INDEX) of radius
    radius_factor * max(|u0|_{H^s}, 1) centered at the origin; the norm is
    read from q as |u|_{H^s}^2 = |U|^2 + sum_k (1+|k|^2)^s |K(k)|^2 |q(k)|^2,
    with K the biot_savart multiplier.
    """
    if spec.N != u0.N:
        raise ValueError("noise spectrum and initial field resolutions differ")
    N = u0.N
    mean = u0.coeffs[:, 0, 0]

    def drift(t: float, q: np.ndarray) -> np.ndarray:
        return -sp.advection_term(q, _velocity(q, alpha, mean))

    def diffusion(q: np.ndarray, dW: np.ndarray) -> np.ndarray:
        return curl_from_coefficients(spec, dW)

    q0 = sp.curl(sp.helmholtz_apply(u0, alpha))
    _, _, ksq = sp._k_grids(N)
    wq = ((1.0 + ksq) ** LOCALIZATION_SOBOLEV_INDEX
          * np.sum(np.abs(sp._biot_savart_multiplier(N, float(alpha))) ** 2, axis=0))
    mean_sq = np.sum(np.abs(mean) ** 2)

    def hs_norm(q: np.ndarray) -> float:
        return float(np.sqrt(mean_sq + np.sum(wq * np.abs(q) ** 2)))

    radius = radius_factor * max(sp.sobolev_norm(u0, LOCALIZATION_SOBOLEV_INDEX), 1.0)
    return SdeProblem(dim=2 * q0.size, drift=drift, diffusion=diffusion,
                      noise_variances=spec.mode_variances, x0=q0,
                      domain_radius=radius, domain_norm=hs_norm)


@dataclass
class EulerianPath:
    """One trajectory of the Eulerian SDE with per-step diagnostics.

    `states` holds the velocity coefficients rebuilt from q at each grid
    time, shape (len(times), 2, M, M); a path that left the localization
    ball stops at its exit time.
    """

    times: np.ndarray
    states: np.ndarray
    increments: np.ndarray  # raw noise coordinates per step
    energy: np.ndarray      # |u|_{L2}^2
    enstrophy: np.ndarray
    hs_norm: np.ndarray
    div_residual: np.ndarray
    exited: bool
    exit_time: Optional[float]

    @property
    def terminal(self) -> SpectralField:
        return SpectralField((self.states.shape[-1] - 1) // 2, self.states[-1])


def _path_diagnostics(u: np.ndarray) -> np.ndarray:
    """Energy |u|_{L2}^2, enstrophy, H^s norm and divergence residual of each
    row of a path u (n, 2, M, M), shape (4, n).  Reductions over the last
    three axes with the arithmetic of sp.l2_norm, sp.enstrophy,
    sp.sobolev_norm and sp.divergence_residual, so each row equals the
    per-field value bit for bit.  Rows go in blocks of about
    _DIAGNOSTIC_BLOCK_BYTES, which keeps the temporaries small and in cache."""
    kx, ky, ksq = sp._k_grids((u.shape[-1] - 1) // 2)
    w_hs = (1.0 + ksq) ** LOCALIZATION_SOBOLEV_INDEX
    out = np.empty((4, len(u)))
    step = max(1, _DIAGNOSTIC_BLOCK_BYTES // u[0].nbytes)
    for i in range(0, len(u), step):
        b = u[i:i + step]
        sq = np.abs(b) ** 2
        norm = np.sqrt(np.sum(sq, axis=(-3, -2, -1)))
        div = np.max(np.abs(kx * b[:, 0] + ky * b[:, 1]), axis=(-2, -1))
        out[:, i:i + step] = (norm ** 2, np.sum(ksq * sq, axis=(-3, -2, -1)),
                              np.sqrt(np.sum(w_hs * sq, axis=(-3, -2, -1))),
                              np.divide(div, norm, out=np.zeros_like(div), where=norm != 0.0))
    return out


def run_eulerian(u0: SpectralField, spec: QWienerSpec, dt: float, T: float,
                 scheme: str = "heun", alpha: float = 0.0,
                 rng: Optional[np.random.Generator] = None,
                 increments: Optional[np.ndarray] = None,
                 radius_factor: float = 10.0) -> EulerianPath:
    """Integrate the potential-vorticity SDE and collect velocity diagnostics.

    `increments` are raw Q-Wiener coordinates, the same for every alpha;
    when absent they are drawn from `rng`.  The same increments drive both
    the plain and the averaged model in coupled experiments.
    """
    nsteps = int(round(T / dt))
    t_grid = np.linspace(0.0, nsteps * dt, nsteps + 1)
    problem = make_eulerian_problem(u0, spec, alpha=alpha, radius_factor=radius_factor)
    increments = driving_coefficients(spec, dt, nsteps, rng, increments)
    res = solve_path(problem, scheme, t_grid, increments=increments)

    states = _velocity(res.states, alpha, u0.coeffs[:, 0, 0])
    energy, ens, hs, div = _path_diagnostics(states)
    return EulerianPath(times=res.times, states=states,
                        increments=increments[: len(res.times) - 1],
                        energy=energy, enstrophy=ens, hs_norm=hs, div_residual=div,
                        exited=res.exited, exit_time=res.exit_time)
