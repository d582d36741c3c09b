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

import numpy as np

from . import spectral as sp
from .qwiener import QWienerSpec, curl_from_coefficients
from .sde import SdePathError, SdeProblem, step_paths

__all__ = [
    "averaged_drift",
    "make_eulerian_problem",
]

LOCALIZATION_SOBOLEV_INDEX = 2.0  # H^s norm used for the exit ball
# bytes of velocity rows rebuilt at once by _velocity_blocks: 14 grid times
# for one path at N = 8.  The particle path builds a stack of five fields
# per row of a block; on particles-p24's finest level they peak 0.9 MB
# above one row per block at this size, 1.6 MB at 2**18 (28 rows)
_DIAGNOSTIC_BLOCK_BYTES = 2**17


def averaged_drift(u: np.ndarray, alpha: float) -> np.ndarray:
    """-Pi H^-1[(u.grad)m + (grad u)^T m] with m = H u, at a divergence-free u
    (2, M, M): the velocity of dq/dt = -(u.grad)q, q = curl(H u).  alpha = 0
    is -Pi[(u.grad)u]."""
    q = sp.curl(sp.helmholtz_apply(u, alpha))
    return sp.biot_savart(-sp.advection_term(q, u), alpha)


def _velocity(q: np.ndarray, alpha: float, mean: np.ndarray) -> np.ndarray:
    """Velocity coefficients (..., 2, M, M) of a stack (..., M, M) of q,
    with the mean flow `mean` at k = 0."""
    u = sp.biot_savart(q, alpha)
    u[..., :, 0, 0] = mean
    return u


def make_eulerian_problem(u0: np.ndarray, spec: QWienerSpec, alpha: float = 0.0,
                          radius_factor: float = 10.0) -> SdeProblem:
    """The SdeProblem over the (M, M) coefficient array of q = curl(H u).

    The drift is -(u.grad)q with u = U + biot_savart(q); the diffusion maps raw
    noise coordinates dW to curl_from_coefficients(spec, dW), as H^-1
    cancels against H.  The localization domain is the H^s ball of the
    velocity (s fixed by LOCALIZATION_SOBOLEV_INDEX) of radius
    radius_factor * max(|u0|_{H^s}, 1) centered at the origin; the norm is
    read from q as |u|_{H^s}^2 = |U|^2 + sum_k (1+|k|^2)^s |K(k)|^2 |q(k)|^2,
    with K the biot_savart multiplier.  u0 must have the shape (2, M, M) of
    the noise resolution, M = 2 spec.N + 1; a u0 whose H^s norm overflows is
    out of range before the first step and raises SdePathError naming that
    norm, not a step.

    The noise is additive.  The drift rebuilds only the velocity columns
    the transport kernel reads, and owns the transport kernel's work
    buffers: they are allocated for the first stack (K, M, M) it is given,
    or a longer one, and every later stack of at most K paths, such as the
    live paths of a chunk, uses their first rows.  The buffers are lent for
    speed: with advection_term allocating its own per call, the
    energy-growth acceptance config (N = 8, 1000 paths, threads = 1, a
    fresh process per run, 2-vCPU host) took a median 3.97 s against 2.81 s
    and was slower in 9 of 10 alternating pairs.
    """
    N = spec.N
    expected = (2, 2 * N + 1, 2 * N + 1)
    if np.shape(u0) != expected:
        raise ValueError(f"initial field has shape {np.shape(u0)}, expected {expected} "
                         f"for the noise resolution N = {N}")
    mean = np.array(u0[:, 0, 0], dtype=complex)

    multiplier = sp._biot_savart_multiplier(N, float(alpha))
    work = []  # the transport kernel's buffers, for the longest stack seen

    def drift(t: float, q: np.ndarray) -> np.ndarray:
        # _velocity on the columns ky >= 0, the only ones the kernel reads
        u = multiplier[..., :N + 1] * q[..., None, :, :N + 1]
        u[..., :, 0, 0] = mean
        if not work or len(work[0]) < len(q):
            work[:] = sp._advection_work(q.shape[:1], N)
        adv = sp.advection_term(q, u, tuple(w[:len(q)] for w in work))
        return np.negative(adv, out=adv)

    def diffusion(q: np.ndarray, dW: np.ndarray) -> np.ndarray:
        return curl_from_coefficients(spec, dW)

    q0 = sp.curl(sp.helmholtz_apply(u0, alpha))
    _, _, ksq = sp._k_grids(N)
    wq = ((1.0 + ksq) ** LOCALIZATION_SOBOLEV_INDEX
          * np.sum(np.abs(multiplier) ** 2, axis=0))
    mean_sq = np.sum(np.abs(mean) ** 2)

    def hs_norm(q: np.ndarray) -> np.ndarray:
        return np.sqrt(mean_sq + np.sum(wq * np.abs(q) ** 2, axis=(-2, -1)))

    norm0 = sp.sobolev_norm(u0, LOCALIZATION_SOBOLEV_INDEX)
    if not np.isfinite(norm0):  # out of range before the first step
        raise SdePathError(f"non-finite initial state: the initial field's "
                           f"H^{LOCALIZATION_SOBOLEV_INDEX:g} norm is {norm0}")
    radius = radius_factor * max(norm0, 1.0)
    return SdeProblem(drift=drift, diffusion=diffusion,
                      noise_variances=spec.mode_variances, x0=q0,
                      domain_radius=radius, domain_norm=hs_norm)


def _diagnostics(u: np.ndarray) -> np.ndarray:
    """Energy |u|_{L2}^2, enstrophy, H^s norm and divergence residual of each
    velocity row of u (..., 2, M, M), shape (4, ...), the squared moduli
    |u(k)|^2 formed once for all four: bit for bit the per-field functions."""
    sq = np.abs(u)
    sq *= sq
    l2 = sp._sobolev_norm_of_squares(sq, 0.0)
    return np.array((l2 ** 2, sp._enstrophy_of_squares(sq),
                     sp._sobolev_norm_of_squares(sq, LOCALIZATION_SOBOLEV_INDEX),
                     sp._divergence_residual(u, l2)))


def _velocity_blocks(u0: np.ndarray, spec: QWienerSpec, t_grid: np.ndarray,
                     increments, scheme: str = "heun", alpha: float = 0.0,
                     radius_factor: float = 10.0):
    """Step K paths of the potential-vorticity SDE from u0 without keeping
    them: yields (u, exit_index) per block of consecutive grid times, u the
    velocity rows (K, b, 2, M, M) of the block, a fresh array, as the paths
    reach its last time.  `increments` is the K paths' raw Q-Wiener
    coordinates as step_paths takes them: one array or an iterable of
    blocks of grid steps; they are the same for every alpha, so they drive
    the plain and the averaged model alike.

    Each q row is copied into a buffer of b grid times, b chosen so that
    the K paths' velocity rows take about _DIAGNOSTIC_BLOCK_BYTES, and the
    velocities are rebuilt once per block.  `exit_index` is the stepper's,
    final after the last block, whose last rows are the paths' last
    velocities (a stopped path's exit velocity).

    It has two consumers: the ensembles reduce each block by their kind's
    reduction (experiments._ensemble_range), and
    `lagrangian.run_equivalence` moves particles along one path's rows.
    Since every block is a fresh array, a consumer may keep rows of a block
    past the next one, as the particle loop keeps the previous block's last
    row for the midpoint field of the step into the next block.
    """
    problem = make_eulerian_problem(u0, spec, alpha=alpha, radius_factor=radius_factor)
    mean = np.array(u0[:, 0, 0])
    last = len(t_grid) - 1
    for i, (q, exit_index) in enumerate(step_paths(problem, scheme, t_grid, increments)):
        if i == 0:
            b = max(1, _DIAGNOSTIC_BLOCK_BYTES // (2 * q.nbytes))
            buf = np.empty((len(q), b) + q.shape[1:], dtype=q.dtype)
        buf[:, i % b] = q
        if i % b == b - 1 or i == last:
            yield _velocity(buf[:, :i % b + 1], alpha, mean), exit_index
