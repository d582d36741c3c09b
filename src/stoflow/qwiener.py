"""Q-Wiener processes valued in divergence-free spectral fields.

The covariance operator Q is diagonal in the canonical real eigenbasis of
divergence-free torus modes: for each wavevector k in a half lattice, the
two unit fields

    sqrt(2) cos(k.x) kperp/|k|,   sqrt(2) sin(k.x) kperp/|k|

share the eigenvalue lambda_k (build_spectrum: c (1 + |k|^2)^(-gamma)),
and a QWienerSpec is these eigenpairs only.  An increment over a step dt
is sum_j sqrt(lambda_j dt) xi_j e_j with iid standard normals xi.
curl_from_coefficients places its curl in closed form (the Eulerian noise)
and field_from_coefficients is the Biot-Savart velocity of that curl (the
particle kick), so both formulations are driven by one W.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import spectral as sp

__all__ = [
    "QWienerSpec",
    "build_spectrum",
    "sample_coefficients",
    "field_from_coefficients",
    "curl_from_coefficients",
]


def half_lattice(N: int) -> np.ndarray:
    """Representatives of the +/-k pairs with |k|_inf <= N, k != 0.

    Convention: kx > 0, or kx == 0 and ky > 0; ordered by kx, then ky.
    Built as arrays, so an N too large for memory fails at its first
    allocation.
    """
    pos = np.arange(1, N + 1, dtype=int)
    kx, ky = np.meshgrid(pos, np.arange(-N, N + 1, dtype=int), indexing="ij")
    axis = np.stack([np.zeros_like(pos), pos], axis=1)  # kx == 0, ky > 0
    return np.concatenate([axis, np.stack([kx.ravel(), ky.ravel()], axis=1)])


@dataclass(frozen=True)
class QWienerSpec:
    """Finite eigen-decomposition of the noise covariance Q on |k|_inf <= N.

    Each row of `wavevectors` carries two real modes (cosine, sine) with the
    same eigenvalue; noise coordinates are ordered
    [cos k0, sin k0, cos k1, sin k1, ...].  No law or regularity index:
    the caller keeps gamma and s'.
    """

    N: int
    wavevectors: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)  # one per wavevector

    def __post_init__(self):
        self.wavevectors.flags.writeable = False
        self.eigenvalues.flags.writeable = False

    @cached_property
    def _layout(self) -> tuple[np.ndarray, np.ndarray]:
        """The flat indices of +k and -k in an (M, M) coefficient array, for
        any set of wavevectors; built on first use, read-only."""
        ks = self.wavevectors
        M = 2 * self.N + 1
        plus = np.ravel_multi_index((ks[:, 0] % M, ks[:, 1] % M), (M, M))
        minus = np.ravel_multi_index(((-ks[:, 0]) % M, (-ks[:, 1]) % M), (M, M))
        for a in (plus, minus):
            a.flags.writeable = False
        return plus, minus

    @cached_property
    def _curl_factor(self) -> np.ndarray:
        """i |k| sqrt(2)/2 per wavevector (nk,): the curl of the unit
        eigenfield (kperp/|k|) exp(i k.x) is i |k| exp(i k.x); read-only."""
        knorm = np.sqrt(np.sum(self.wavevectors.astype(float) ** 2, axis=1))
        f = 1j * knorm * (np.sqrt(2.0) / 2.0)
        f.flags.writeable = False
        return f

    @property
    def n_modes(self) -> int:
        return 2 * len(self.wavevectors)

    @cached_property
    def mode_variances(self) -> np.ndarray:
        """Eigenvalue per noise coordinate (cos and sin share lambda_k); read-only."""
        lam = np.repeat(self.eigenvalues, 2)
        lam.flags.writeable = False
        return lam

    @property
    def trace(self) -> float:
        return float(2.0 * np.sum(self.eigenvalues))

    def regularity_budget(self, s_prime: int) -> float:
        """sum_modes lambda_k (1+|k|^2)^{s'}, the H^{s'}-valued-noise proxy;
        a mode without noise adds 0 whatever s' is, so with c = 0 it is 0.0.
        It may overflow to inf for a large s'."""
        noisy = self.eigenvalues > 0
        ksq = np.sum(self.wavevectors[noisy].astype(float) ** 2, axis=1)
        return float(2.0 * np.sum(self.eigenvalues[noisy] * (1.0 + ksq) ** s_prime))


def build_spectrum(N: int, gamma: float, c: float) -> QWienerSpec:
    """Power-law spectrum lambda_k = c (1+|k|^2)^(-gamma) on |k|_inf <= N."""
    if N <= 0:
        raise ValueError("N must be positive")
    if c < 0:
        raise ValueError("amplitude c must be >= 0")
    ks = half_lattice(N)
    ksq = np.sum(ks.astype(float) ** 2, axis=1)
    lam = c * (1.0 + ksq) ** (-gamma)
    return QWienerSpec(N=N, wavevectors=ks, eigenvalues=lam)


def sample_coefficients(spec: QWienerSpec, dt: float, n: int,
                        rng: np.random.Generator) -> np.ndarray:
    """n rows of per-mode increments sqrt(lambda dt) xi, shape (n, n_modes)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    xi = rng.standard_normal((n, spec.n_modes))
    xi *= np.sqrt(spec.mode_variances * dt)  # in place: no second (n, n_modes) array
    return xi


def curl_from_coefficients(spec: QWienerSpec, coeffs: np.ndarray) -> np.ndarray:
    """Coefficients (..., M, M) of the scalar curl of the increment
    sum_j coeffs_j e_j of each row (..., n_modes) of coeffs, the Eulerian
    diffusion, in closed form: (w_cos, w_sin) of wavevector k place
    _curl_factor (w_cos - i w_sin) at +k and its conjugate at -k.  The +k
    and -k index sets are disjoint and miss k = 0, so plain assignment
    places every coefficient once: exactly Hermitian, zero at k = 0."""
    w = np.asarray(coeffs, dtype=float)
    a = spec._curl_factor * (w[..., 0::2] - 1j * w[..., 1::2])
    M = 2 * spec.N + 1
    plus, minus = spec._layout
    c = np.zeros(a.shape[:-1] + (M * M,), dtype=complex)
    c[..., plus] = a
    c[..., minus] = np.conj(a)
    return c.reshape(a.shape[:-1] + (M, M))


def field_from_coefficients(spec: QWienerSpec, coeffs: np.ndarray) -> np.ndarray:
    """The velocity increment sum_j coeffs_j e_j of each row (..., n_modes)
    of coeffs, shape (..., 2, M, M): the Biot-Savart velocity of
    curl_from_coefficients, as Biot-Savart maps i |k| exp(i k.x) back to
    the unit eigenfield (kperp/|k|) exp(i k.x).  So the particle kicks are the
    velocity of the noise the Eulerian step adds; the field of a row of
    sample_coefficients is W(t + dt) - W(t)."""
    return sp.biot_savart(curl_from_coefficients(spec, coeffs))
