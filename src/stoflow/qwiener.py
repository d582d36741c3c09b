"""Q-Wiener processes valued in divergence-free spectral fields.

The covariance operator Q is diagonal in the canonical real eigenbasis of
divergence-free torus modes: for each wavevector k in a half lattice, the
two unit fields

    sqrt(2) cos(k.x) kperp/|k|,   sqrt(2) sin(k.x) kperp/|k|

share the eigenvalue lambda_k = c (1 + |k|^2)^(-gamma).  An increment over
a step dt is sum_j sqrt(lambda_j dt) xi_j e_j with iid standard normals xi.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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
    """Finite eigen-decomposition of the noise covariance Q.

    Each row of `wavevectors` carries two real modes (cosine, sine) with the
    same eigenvalue; noise coordinates are ordered
    [cos k0, sin k0, cos k1, sin k1, ...].
    """

    N: int
    gamma: float
    s_prime: int
    wavevectors: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)  # one per wavevector

    def __post_init__(self):
        self.wavevectors.flags.writeable = False
        self.eigenvalues.flags.writeable = False

    @cached_property
    def _layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unit directions kperp/|k| (nk, 2) and the flat indices of +k and
        -k in an (M, M) coefficient array; built on first use."""
        ks = self.wavevectors
        kf = ks.astype(float)
        knorm = np.sqrt(np.sum(kf**2, axis=1))
        d = np.stack([-kf[:, 1], kf[:, 0]], axis=1) / knorm[:, None]
        M = 2 * self.N + 1
        plus = np.ravel_multi_index((ks[:, 0] % M, ks[:, 1] % M), (M, M))
        minus = np.ravel_multi_index(((-ks[:, 0]) % M, (-ks[:, 1]) % M), (M, M))
        for a in (d, plus, minus):
            a.flags.writeable = False
        return d, plus, minus

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

    @property
    def mode_variances(self) -> np.ndarray:
        """Eigenvalue per noise coordinate (cos and sin share lambda_k)."""
        return np.repeat(self.eigenvalues, 2)

    @property
    def trace(self) -> float:
        return float(2.0 * np.sum(self.eigenvalues))

    def regularity_budget(self) -> float:
        """sum_modes lambda_k (1+|k|^2)^{s'}, the H^{s'}-valued-noise proxy."""
        ksq = np.sum(self.wavevectors.astype(float) ** 2, axis=1)
        return float(2.0 * np.sum(self.eigenvalues * (1.0 + ksq) ** self.s_prime))

    @property
    def converges_in_limit(self) -> bool:
        """Whether the H^{s'} budget would stay finite as N -> infinity.

        For lambda_k = c (1+|k|^2)^(-gamma) in dimension 2 this needs
        2 gamma - 2 s' > 2.
        """
        return 2.0 * self.gamma - 2.0 * self.s_prime > 2.0


def build_spectrum(N: int, gamma: float, c: float, s_prime: int = 0) -> QWienerSpec:
    """Power-law spectrum lambda_k = c (1+|k|^2)^(-gamma) on |k|_inf <= N."""
    if N <= 0:
        raise ValueError("N must be positive")
    if c < 0:
        raise ValueError("amplitude c must be >= 0")
    ks = half_lattice(N)
    ksq = np.sum(ks.astype(float) ** 2, axis=1)
    lam = c * (1.0 + ksq) ** (-gamma)
    return QWienerSpec(N=N, gamma=float(gamma), s_prime=int(s_prime),
                       wavevectors=ks, eigenvalues=lam)


def sample_coefficients(spec: QWienerSpec, dt: float, n: int,
                        rng: np.random.Generator) -> np.ndarray:
    """n rows of per-mode increments sqrt(lambda dt) xi, shape (n, n_modes)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    xi = rng.standard_normal((n, spec.n_modes))
    xi *= np.sqrt(spec.mode_variances * dt)  # in place: no second (n, n_modes) array
    return xi


def _place(spec: QWienerSpec, a: np.ndarray) -> np.ndarray:
    """Coefficients (..., M, M) holding the rows a (..., nk) at the +k flat
    indices and conj(a) at -k.  The +k and -k index sets are disjoint and
    miss k = 0, so plain assignment places every coefficient once."""
    M = 2 * spec.N + 1
    _, plus, minus = spec._layout
    c = np.zeros(a.shape[:-1] + (M * M,), dtype=complex)
    c[..., plus] = a
    c[..., minus] = np.conj(a)
    return c.reshape(a.shape[:-1] + (M, M))


def field_from_coefficients(spec: QWienerSpec, coeffs: np.ndarray) -> np.ndarray:
    """The real field sum_j coeffs_j e_j over the unit eigenfields of each
    row (..., n_modes) of coeffs, shape (..., 2, M, M).

    The map from noise coordinates to velocity fields, used by the
    Lagrangian kicks.  An increment is its row of coordinates: the field of
    a row of sample_coefficients is W(t + dt) - W(t).
    """
    w = np.asarray(coeffs, dtype=float)
    # coefficient at +k: sqrt(2)/2 (w_cos - i w_sin) d with d = kperp/|k|
    vec = np.sqrt(2.0) / 2.0 * (w[..., 0::2] - 1j * w[..., 1::2])
    return _place(spec, vec[..., None, :] * spec._layout[0].T)


def curl_from_coefficients(spec: QWienerSpec, coeffs: np.ndarray) -> np.ndarray:
    """Coefficients (..., M, M) of the scalar curl of field_from_coefficients
    of each row (..., n_modes) of coeffs, in closed form: i |k| sqrt(2)/2
    (w_cos - i w_sin) at +k and its conjugate at -k, so the output is
    exactly Hermitian and zero at k = 0.  The Eulerian diffusion uses it."""
    w = np.asarray(coeffs, dtype=float)
    return _place(spec, spec._curl_factor * (w[..., 0::2] - 1j * w[..., 1::2]))
