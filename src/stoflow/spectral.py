"""Truncated Fourier fields on the flat 2-torus [0, 2pi)^2.

Vector and scalar fields are stored by their Fourier coefficients on the
square lattice of modes with |k|_inf <= N, using the convention

    u(x) = sum_k  uhat(k) exp(i k.x),

so the coefficient array has shape (2, M, M) (a vector SpectralField) or
(M, M) (a scalar) with M = 2N + 1 and numpy fftfreq mode ordering.
Real-valued fields obey the Hermitian symmetry uhat(-k) = conj(uhat(k)).

All operations are pure: they return new field values and never mutate
their inputs (coefficient buffers are frozen at construction).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "SpectralField",
    "leray_project",
    "curl",
    "biot_savart",
    "advection_term",
    "sobolev_norm",
    "l2_norm",
    "l2_inner",
    "enstrophy",
    "helmholtz_inverse",
    "helmholtz_apply",
    "evaluate_at",
    "evaluate_stack_at",
    "divergence_residual",
    "taylor_green",
    "single_mode_field",
    "random_divergence_free",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _wavenumbers(N: int) -> np.ndarray:
    """Integer mode numbers in fft order: [0, 1, ..., N, -N, ..., -1].

    Built once per N; the cached array is read-only.
    """
    M = 2 * N + 1
    return _freeze(np.fft.fftfreq(M, d=1.0 / M).astype(int))


class SpectralField:
    """Real vector field on the torus, held as truncated Fourier coefficients."""

    def __init__(self, N: int, coeffs: np.ndarray):
        if N <= 0:
            raise ValueError("resolution N must be positive")
        M = 2 * N + 1
        if coeffs.shape != (2, M, M):
            raise ValueError(f"vector field shape {coeffs.shape} does not match N={N}")
        self.N = N
        self.M = M
        self.coeffs = _freeze(coeffs.astype(complex, copy=True))

    @property
    def k(self) -> np.ndarray:
        return _wavenumbers(self.N)

    def _check_same(self, other: "SpectralField") -> None:
        if self.N != other.N:
            raise ValueError(f"resolution mismatch: {self.N} vs {other.N}")

    @classmethod
    def zero(cls, N: int) -> "SpectralField":
        M = 2 * N + 1
        return cls(N, np.zeros((2, M, M), dtype=complex))

    @classmethod
    def from_grid(cls, values: np.ndarray) -> "SpectralField":
        """Build from collocation values, shape (2, M, M) with M odd."""
        M = values.shape[-1]
        if M % 2 == 0:
            raise ValueError("collocation grid must have odd size 2N+1")
        N = (M - 1) // 2
        coeffs = np.fft.fft2(values) / M**2
        return cls(N, coeffs)

    @classmethod
    def from_modes(cls, N: int, modes: dict, hermitize: bool = False) -> "SpectralField":
        """Place given coefficients, keyed by integer wavevector (kx, ky).

        With hermitize=True the conjugate coefficient is added at -k so
        the resulting field is real-valued.
        """
        M = 2 * N + 1
        c = np.zeros((2, M, M), dtype=complex)
        for (kx, ky), vec in modes.items():
            if max(abs(kx), abs(ky)) > N:
                raise ValueError(f"mode {(kx, ky)} outside truncation N={N}")
            c[:, kx % M, ky % M] += np.asarray(vec, dtype=complex)
            if hermitize and (kx, ky) != (0, 0):
                c[:, (-kx) % M, (-ky) % M] += np.conj(np.asarray(vec, dtype=complex))
        return cls(N, c)

    def grid_values(self) -> np.ndarray:
        """Collocation values on the M x M grid x_n = 2 pi n / M."""
        return np.real(np.fft.ifft2(self.coeffs) * self.M**2)

    def grid_points(self) -> tuple[np.ndarray, np.ndarray]:
        x = 2.0 * np.pi * np.arange(self.M) / self.M
        return np.meshgrid(x, x, indexing="ij")

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_same(other)
        return SpectralField(self.N, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_same(other)
        return SpectralField(self.N, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.N, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.N, -self.coeffs)


# ---------------------------------------------------------------------------
# mode geometry helpers

@lru_cache(maxsize=None)
def _k_grids(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """kx (M, 1), ky (1, M) and |k|^2 (M, M) as floats; read-only, built once per N."""
    k = _wavenumbers(N)
    kx = k[:, None].astype(float)
    ky = k[None, :].astype(float)
    ksq = kx**2 + ky**2
    return _freeze(kx), _freeze(ky), _freeze(ksq)


# ---------------------------------------------------------------------------
# linear operators

def leray_project(v: SpectralField) -> SpectralField:
    """Project each coefficient onto the plane perpendicular to its wavevector.

    The k = 0 (mean flow) mode passes through unchanged.
    """
    kx, ky, ksq = _k_grids(v.N)
    ksq_safe = np.where(ksq == 0.0, 1.0, ksq)
    kdotc = kx * v.coeffs[0] + ky * v.coeffs[1]
    out = np.empty_like(v.coeffs)
    out[0] = v.coeffs[0] - kx * kdotc / ksq_safe
    out[1] = v.coeffs[1] - ky * kdotc / ksq_safe
    out[:, 0, 0] = v.coeffs[:, 0, 0]
    return SpectralField(v.N, out)


def curl(v: SpectralField) -> np.ndarray:
    """Coefficients (M, M) of the scalar curl d_x v_y - d_y v_x."""
    kx, ky, _ = _k_grids(v.N)
    return 1j * (kx * v.coeffs[1] - ky * v.coeffs[0])


@lru_cache(maxsize=None)
def _biot_savart_multiplier(N: int, alpha: float) -> np.ndarray:
    """(i ky, -i kx) / (|k|^2 (1 + alpha^2 |k|^2)), zero at k = 0, shape
    (2, M, M); read-only, built once per (N, alpha)."""
    kx, ky, ksq = _k_grids(N)
    h = ksq * (1.0 + alpha**2 * ksq)
    h[0, 0] = np.inf
    return _freeze(np.stack([1j * ky / h, -1j * kx / h]))


def biot_savart(q: np.ndarray, alpha: float = 0.0) -> np.ndarray:
    """Zero-mean velocities u = H^-1 grad-perp Lap^-1 q, shape (..., 2, M, M),
    of a stack (..., M, M) of potential vorticities q = curl(H u) with
    H = id - alpha^2 Lap: the inverse of curl H on zero-mean divergence-free
    fields, and the Biot-Savart law at alpha = 0.  q's k = 0 mode is ignored."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    N = (q.shape[-1] - 1) // 2
    return _biot_savart_multiplier(N, float(alpha)) * q[..., None, :, :]


def divergence_residual(v: SpectralField) -> float:
    """max_k |k . vhat(k)| relative to the coefficient norm of v."""
    kx, ky, _ = _k_grids(v.N)
    num = np.max(np.abs(kx * v.coeffs[0] + ky * v.coeffs[1]))
    den = np.sqrt(np.sum(np.abs(v.coeffs) ** 2))
    if den == 0.0:
        return 0.0
    return float(num / den)


def helmholtz_inverse(v: SpectralField, alpha: float) -> SpectralField:
    """Apply (id - alpha^2 Laplacian)^(-1): multiply by 1/(1 + alpha^2 |k|^2)."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    _, _, ksq = _k_grids(v.N)
    return SpectralField(v.N, v.coeffs / (1.0 + alpha**2 * ksq))


def helmholtz_apply(v: SpectralField, alpha: float) -> SpectralField:
    """Apply (id - alpha^2 Laplacian): multiply by 1 + alpha^2 |k|^2."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    _, _, ksq = _k_grids(v.N)
    return SpectralField(v.N, v.coeffs * (1.0 + alpha**2 * ksq))


# ---------------------------------------------------------------------------
# norms

def sobolev_norm(v: SpectralField, s: float) -> float:
    """Discrete H^s norm: ( sum_k (1+|k|^2)^s |vhat(k)|^2 )^(1/2)."""
    if s < 0:
        raise ValueError("Sobolev index s must be >= 0")
    _, _, ksq = _k_grids(v.N)
    w = (1.0 + ksq) ** s
    return float(np.sqrt(np.sum(w * np.abs(v.coeffs) ** 2)))


def l2_norm(v: SpectralField) -> float:
    return sobolev_norm(v, 0.0)


def l2_inner(u: SpectralField, v: SpectralField) -> float:
    u._check_same(v)
    return float(np.real(np.sum(u.coeffs * np.conj(v.coeffs))))


def enstrophy(v: SpectralField) -> float:
    """sum_k |k|^2 |vhat(k)|^2."""
    _, _, ksq = _k_grids(v.N)
    return float(np.sum(ksq * np.abs(v.coeffs) ** 2))


# ---------------------------------------------------------------------------
# nonlinear terms (pseudo-spectral with 2/3-rule dealiasing, real transforms)

def _dealias_grid_size(N: int) -> int:
    """The smallest 5-smooth size >= 3N + 1.  The retained band |k| <= N is
    then within the lowest third of the product grid, so quadratic products
    are alias-free after truncation (the 2/3 rule)."""
    Mg = 3 * N + 1
    while True:
        m = Mg
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return Mg
        Mg += 1


@lru_cache(maxsize=None)
def _grid_layout(N: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Product-grid size Mg and the half-spectrum rows kx mod Mg and
    (-kx) mod Mg of the fft-ordered modes; read-only, built once per N."""
    Mg = _dealias_grid_size(N)
    k = _wavenumbers(N)
    return Mg, _freeze(k % Mg), _freeze(-k % Mg)


def _to_grid(coeffs: np.ndarray, N: int) -> np.ndarray:
    """Values on the Mg x Mg product grid of a stack (..., M, M) of real
    fields.  Only the N + 1 columns ky >= 0 are zero-padded along kx and
    transformed there; irfft(n=Mg) zero-pads the rest of the half spectrum.
    Equals irfft2 of the zero-padded half spectrum."""
    Mg, rows, _ = _grid_layout(N)
    half = np.zeros(coeffs.shape[:-2] + (Mg, N + 1), dtype=complex)
    half[..., rows, :] = coeffs[..., :N + 1]
    return np.fft.irfft(np.fft.ifft(half, axis=-2, norm="forward"), n=Mg,
                        axis=-1, norm="forward")


def _from_grid(values: np.ndarray, N: int) -> np.ndarray:
    """Coefficients with |k| <= N, shape (..., M, M), of real product-grid
    values (..., Mg, Mg): rfft along y, then fft along x of the N + 1
    retained columns ky >= 0 only (equal to those columns of rfft2).  The
    rest is rebuilt as c(-k) = conj c(k), so the output is exactly Hermitian."""
    Mg, rows, neg = _grid_layout(N)
    cols = np.fft.rfft(values, axis=-1, norm="forward")[..., :N + 1]
    half = np.fft.fft(cols, axis=-2, norm="forward")
    out = np.empty(values.shape[:-2] + (2 * N + 1, 2 * N + 1), dtype=complex)
    out[..., :N + 1] = half[..., rows, :]
    out[..., N + 1:] = np.conj(half[..., neg, N:0:-1])
    out[..., N + 1:, 0] = np.conj(out[..., N:0:-1, 0])
    return out


def advection_term(q: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Coefficients (M, M) of u . grad q, Galerkin-truncated to |k| <= N, for
    a real scalar q (M, M) carried by a real velocity u (2, M, M).

    The one dealiased quadratic kernel: the stack (u_x, u_y, d_x q, d_y q)
    takes one inverse transform and the product one forward transform.
    """
    N = (q.shape[-1] - 1) // 2
    kx, ky, _ = _k_grids(N)
    g = _to_grid(np.stack([u[0], u[1], 1j * kx * q, 1j * ky * q]), N)
    return _from_grid(g[0] * g[2] + g[1] * g[3], N)


# ---------------------------------------------------------------------------
# pointwise evaluation

def _phase_table(x: np.ndarray, N: int) -> np.ndarray:
    """exp(i x k) over the fft-ordered modes k, shape (P, M).

    Only k = 0..N are computed, as cos + i sin of x k; exp(-i x k) is their
    conjugate.
    """
    xk = x[:, None] * _wavenumbers(N)[:N + 1]
    e = np.empty(xk.shape, dtype=complex)
    e.real = np.cos(xk)
    e.imag = np.sin(xk)
    return np.concatenate([e, np.conj(e[:, N:0:-1])], axis=1)


def evaluate_stack_at(coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate a stack of real fields at the same points by direct summation.

    coeffs: array (..., M, M) of Fourier coefficients; points: array (P, 2).
    Returns the real values, shape (P, ...).  The phase exp(i k.x) is
    separable, exp(i x kx) exp(i y ky), so one pair of (P, M) phase tables
    serves every field in the stack: 2 P (N+1) complex exponentials, plus
    a P M^2 contraction per field.  Exact: matches grid_values at
    collocation points.  The points are reduced mod 2 pi before the tables
    are built, so points a period apart give bitwise-equal values.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float)) % (2.0 * np.pi)
    M = coeffs.shape[-1]
    N = (M - 1) // 2
    ex = _phase_table(pts[:, 0], N)
    ey = _phase_table(pts[:, 1], N)
    lead = coeffs.shape[:-2]
    c = coeffs.reshape(-1, M, M)
    # sum over kx as one matrix product, then over ky against ey per point
    partial = (ex @ c.transpose(1, 0, 2).reshape(M, -1)).reshape(len(pts), -1, M)
    vals = (partial @ ey[:, :, None])[..., 0]
    return np.real(vals).reshape((len(pts),) + lead)


def evaluate_at(v: SpectralField, points: np.ndarray) -> np.ndarray:
    """Evaluate the field by direct trigonometric summation.

    points: array (P, 2); returns array (P, 2) of real velocity vectors.
    Costs 2 P (N+1) complex exponentials plus a P M^2 contraction
    (see evaluate_stack_at); exact (matches grid_values at collocation
    points).
    """
    return evaluate_stack_at(v.coeffs, points)


def _gradient_stack(u: SpectralField) -> np.ndarray:
    """Coefficients of u, d_x u and d_y u stacked, shape (3, 2, M, M)."""
    kx, ky, _ = _k_grids(u.N)
    return np.stack([u.coeffs, 1j * kx * u.coeffs, 1j * ky * u.coeffs])


def _transport(vals: np.ndarray) -> np.ndarray:
    """(u.grad)u from the values (P, 3, 2) of a _gradient_stack."""
    u, dudx, dudy = vals[:, 0], vals[:, 1], vals[:, 2]
    return u[:, :1] * dudx + u[:, 1:] * dudy


# ---------------------------------------------------------------------------
# canonical initial fields

def taylor_green(N: int, amplitude: float = 1.0) -> SpectralField:
    """u = a (sin x cos y, -cos x sin y); a steady 2D Euler datum."""
    if N < 1:
        raise ValueError("Taylor-Green needs N >= 1")
    M = 2 * N + 1
    x = 2.0 * np.pi * np.arange(M) / M
    X, Y = np.meshgrid(x, x, indexing="ij")
    vals = np.stack([np.sin(X) * np.cos(Y), -np.cos(X) * np.sin(Y)]) * amplitude
    return SpectralField.from_grid(vals)


def single_mode_field(N: int, kvec, amplitude: float = 1.0) -> SpectralField:
    """Divergence-free shear u(x) = a cos(k.x) kperp/|k|."""
    kx, ky = int(kvec[0]), int(kvec[1])
    if (kx, ky) == (0, 0):
        raise ValueError("single-mode field needs k != 0")
    if max(abs(kx), abs(ky)) > N:
        raise ValueError(f"mode {(kx, ky)} outside truncation N={N}")
    knorm = np.hypot(kx, ky)
    d = np.array([-ky, kx]) / knorm
    half = 0.5 * amplitude * d.astype(complex)
    return SpectralField.from_modes(N, {(kx, ky): half}, hermitize=True)


def random_divergence_free(N: int, rng: np.random.Generator, slope: float = 2.0,
                           amplitude: float = 1.0) -> SpectralField:
    """Random real divergence-free field with |uhat(k)| ~ (1+|k|^2)^(-slope/2)."""
    M = 2 * N + 1
    raw = rng.standard_normal((2, M, M)) + 1j * rng.standard_normal((2, M, M))
    _, _, ksq = _k_grids(N)
    raw *= (1.0 + ksq) ** (-slope / 2.0)
    # symmetrize so the field is real-valued
    k = _wavenumbers(N)
    neg = (-k) % M
    raw = 0.5 * (raw + np.conj(raw[:, neg[:, None], neg[None, :]]))
    raw[:, 0, 0] = 0.0
    f = leray_project(SpectralField(N, raw))
    n = l2_norm(f)
    if n > 0:
        f = f * (amplitude / n)
    return f
