"""Truncated Fourier fields on the flat 2-torus [0, 2pi)^2.

Vector and scalar fields are stored by their Fourier coefficients on the
square lattice of modes with |k|_inf <= N, using the convention

    u(x) = sum_k  uhat(k) exp(i k.x),

so the coefficient array has shape (2, M, M) (vector) or (M, M) (scalar)
with M = 2N + 1 and numpy fftfreq mode ordering.  Real-valued fields obey
the Hermitian symmetry uhat(-k) = conj(uhat(k)).

All operations are pure: they return new field values and never mutate
their inputs (coefficient buffers are frozen at construction).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "SpectralField",
    "ScalarField",
    "leray_project",
    "advection_term",
    "pressure_from_velocity",
    "sobolev_norm",
    "l2_norm",
    "l2_inner",
    "enstrophy",
    "helmholtz_inverse",
    "helmholtz_apply",
    "evaluate_at",
    "evaluate_stack_at",
    "pointwise_advection_at",
    "divergence_coeffs",
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


class _FieldBase:
    def __init__(self, N: int, coeffs: np.ndarray):
        if N <= 0:
            raise ValueError("resolution N must be positive")
        M = 2 * N + 1
        if coeffs.shape[-2:] != (M, M):
            raise ValueError(f"coefficient array shape {coeffs.shape} does not match N={N}")
        self.N = N
        self.M = M
        self.coeffs = _freeze(coeffs.astype(complex, copy=True))

    @property
    def k(self) -> np.ndarray:
        return _wavenumbers(self.N)

    def _check_same(self, other: "_FieldBase") -> None:
        if self.N != other.N:
            raise ValueError(f"resolution mismatch: {self.N} vs {other.N}")


class SpectralField(_FieldBase):
    """Real vector field on the torus, held as truncated Fourier coefficients."""

    def __init__(self, N: int, coeffs: np.ndarray):
        if coeffs.shape[0] != 2:
            raise ValueError("vector field needs a leading component axis of size 2")
        super().__init__(N, coeffs)

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

    def with_coeffs(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(self.N, coeffs)

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


class ScalarField(_FieldBase):
    """Real scalar field on the torus (pressure, stream function, ...)."""

    @classmethod
    def zero(cls, N: int) -> "ScalarField":
        M = 2 * N + 1
        return cls(N, np.zeros((M, M), dtype=complex))

    def grid_values(self) -> np.ndarray:
        return np.real(np.fft.ifft2(self.coeffs) * self.M**2)


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


def divergence_coeffs(v: SpectralField) -> np.ndarray:
    """Fourier coefficients of div v, i.e. i k . vhat(k)."""
    kx, ky, _ = _k_grids(v.N)
    return 1j * (kx * v.coeffs[0] + ky * v.coeffs[1])


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
    # retained band |k| <= N is the lowest third of the product grid, so
    # quadratic products are alias-free after truncation
    return 3 * N + 2


@lru_cache(maxsize=None)
def _grid_layout(N: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Product-grid size Mg and the half-spectrum rows kx mod Mg and
    (-kx) mod Mg of the fft-ordered modes; read-only, built once per N."""
    Mg = _dealias_grid_size(N)
    k = _wavenumbers(N)
    return Mg, _freeze(k % Mg), _freeze(-k % Mg)


def _to_grid(coeffs: np.ndarray, N: int) -> np.ndarray:
    """Values on the Mg x Mg product grid of a stack (..., M, M) of real
    fields: the ky >= 0 half is zero-padded, then one irfft2 for the stack."""
    Mg, rows, _ = _grid_layout(N)
    half = np.zeros(coeffs.shape[:-2] + (Mg, Mg // 2 + 1), dtype=complex)
    half[..., rows, :N + 1] = coeffs[..., :N + 1]
    return np.fft.irfft2(half, s=(Mg, Mg), norm="forward")


def _from_grid(values: np.ndarray, N: int) -> np.ndarray:
    """Coefficients with |k| <= N, shape (..., M, M), of real product-grid
    values (..., Mg, Mg): one rfft2 gives ky >= 0, and the rest is rebuilt
    as c(-k) = conj c(k), so the output is exactly Hermitian."""
    Mg, rows, neg = _grid_layout(N)
    half = np.fft.rfft2(values, norm="forward")
    out = np.empty(values.shape[:-2] + (2 * N + 1, 2 * N + 1), dtype=complex)
    out[..., :N + 1] = half[..., rows, :N + 1]
    out[..., N + 1:] = np.conj(half[..., neg, N:0:-1])
    out[..., N + 1:, 0] = np.conj(out[..., N:0:-1, 0])
    return out


def advection_term(u: SpectralField, alpha: float = 0.0) -> SpectralField:
    """(u . grad) m + alpha^2 (grad u)^T Lap u with m = (id - alpha^2 Lap) u,
    the quadratic term of the averaged drift, not projected; at alpha = 0
    it is the Euler term (u . grad) u.

    Component i of (grad u)^T Lap u is sum_j (d_i u_j)(Lap u)_j.  The stack
    (u, d_x m, d_y m[, d_x u, d_y u, Lap u]) takes one inverse transform and
    the product one forward transform; at alpha = 0 only the first three
    fields are transformed.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    kx, ky, ksq = _k_grids(u.N)
    c = u.coeffs
    m = c * (1.0 + alpha**2 * ksq)
    fields = [c, 1j * kx * m, 1j * ky * m]
    if alpha > 0.0:
        fields += [1j * kx * c, 1j * ky * c, -ksq * c]
    g = _to_grid(np.stack(fields), u.N)
    prod = g[0, :1] * g[1] + g[0, 1:] * g[2]
    if alpha > 0.0:
        prod += alpha**2 * np.sum(g[3:5] * g[5], axis=1)
    return SpectralField(u.N, _from_grid(prod, u.N))


def pressure_from_velocity(u: SpectralField) -> ScalarField:
    """Zero-mean pressure with grad p = -(I - Pi)[(u.grad)u].

    Mode-wise: phat(k) = i k . ahat(k) / |k|^2 where a = (u.grad)u.
    """
    a = advection_term(u)
    kx, ky, ksq = _k_grids(u.N)
    ksq_safe = np.where(ksq == 0.0, 1.0, ksq)
    phat = 1j * (kx * a.coeffs[0] + ky * a.coeffs[1]) / ksq_safe
    phat[0, 0] = 0.0
    return ScalarField(u.N, phat)


# ---------------------------------------------------------------------------
# pointwise evaluation

def _phase_table(x: np.ndarray, N: int) -> np.ndarray:
    """exp(i x k) over the fft-ordered modes k, shape (P, M).

    Only k = 0..N are exponentiated; exp(-i x k) is their conjugate.
    """
    e = np.exp(1j * (x[:, None] * _wavenumbers(N)[:N + 1]))
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


def pointwise_advection_at(u: SpectralField, points: np.ndarray) -> np.ndarray:
    """(u.grad)u evaluated exactly at arbitrary points.

    Unlike advection_term (Galerkin-truncated to |k| <= N), this keeps the
    full quadratic trig polynomial: u and its first derivatives are summed
    directly at the points, on one set of phase tables, and multiplied there.
    """
    return _transport(evaluate_stack_at(_gradient_stack(u), points))


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
