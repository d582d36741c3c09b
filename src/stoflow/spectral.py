"""Truncated Fourier fields on the flat 2-torus [0, 2pi)^2.

A field is the plain complex array of its Fourier coefficients on the
square lattice of modes with |k|_inf <= N, using the convention

    u(x) = sum_k  uhat(k) exp(i k.x),

of shape (..., 2, M, M) for vector fields and (..., M, M) for scalars,
with M = 2N + 1 read from the last axis and numpy fftfreq mode ordering.
Leading axes stack fields, such as the rows of a path: operators and norms
act on the trailing axes and broadcast over the leading ones.  Real-valued
fields obey the Hermitian symmetry uhat(-k) = conj(uhat(k)).

Products of fields go through one dealiased transform kernel
(`advection_term`); values at arbitrary points go through one direct sum,
`evaluate_stack_at`, which uses that symmetry to run in the real cos/sin
basis: one real matrix product over kx and one real contraction over
ky >= 0 per point, half the multiply-adds of the complex sum.

All operations are pure: they return new arrays and never write to their
inputs, except the work buffers a caller may lend the transport kernel.
The per-N constants are built once and are read-only, and the module keeps
no other state: those buffers belong to the caller, who may pass the same
ones to many calls (`_advection_work`), and the kernel's output is still a
fresh array.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "leray_project",
    "curl",
    "biot_savart",
    "advection_term",
    "sobolev_norm",
    "l2_norm",
    "enstrophy",
    "helmholtz_apply",
    "evaluate_stack_at",
    "divergence_residual",
    "taylor_green",
    "single_mode_field",
    "random_divergence_free",
]

_FIELD_AXES = (-3, -2, -1)  # the component and mode axes of a vector field


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _resolution(a: np.ndarray) -> int:
    """N of a field array, read from its last axis M = 2N + 1."""
    return (a.shape[-1] - 1) // 2


@lru_cache(maxsize=None)
def _wavenumbers(N: int) -> np.ndarray:
    """Integer mode numbers in fft order: [0, 1, ..., N, -N, ..., -1].

    Built once per N; the cached array is read-only.
    """
    M = 2 * N + 1
    return _freeze(np.fft.fftfreq(M, d=1.0 / M).astype(int))


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


@lru_cache(maxsize=None)
def _ik_grids(N: int) -> tuple[np.ndarray, np.ndarray]:
    """i kx (M, 1) and i ky (1, M), the d_x and d_y multipliers; read-only,
    built once per N."""
    kx, ky, _ = _k_grids(N)
    return _freeze(1j * kx), _freeze(1j * ky)


# ---------------------------------------------------------------------------
# linear operators

def leray_project(v: np.ndarray) -> np.ndarray:
    """Project each coefficient of v (..., 2, M, M) onto the plane
    perpendicular to its wavevector.

    The k = 0 (mean flow) mode passes through unchanged.
    """
    kx, ky, ksq = _k_grids(_resolution(v))
    ksq_safe = np.where(ksq == 0.0, 1.0, ksq)
    vx, vy = v[..., 0, :, :], v[..., 1, :, :]
    kdotc = kx * vx + ky * vy
    out = np.stack([vx - kx * kdotc / ksq_safe, vy - ky * kdotc / ksq_safe], axis=-3)
    out[..., :, 0, 0] = v[..., :, 0, 0]
    return out


def curl(v: np.ndarray) -> np.ndarray:
    """Coefficients (..., M, M) of the scalar curl d_x v_y - d_y v_x of v
    (..., 2, M, M)."""
    kx, ky, _ = _k_grids(_resolution(v))
    return 1j * (kx * v[..., 1, :, :] - ky * v[..., 0, :, :])


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
    return _biot_savart_multiplier(_resolution(q), float(alpha)) * q[..., None, :, :]


def divergence_residual(v: np.ndarray) -> np.ndarray:
    """max_k |k . vhat(k)| relative to the coefficient norm of each field of
    v (..., 2, M, M); 0 for a zero field."""
    return _divergence_residual(v, l2_norm(v))


def _divergence_residual(v: np.ndarray, den: np.ndarray) -> np.ndarray:
    """divergence_residual of v given its L2 norms den."""
    kx, ky, _ = _k_grids(_resolution(v))
    num = np.max(np.abs(kx * v[..., 0, :, :] + ky * v[..., 1, :, :]), axis=(-2, -1))
    return num / np.where(den == 0.0, np.inf, den)


def helmholtz_apply(v: np.ndarray, alpha: float) -> np.ndarray:
    """Apply (id - alpha^2 Laplacian) to a vector or scalar field (..., M, M):
    multiply by 1 + alpha^2 |k|^2."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    _, _, ksq = _k_grids(_resolution(v))
    return v * (1.0 + alpha**2 * ksq)


# ---------------------------------------------------------------------------
# norms, one per vector field of a stack (..., 2, M, M); the _of_squares
# form takes the squared moduli |vhat|^2, which a caller reducing one stack
# to several norms forms once

def sobolev_norm(v: np.ndarray, s: float) -> np.ndarray:
    """Discrete H^s norm: ( sum_k (1+|k|^2)^s |vhat(k)|^2 )^(1/2)."""
    if s < 0:
        raise ValueError("Sobolev index s must be >= 0")
    _, _, ksq = _k_grids(_resolution(v))
    return np.sqrt(np.sum((1.0 + ksq) ** s * np.abs(v) ** 2, axis=_FIELD_AXES))


def l2_norm(v: np.ndarray) -> np.ndarray:
    return sobolev_norm(v, 0.0)


def enstrophy(v: np.ndarray) -> np.ndarray:
    """sum_k |k|^2 |vhat(k)|^2."""
    return _enstrophy_of_squares(np.abs(v) ** 2)


def _enstrophy_of_squares(sq: np.ndarray) -> np.ndarray:
    _, _, ksq = _k_grids(_resolution(sq))
    return np.sum(ksq * sq, axis=_FIELD_AXES)


# ---------------------------------------------------------------------------
# nonlinear terms (pseudo-spectral with 2/3-rule dealiasing, real transforms)

@lru_cache(maxsize=None)
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


def _row_blocks(N: int, Mg: int) -> tuple:
    """The rows kx >= 0 and kx < 0 as slice pairs (lo, hi): lo the rows of
    the M x M spectrum, hi the same kx on the Mg-row product grid."""
    return (np.s_[:N + 1], np.s_[:N + 1]), (np.s_[N + 1:], np.s_[Mg - N:])


def _to_grid(half: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Values on the Mg x Mg product grid of a stack of real fields, given
    the N + 1 columns ky >= 0 of their half spectra zero-padded along kx,
    shape (..., Mg, N + 1), which are transformed along x in place (half is
    overwritten); irfft(n=Mg) then zero-pads the rest of the half spectrum,
    into `out` (..., Mg, Mg).  Equals irfft2 of the zero-padded half
    spectrum."""
    np.fft.ifft(half, axis=-2, norm="forward", out=half)
    return np.fft.irfft(half, n=half.shape[-2], axis=-1, norm="forward", out=out)


def _from_grid(values: np.ndarray, N: int, spectrum: np.ndarray,
               cols: np.ndarray) -> np.ndarray:
    """Coefficients with |k| <= N, shape (..., M, M), of real product-grid
    values (..., Mg, Mg): rfft along y, then fft along x of the N + 1
    retained columns ky >= 0 only (equal to those columns of rfft2).  The
    rest is reflected, c(-k) = conj c(k) with row i opposite row M - i, so
    the output is exactly Hermitian.  `spectrum` (..., Mg, Mg // 2 + 1) and
    `cols` (..., Mg, N + 1) receive the rfft and the retained columns,
    which are then transformed in place; the output is a fresh array."""
    np.fft.rfft(values, axis=-1, norm="forward", out=spectrum)
    cols[...] = spectrum[..., :N + 1]
    half = np.fft.fft(cols, axis=-2, norm="forward", out=cols)
    out = np.empty(values.shape[:-2] + (2 * N + 1, 2 * N + 1), dtype=complex)
    for lo, hi in _row_blocks(N, values.shape[-1]):
        out[..., lo, :N + 1] = half[..., hi, :]
    np.conj(out[..., :1, N:0:-1], out=out[..., :1, N + 1:])
    np.conj(out[..., :0:-1, N:0:-1], out=out[..., 1:, N + 1:])
    np.conj(out[..., N:0:-1, 0], out=out[..., N + 1:, 0])
    return out


def _advection_work(lead: tuple, N: int) -> tuple:
    """Work buffers of advection_term for a stack of shape `lead`: the
    padded half spectrum (*lead, 4, Mg, N + 1), the grid values
    (*lead, 4, Mg, Mg) and the forward rfft (*lead, Mg, Mg // 2 + 1).  A
    caller that applies the kernel to one stack many times allocates them
    once and passes them, or leading slices [:k] of them for the first k
    fields, to every call; their contents between calls are scratch."""
    Mg = _dealias_grid_size(N)
    return (np.empty(lead + (4, Mg, N + 1), dtype=complex),
            np.empty(lead + (4, Mg, Mg)),
            np.empty(lead + (Mg, Mg // 2 + 1), dtype=complex))


def advection_term(q: np.ndarray, u: np.ndarray, work: tuple | None = None) -> np.ndarray:
    """Coefficients (..., M, M) of u . grad q, Galerkin-truncated to |k| <= N,
    for real scalars q (..., M, M) carried by real velocities u (..., 2, M, M).
    Only the N + 1 columns ky >= 0 of u are read, so u may be just those,
    (..., 2, M, N + 1).

    The one dealiased quadratic kernel.  The N + 1 columns ky >= 0 of
    (u_x, u_y, d_x q, d_y q) are written in place into one zero-padded half
    spectrum (..., 4, Mg, N + 1), the rows kx >= 0 and kx < 0 by two slices
    per field.  It takes one inverse transform, its kx pass in place, and
    the product, formed in place in the grid values, one forward one.  No
    full (..., 4, M, M) stack or full-width i k q is formed.  With `work`,
    the buffers of `_advection_work` for this stack shape, every transform
    writes into them (the half spectrum's first field takes the retained
    columns of the forward one) and a call allocates only its output;
    without it the call allocates them for itself.  The output is the same
    bit for bit.
    """
    N = _resolution(q)
    Mg = _dealias_grid_size(N)
    ikx, iky = _ik_grids(N)
    if work is None:
        work = _advection_work(q.shape[:-2], N)
    half, grid, spectrum = work
    half[..., N + 1:Mg - N, :] = 0.0  # the padding rows; a lent buffer holds stale ones
    for lo, hi in _row_blocks(N, Mg):
        half[..., :2, hi, :] = u[..., lo, :N + 1]
        np.multiply(ikx[lo], q[..., lo, :N + 1], out=half[..., 2, hi, :])
        np.multiply(iky[:, :N + 1], q[..., lo, :N + 1], out=half[..., 3, hi, :])
    g = _to_grid(half, grid)
    ux, uy, qx, qy = (g[..., i, :, :] for i in range(4))
    prod = np.multiply(ux, qx, out=ux)
    prod += np.multiply(uy, qy, out=uy)
    return _from_grid(prod, N, spectrum, half[..., 0, :, :])


# ---------------------------------------------------------------------------
# pointwise evaluation

@lru_cache(maxsize=None)
def _ky_weights(N: int) -> np.ndarray:
    """(w, -w) for ky = 0..N, shape (N + 1, 2), with w = 1 at ky = 0 and 2
    above: the real part of a Hermitian sum over the columns ky >= 0 is
    sum_ky (w Re S cos(ky y) - w Im S sin(ky y)); read-only, built once per
    N."""
    w = np.full((N + 1, 2), 2.0)
    w[0] = 1.0
    w[:, 1] *= -1.0
    return _freeze(w)


def _power_table(pts: np.ndarray, N: int) -> np.ndarray:
    """exp(i k x) and exp(i k y) for k = 0..N at the points (P, 2), k-major:
    shape (N + 1, 2, P).  One cos and one sin of the points give exp(i x);
    the higher powers are its N - 1 products, made in doubling blocks: with
    the powers up to k built, powers k + 1..2k are one contiguous product of
    powers 1..k by the k-th, so N = 8 takes 3 array products, not 7."""
    e = np.empty((N + 1,) + pts.shape[::-1], dtype=complex)
    e[0] = 1.0
    np.cos(pts.T, out=e[1].real)
    np.sin(pts.T, out=e[1].imag)
    k = 1  # powers 0..k are built; the next block is 1..k times the k-th
    while k < N:
        n = min(k, N - k)
        np.multiply(e[1:n + 1], e[k], out=e[k + 1:k + n + 1])
        k += n
    return e


def evaluate_stack_at(coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate a stack of real fields at the same points by direct summation.

    coeffs: array (..., M, M) of Fourier coefficients of real fields (the
    Hermitian symmetry c(-k) = conj c(k) is assumed, not checked); points:
    array (P, 2).  Returns the real values, shape (P, ...).

    The sum runs in the real cos/sin basis.  For each of the N + 1 columns
    ky >= 0, S(ky; x) = sum_kx c(kx, ky) exp(i kx x) is
    sum_{kx >= 0} A cos(kx x) + sum_{kx > 0} B sin(kx x) with A(0) = c(0, ky),
    A = c(kx, ky) + c(-kx, ky) and B = i (c(kx, ky) - c(-kx, ky)); since the
    fields are real, the value is sum_ky (w Re S cos(ky y) - w Im S sin(ky y)),
    with w = 1 on ky = 0 and 2 above (_ky_weights, applied to A and B).
    With F fields in the stack, stage 1 is one real matrix product of the
    (P, M) cos/sin table of x with the (M, 2 F (N+1)) real view of the
    folded, weighted A/B, 2 P M F (N+1) multiply-adds, and stage 2 a real
    contraction of length 2 (N+1) per point and field against the cos/sin
    of y, 2 P F (N+1): half the real multiply-adds of the complex sums.  Both
    tables come from one k-major power table of exp(i x) (see _power_table):
    2 P cos/sin and 2 P (N - 1) complex products.  Exact: matches the inverse
    FFT at the collocation points.  The points are reduced mod 2 pi before
    the tables are built, so points a period apart give bitwise-equal values.
    """
    # np.remainder's values bit for bit, signed zeros too, in about 3/4 of its time
    pts = np.fmod(np.asarray(points, dtype=float), 2.0 * np.pi)
    pts += np.where(pts < 0.0, 2.0 * np.pi, 0.0)
    M = coeffs.shape[-1]
    N = _resolution(coeffs)
    P = len(pts)
    e = _power_table(pts, N)
    cs = np.empty((M, P))  # cos(kx x) for kx = 0..N, then sin(kx x) for kx = 1..N
    cs[:N + 1] = e[:, 0].real
    cs[N + 1:] = e[1:, 0].imag
    ey = e[:, 1].T.copy().view(float)  # (cos, sin)(ky y) per point, (P, 2 (N + 1))
    half = coeffs.reshape(-1, M, M)[..., :N + 1].transpose(1, 0, 2)  # (M, F, N + 1)
    ab = np.empty(half.shape, dtype=complex)  # A for kx = 0..N, then B for kx = 1..N
    ab[0] = half[0]
    np.add(half[1:N + 1], half[:N:-1], out=ab[1:N + 1])
    np.subtract(half[1:N + 1], half[:N:-1], out=ab[N + 1:])
    ab[N + 1:] *= 1j
    ab = ab.view(float).reshape(M, -1, N + 1, 2)
    ab *= _ky_weights(N)
    # (w Re S, -w Im S) as one real matrix product over kx, (P, F, 2 (N + 1)),
    # then the sum over ky >= 0 per point and field
    s = (cs.T @ ab.reshape(M, -1)).reshape(P, -1, 2 * (N + 1))
    return np.einsum("pfj,pj->pf", s, ey).reshape((P,) + coeffs.shape[:-2])


# ---------------------------------------------------------------------------
# canonical initial fields

def _mode_pair(N: int, kx: int, ky: int, half: np.ndarray) -> np.ndarray:
    """The real field half exp(i k.x) + conj(half) exp(-i k.x), k = (kx, ky)
    != 0, shape (2, M, M)."""
    M = 2 * N + 1
    c = np.zeros((2, M, M), dtype=complex)
    c[:, kx % M, ky % M] += half
    c[:, (-kx) % M, (-ky) % M] += np.conj(half)
    return c


def taylor_green(N: int, amplitude: float = 1.0) -> np.ndarray:
    """u = a (sin x cos y, -cos x sin y); a steady 2D Euler datum."""
    if N < 1:
        raise ValueError("Taylor-Green needs N >= 1")
    M = 2 * N + 1
    x = 2.0 * np.pi * np.arange(M) / M
    X, Y = np.meshgrid(x, x, indexing="ij")
    vals = np.stack([np.sin(X) * np.cos(Y), -np.cos(X) * np.sin(Y)]) * amplitude
    return np.fft.fft2(vals) / M**2


def single_mode_field(N: int, kvec, amplitude: float = 1.0) -> np.ndarray:
    """Divergence-free shear u(x) = a cos(k.x) kperp/|k|."""
    kx, ky = int(kvec[0]), int(kvec[1])
    if (kx, ky) == (0, 0):
        raise ValueError("single-mode field needs k != 0")
    if max(abs(kx), abs(ky)) > N:
        raise ValueError(f"mode {(kx, ky)} outside truncation N={N}")
    knorm = np.hypot(kx, ky)
    d = np.array([-ky, kx]) / knorm
    return _mode_pair(N, kx, ky, 0.5 * amplitude * d.astype(complex))


def random_divergence_free(N: int, rng: np.random.Generator, slope: float = 2.0,
                           amplitude: float = 1.0) -> np.ndarray:
    """Random real divergence-free field with |uhat(k)| ~ (1+|k|^2)^(-slope/2)."""
    if N < 1:
        raise ValueError("random field needs N >= 1")
    M = 2 * N + 1
    raw = rng.standard_normal((2, M, M)) + 1j * rng.standard_normal((2, M, M))
    _, _, ksq = _k_grids(N)
    raw *= (1.0 + ksq) ** (-slope / 2.0)
    # symmetrize so the field is real-valued
    k = _wavenumbers(N)
    neg = (-k) % M
    raw = 0.5 * (raw + np.conj(raw[:, neg[:, None], neg[None, :]]))
    raw[:, 0, 0] = 0.0
    f = leray_project(raw)
    n = l2_norm(f)
    if n > 0:
        f = f * (amplitude / n)
    return f
