"""Tests for the spectral field layer: projections, curl and Biot-Savart,
the nonlinear transport term, norms, and pointwise evaluation."""

import numpy as np
import pytest

from stoflow import eulerian as eu
from stoflow import lagrangian as lg
from stoflow import spectral as sp


# ---------------------------------------------------------------------------
# test-side field helpers: a field is its coefficient array (..., M, M)

def modes(N, entries, hermitize=False):
    """Vector field (2, M, M) with the coefficient vectors of `entries`,
    keyed by integer wavevector (kx, ky); with hermitize=True the conjugate
    is added at -k so the field is real-valued."""
    M = 2 * N + 1
    c = np.zeros((2, M, M), dtype=complex)
    for (kx, ky), vec in entries.items():
        c[:, kx % M, ky % M] += np.asarray(vec, dtype=complex)
        if hermitize and (kx, ky) != (0, 0):
            c[:, (-kx) % M, (-ky) % M] += np.conj(np.asarray(vec, dtype=complex))
    return c


def zero_field(N):
    return np.zeros((2, 2 * N + 1, 2 * N + 1), dtype=complex)


def grid_values(c):
    """Collocation values on the M x M grid x_n = 2 pi n / M."""
    M = c.shape[-1]
    return np.real(np.fft.ifft2(c) * M**2)


def from_grid(values):
    """Coefficients of collocation values (..., M, M), M odd."""
    return np.fft.fft2(values) / values.shape[-1] ** 2


def grid_points(N):
    x = 2.0 * np.pi * np.arange(2 * N + 1) / (2 * N + 1)
    return np.meshgrid(x, x, indexing="ij")


def l2_inner(u, v):
    return float(np.real(np.sum(u * np.conj(v))))


def helmholtz_inverse(v, alpha):
    """(id - alpha^2 Laplacian)^(-1): divide by 1 + alpha^2 |k|^2."""
    _, _, ksq = sp._k_grids((v.shape[-1] - 1) // 2)
    return v / (1.0 + alpha**2 * ksq)


def coeff_at(f, kx, ky):
    M = f.shape[-1]
    return f[:, kx % M, ky % M]


def pad_coeffs(coeffs, N, Mg):
    """Zero-pad fft-ordered (..., M, M) coefficients into an (..., Mg, Mg) grid."""
    idx = sp._wavenumbers(N) % Mg
    out = np.zeros(coeffs.shape[:-2] + (Mg, Mg), dtype=complex)
    out[..., idx[:, None], idx[None, :]] = coeffs
    return out


def random_real_field(rng, N):
    """Random real vector field, exactly Hermitian and not divergence-free."""
    M = 2 * N + 1
    c = rng.standard_normal((2, M, M)) + 1j * rng.standard_normal((2, M, M))
    neg = (-sp._wavenumbers(N)) % M
    return 0.5 * (c + np.conj(c[:, neg[:, None], neg[None, :]]))


def is_hermitian(f):
    M = f.shape[-1]
    neg = (-sp._wavenumbers((M - 1) // 2)) % M
    return np.array_equal(f, np.conj(f[..., neg[:, None], neg[None, :]]))


# ---------------------------------------------------------------------------
# Leray projection

def test_leray_removes_gradient_mode():
    # coefficient parallel to k is a pure gradient
    f = modes(4, {(1, 0): [1.0, 0.0]})
    out = sp.leray_project(f)
    assert np.max(np.abs(out)) == 0.0


def test_leray_keeps_divergence_free_mode():
    f = modes(4, {(1, 0): [0.0, 1.0]})
    out = sp.leray_project(f)
    assert np.allclose(out, f)


def test_leray_passes_mean_mode():
    f = modes(3, {(0, 0): [0.7, -0.2]})
    out = sp.leray_project(f)
    assert np.allclose(coeff_at(out, 0, 0), [0.7, -0.2])


def test_leray_idempotent():
    rng = np.random.default_rng(7)
    for _ in range(20):
        M = 2 * 5 + 1
        raw = rng.standard_normal((2, M, M)) + 1j * rng.standard_normal((2, M, M))
        once = sp.leray_project(raw)
        twice = sp.leray_project(once)
        assert np.allclose(once, twice, atol=1e-14)


def test_leray_output_divergence_free():
    rng = np.random.default_rng(11)
    for _ in range(20):
        f = sp.random_divergence_free(6, rng)
        kx, ky, _ = sp._k_grids(6)
        div = np.max(np.abs(kx * f[0] + ky * f[1]))
        norm = np.sqrt(np.sum(np.abs(f) ** 2))
        assert div < 1e-12 * max(norm, 1.0)


def test_curl_biot_savart_round_trip():
    # biot_savart inverts curl H on zero-mean divergence-free fields, and
    # curl H inverts biot_savart on zero-mean scalars
    rng = np.random.default_rng(19)
    for alpha in (0.0, 0.7):
        u = sp.random_divergence_free(6, rng)
        q = sp.curl(sp.helmholtz_apply(u, alpha))
        assert np.max(np.abs(sp.biot_savart(q, alpha) - u)) < 1e-15
        w = sp.curl(random_real_field(rng, 6))
        back = sp.curl(sp.helmholtz_apply(sp.biot_savart(w, alpha), alpha))
        assert np.max(np.abs(back - w)) < 1e-13 * np.max(np.abs(w))
    # the mean flow has no curl and does not come back
    const = modes(4, {(0, 0): [0.7, -0.2]})
    assert np.max(np.abs(sp.curl(const))) == 0.0
    assert np.max(np.abs(sp.biot_savart(np.ones((9, 9)))[:, 0, 0])) == 0.0


def test_taylor_green_advection_projects_to_zero():
    # u . grad omega = 0 for the Taylor-Green field: (u.grad)u is a gradient
    u = sp.taylor_green(8)
    out = sp.advection_term(sp.curl(u), u)
    assert np.max(np.abs(out)) < 1e-14


# ---------------------------------------------------------------------------
# advection term

def test_advection_constant_field_is_zero():
    rng = np.random.default_rng(3)
    u = random_real_field(rng, 4)
    const_q = np.zeros((9, 9), dtype=complex)
    const_q[0, 0] = 2.5
    assert np.max(np.abs(sp.advection_term(const_q, u))) == 0.0
    # a constant velocity carries q rigidly: the term is i (U.k) qhat
    U = modes(4, {(0, 0): [0.3, -1.2]})
    q = sp.curl(random_real_field(rng, 4))
    kx, ky, _ = sp._k_grids(4)
    ref = 1j * (0.3 * kx - 1.2 * ky) * q
    assert np.max(np.abs(sp.advection_term(q, U) - ref)) < 1e-14 * np.max(np.abs(ref))
    assert np.max(np.abs(sp.advection_term(sp.curl(U), U))) == 0.0


def test_advection_shear_is_zero():
    # u = (sin y, 0) carries its vorticity -cos y along x, where it is constant
    u = modes(4, {(0, 1): [-0.5j, 0.0]}, hermitize=True)
    vals = grid_values(u)
    X, Y = grid_points(4)
    assert np.allclose(vals[0], np.sin(Y), atol=1e-13)
    q = sp.curl(u)
    assert np.allclose(grid_values(q), -np.cos(Y), atol=1e-13)
    a = sp.advection_term(q, u)
    assert np.max(np.abs(a)) < 1e-14


def test_taylor_green_advection_closed_form():
    # u . grad cos x = -sin^2 x cos y = -1/2 cos y + 1/2 cos 2x cos y for
    # the Taylor-Green field
    u = sp.taylor_green(8)
    X, Y = grid_points(8)
    q = from_grid(np.cos(X))
    a = grid_values(sp.advection_term(q, u))
    assert np.allclose(a, -0.5 * np.cos(Y) + 0.5 * np.cos(2 * X) * np.cos(Y), atol=1e-13)


def test_advection_against_finite_differences():
    # independent check on a fine collocation grid with periodic central
    # differences; FD error O(h^2)
    # Taylor-Green carrying q = cos x + sin(x + 2y): the product has modes
    # up to (2, 3), so the truncated term is exact and only the FD error
    # O(h^2) remains
    N = 6
    u = sp.taylor_green(N)
    X, Y = grid_points(N)
    q = from_grid(np.cos(X) + np.sin(X + 2 * Y))
    Mf = 1024  # fine grid via zero-padded inverse transforms
    uf = np.real(np.fft.ifft2(pad_coeffs(u, N, Mf)) * Mf**2)
    qf = np.real(np.fft.ifft2(pad_coeffs(q, N, Mf)) * Mf**2)
    h = 2.0 * np.pi / Mf
    dqdx = (np.roll(qf, -1, axis=0) - np.roll(qf, 1, axis=0)) / (2 * h)
    dqdy = (np.roll(qf, -1, axis=1) - np.roll(qf, 1, axis=1)) / (2 * h)
    adv_fd = uf[0] * dqdx + uf[1] * dqdy
    a = sp.advection_term(q, u)
    adv_spectral = np.real(np.fft.ifft2(pad_coeffs(a, N, Mf)) * Mf**2)
    assert np.max(np.abs(adv_fd - adv_spectral)) < 1e-4


# Reference: the dense complex-FFT product kernel, zero-padded onto the full
# Mg x Mg spectrum with derivative multipliers on the padded wavenumbers.

def _ref_truncate(coeffs, Mg, N):
    idx = sp._wavenumbers(N) % Mg
    return coeffs[..., idx[:, None], idx[None, :]].copy()


def _ref_directional_derivative(u, w):
    N = (u.shape[-1] - 1) // 2
    Mg = sp._dealias_grid_size(N)
    kg = np.fft.fftfreq(Mg, d=1.0 / Mg)
    kgx = kg[:, None]
    kgy = kg[None, :]
    uc = pad_coeffs(u, N, Mg)
    wc = pad_coeffs(w, N, Mg)
    ug = np.real(np.fft.ifft2(uc) * Mg**2)
    dwdx = np.real(np.fft.ifft2(1j * kgx * wc) * Mg**2)
    dwdy = np.real(np.fft.ifft2(1j * kgy * wc) * Mg**2)
    adv = ug[0] * dwdx + ug[1] * dwdy
    advc = np.fft.fft2(adv) / Mg**2
    return _ref_truncate(advc, Mg, N)


def _ref_grad_transpose_laplacian(u):
    N = (u.shape[-1] - 1) // 2
    Mg = sp._dealias_grid_size(N)
    kg = np.fft.fftfreq(Mg, d=1.0 / Mg)
    kgx = kg[:, None]
    kgy = kg[None, :]
    ksqg = kgx**2 + kgy**2
    uc = pad_coeffs(u, N, Mg)
    lap = np.real(np.fft.ifft2(-ksqg * uc) * Mg**2)
    dudx = np.real(np.fft.ifft2(1j * kgx * uc) * Mg**2)
    dudy = np.real(np.fft.ifft2(1j * kgy * uc) * Mg**2)
    out = np.empty((2, Mg, Mg))
    out[0] = dudx[0] * lap[0] + dudx[1] * lap[1]
    out[1] = dudy[0] * lap[0] + dudy[1] * lap[1]
    outc = np.fft.fft2(out) / Mg**2
    return _ref_truncate(outc, Mg, N)


def _ref_advection_term(u, alpha):
    m = sp.helmholtz_apply(u, alpha)
    return _ref_directional_derivative(u, m) - alpha**2 * _ref_grad_transpose_laplacian(u)


def _ref_averaged_drift(u, alpha):
    raw = _ref_advection_term(u, alpha)
    return -1.0 * helmholtz_inverse(sp.leray_project(raw), alpha)


@pytest.mark.parametrize("N", [1, 2, 5, 8, 16])
def test_real_fft_kernel_matches_complex_reference(N):
    # the padded grid is odd for N = 8 (25) and even for N = 1, 2, 5, 16; the
    # q kernel assumes u is the velocity of its q, so u is divergence-free
    rng = np.random.default_rng(100 + N)
    u = sp.leray_project(random_real_field(rng, N))
    for a in (0.0, 0.7):
        got, ref = eu.averaged_drift(u, a), _ref_averaged_drift(u, a)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(got - ref)) <= 1e-13 * scale
        assert is_hermitian(got)


@pytest.mark.parametrize("N", [1, 2, 4, 5, 8, 16])
def test_advection_term_alias_free_against_fixed_padding(N):
    # the reference pads to 4N + 2, independent of _dealias_grid_size, so an
    # aliasing error at the 5-smooth sizes (odd at N = 4 and 8) would show
    rng = np.random.default_rng(300 + N)
    u = sp.random_divergence_free(N, rng)
    q = sp.curl(random_real_field(rng, N))
    Mg = 4 * N + 2
    kg = np.fft.fftfreq(Mg, d=1.0 / Mg)
    ug = np.real(np.fft.ifft2(pad_coeffs(u, N, Mg)) * Mg**2)
    qc = pad_coeffs(q, N, Mg)
    dqdx = np.real(np.fft.ifft2(1j * kg[:, None] * qc) * Mg**2)
    dqdy = np.real(np.fft.ifft2(1j * kg[None, :] * qc) * Mg**2)
    ref = _ref_truncate(np.fft.fft2(ug[0] * dqdx + ug[1] * dqdy) / Mg**2, Mg, N)
    got = sp.advection_term(q, u)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_advection_term_stacks_paths():
    # a stack (2, 3, ...) of fields gives each field's product bit for bit
    N = 6
    rng = np.random.default_rng(17)
    u = np.stack([[sp.random_divergence_free(N, rng) for _ in range(3)] for _ in range(2)])
    q = sp.curl(np.stack([[sp.random_divergence_free(N, rng) for _ in range(3)]
                          for _ in range(2)]))
    got = sp.advection_term(q, u)
    assert got.shape == q.shape
    for i in range(2):
        for j in range(3):
            assert np.array_equal(got[i, j], sp.advection_term(q[i, j], u[i, j]))


@pytest.mark.parametrize("lead", [(), (3,), (2, 4)], ids=["one", "3", "2x4"])
@pytest.mark.parametrize("N", [1, 2, 5, 8, 16])
def test_advection_term_output_exactly_hermitian(N, lead):
    # the kernel keeps the ky >= 0 columns and reflects them onto ky < 0, and
    # its kx > 0 rows onto kx < 0 at ky = 0: a lost or misplaced conjugate
    # shows bitwise here, below the reference tests' 1e-13
    rng = np.random.default_rng(500 + N)
    M = 2 * N + 1
    u = np.stack([random_real_field(rng, N) for _ in range(int(np.prod(lead)))])
    q = sp.curl(np.stack([random_real_field(rng, N) for _ in range(len(u))]))
    got = sp.advection_term(q.reshape(lead + (M, M)), u.reshape(lead + (2, M, M)))
    assert got.shape == lead + (M, M)
    assert is_hermitian(got)


def test_advection_term_reuses_caller_buffers():
    # buffers owned by the caller, first full of NaN, then stale from a call
    # on a longer stack, give the fresh kernel's output bit for bit: the
    # padding rows are zeroed on every call.  Leading slices [:k] serve a
    # stack of k fields, and a half-width u (the columns ky >= 0) will do
    N = 8
    rng = np.random.default_rng(23)
    u = np.stack([sp.random_divergence_free(N, rng) for _ in range(5)])
    u[:, :, 0, 0] = [0.4, -0.3]
    q = sp.curl(sp.helmholtz_apply(u, 0.3))
    work = sp._advection_work((5,), N)
    for w in work:
        w[...] = np.nan
    for k in (5, 2, 5, 1):
        got = sp.advection_term(q[:k], u[:k], tuple(w[:k] for w in work))
        assert np.array_equal(got, sp.advection_term(q[:k], u[:k]))
        assert not any(np.shares_memory(got, w) for w in work)
    assert np.array_equal(sp.advection_term(q, u[..., :N + 1], work),
                          sp.advection_term(q, u))


def test_dealias_grid_size_is_minimal_5_smooth():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    for N in range(1, 65):
        Mg = sp._dealias_grid_size(N)
        assert Mg >= 3 * N + 1 and smooth(Mg)
        assert not any(smooth(m) for m in range(3 * N + 1, Mg))


@pytest.mark.parametrize("N", [1, 2, 5, 8, 16])
def test_pruned_transforms_match_full_real_ffts(N):
    # _to_grid transforms only the retained ky columns of the padded half
    # spectrum, _from_grid keeps them before the kx transform; both agree
    # with the full 2-D real transforms
    rng = np.random.default_rng(400 + N)
    Mg = sp._dealias_grid_size(N)
    rows = sp._wavenumbers(N) % Mg  # kx's row of the padded half spectrum
    c = np.stack([random_real_field(rng, N)[0], sp.curl(random_real_field(rng, N))])
    half = np.zeros((2, Mg, Mg // 2 + 1), dtype=complex)
    half[..., rows, :N + 1] = c[..., :N + 1]
    ref = np.fft.irfft2(half, s=(Mg, Mg), norm="forward")
    got = sp._to_grid(half[..., :N + 1].copy(), np.empty((2, Mg, Mg)))
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
    v = rng.standard_normal((3, Mg, Mg))
    full = np.fft.rfft2(v, norm="forward")
    back = sp._from_grid(v, N, np.empty((3, Mg, Mg // 2 + 1), dtype=complex),
                         np.empty((3, Mg, N + 1), dtype=complex))
    ref = full[..., rows, :N + 1]
    assert np.max(np.abs(back[..., :N + 1] - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_advection_conserves_energy():
    # for divergence-free u = K q the truncated transport u . grad q keeps
    # both the energy <u, K(u.grad q)> and the enstrophy <q, u.grad q> at 0
    rng = np.random.default_rng(42)
    for _ in range(100):
        u = sp.random_divergence_free(5, rng)
        q = sp.curl(u)
        a = sp.advection_term(q, u)
        da = sp.biot_savart(a)
        scale = sp.l2_norm(da) * sp.l2_norm(u)
        assert abs(l2_inner(da, u)) < 1e-10 * max(scale, 1e-30)
        ens = np.real(np.sum(q * np.conj(a)))
        assert abs(ens) < 1e-10 * max(np.linalg.norm(q) * np.linalg.norm(a), 1e-30)


# ---------------------------------------------------------------------------
# norms

def test_sobolev_single_mode():
    f = modes(4, {(1, 0): [0.0, 1.0]})
    assert abs(sp.sobolev_norm(f, 2.0) ** 2 - 4.0) < 1e-14


def test_sobolev_zero_field():
    assert sp.sobolev_norm(zero_field(4), 3.0) == 0.0


def test_sobolev_s0_is_coefficient_norm():
    rng = np.random.default_rng(2)
    u = sp.random_divergence_free(5, rng)
    assert abs(sp.l2_norm(u) - np.sqrt(np.sum(np.abs(u) ** 2))) < 1e-14


def test_sobolev_monotone_in_s():
    rng = np.random.default_rng(4)
    u = sp.random_divergence_free(5, rng)  # no mean mode
    norms = [sp.sobolev_norm(u, s) for s in (0.0, 0.5, 1.0, 2.0, 3.0)]
    assert all(a <= b + 1e-14 for a, b in zip(norms, norms[1:]))


def test_enstrophy_formula():
    f = modes(4, {(2, 1): [1.0, -2.0]})
    # |k|^2 = 5, |coeff|^2 = 5
    assert abs(sp.enstrophy(f) - 25.0) < 1e-13


# ---------------------------------------------------------------------------
# Helmholtz operators

def test_helmholtz_alpha_zero_identity():
    rng = np.random.default_rng(6)
    u = sp.random_divergence_free(5, rng)
    assert np.array_equal(sp.helmholtz_apply(u, 0.0), u)


def test_helmholtz_round_trip():
    rng = np.random.default_rng(8)
    u = sp.random_divergence_free(6, rng)
    back = sp.helmholtz_apply(helmholtz_inverse(u, 1.7), 1.7)
    assert np.allclose(back, u, atol=1e-14)


def test_leray_and_helmholtz_inverse_commute():
    # both are Fourier multipliers, so the two orders agree to rounding
    f = random_real_field(np.random.default_rng(7), 8)
    a = sp.leray_project(helmholtz_inverse(f, 1.0))
    b = helmholtz_inverse(sp.leray_project(f), 1.0)
    assert np.max(np.abs(a - b)) < 1e-15 * np.max(np.abs(a))


# ---------------------------------------------------------------------------
# pointwise evaluation

def test_evaluate_single_mode_at_origin():
    f = sp.single_mode_field(4, (1, 0), amplitude=0.8)
    val = sp.evaluate_stack_at(f, np.array([[0.0, 0.0]]))
    assert np.allclose(val, [[0.0, 0.8]], atol=1e-14)


def test_evaluate_zero_field():
    out = sp.evaluate_stack_at(zero_field(3), np.array([[1.0, 2.0], [0.5, 0.1]]))
    assert np.max(np.abs(out)) == 0.0


def test_evaluate_matches_grid_values():
    rng = np.random.default_rng(10)
    u = sp.random_divergence_free(6, rng)
    X, Y = grid_points(6)
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    vals = sp.evaluate_stack_at(u, pts)
    grid = grid_values(u).reshape(2, -1).T
    assert np.max(np.abs(vals - grid)) < 1e-12


def test_evaluate_linear_in_field():
    rng = np.random.default_rng(12)
    u = sp.random_divergence_free(4, rng)
    v = sp.random_divergence_free(4, rng)
    pts = rng.uniform(0, 2 * np.pi, size=(17, 2))
    lhs = sp.evaluate_stack_at(2.0 * u - 0.5 * v, pts)
    rhs = 2.0 * sp.evaluate_stack_at(u, pts) - 0.5 * sp.evaluate_stack_at(v, pts)
    assert np.allclose(lhs, rhs, atol=1e-12)


def dense_phase_sum(coeffs, points):
    """Reference pointwise evaluation: the real part of the full sum of
    c(k) exp(i k.x) over all (2N+1)^2 modes, values (P, ...)."""
    pts = np.atleast_2d(points)
    k = sp._wavenumbers(sp._resolution(coeffs))
    phase = np.exp(1j * (pts[:, 0, None, None] * k[None, :, None]
                         + pts[:, 1, None, None] * k[None, None, :]))
    return np.real(np.einsum("pxy,...xy->p...", phase, coeffs))


def test_evaluate_matches_dense_phase_sum():
    rng = np.random.default_rng(16)
    for N in (1, 5, 32):
        u = sp.random_divergence_free(N, rng)
        pts = rng.uniform(-3 * np.pi, 5 * np.pi, size=(40, 2))
        assert np.any(pts < 0) and np.any(pts > 2 * np.pi)
        assert np.max(np.abs(sp.evaluate_stack_at(u, pts) - dense_phase_sum(u, pts))) < 1e-13
    # a stack with two leading axes folds into one matrix product
    N = 5
    stack = np.stack([sp.random_divergence_free(N, rng) for _ in range(12)])
    stack = stack.reshape(3, 4, 2, 2 * N + 1, 2 * N + 1)
    pts = rng.uniform(-3 * np.pi, 5 * np.pi, size=(40, 2))
    vals = sp.evaluate_stack_at(stack, pts)
    assert vals.shape == (40, 3, 4, 2)
    assert np.max(np.abs(vals - dense_phase_sum(stack, pts))) < 1e-13


def test_phase_tables_match_exponentials():
    # the k-major table by powers of exp(i x) against the direct exponential
    rng = np.random.default_rng(19)
    pts = rng.uniform(-4 * np.pi, 4 * np.pi, size=(50, 2))
    for N in (1, 8, 32):
        ref = np.exp(1j * np.arange(N + 1)[:, None, None] * pts.T)
        table = sp._power_table(pts, N)
        assert table.shape == (N + 1, 2, 50)
        assert np.max(np.abs(table - ref)) <= 1e-13


def test_evaluate_wraps_points_as_remainder(monkeypatch):
    # the points reach the phase tables as np.remainder(points, 2 pi) gives
    # them, bit for bit and signed zeros included: random points, multiples
    # of 2 pi, tiny values and the neighbours of +-2 pi
    two_pi = 2.0 * np.pi
    x = np.concatenate([
        np.random.default_rng(23).uniform(-50.0, 50.0, 10**5),
        two_pi * np.arange(-20, 21), [0.0, -0.0, 1e-300, -1e-300],
        [np.nextafter(v, w) for v in (two_pi, -two_pi) for w in (0.0, 2 * v)]])
    seen = []
    table = sp._power_table
    monkeypatch.setattr(sp, "_power_table", lambda pts, N: seen.append(pts) or table(pts, N))
    pts = np.stack([x, x[::-1]], axis=1)
    sp.evaluate_stack_at(sp.taylor_green(1), pts)
    ref = np.remainder(pts, two_pi)
    assert np.array_equal(seen[0], ref)
    assert np.array_equal(np.signbit(seen[0]), np.signbit(ref))


def test_evaluate_stack_matches_per_field():
    rng = np.random.default_rng(17)
    fields = [sp.random_divergence_free(6, rng) for _ in range(3)]
    pts = rng.uniform(-np.pi, 4 * np.pi, size=(23, 2))
    vals = sp.evaluate_stack_at(np.stack(fields), pts)
    assert vals.shape == (23, 3, 2)
    for i, f in enumerate(fields):
        assert np.max(np.abs(vals[:, i] - sp.evaluate_stack_at(f, pts))) < 1e-15


def test_pointwise_advection_matches_closed_form():
    # the exact pointwise (u.grad)u that the spray drift is built from:
    # 1/2 (sin 2x, sin 2y) for Taylor-Green, at random points; with the
    # projected slot zeroed, the spray is the transport term alone
    u = sp.taylor_green(8)
    rng = np.random.default_rng(13)
    pts = rng.uniform(0, 2 * np.pi, size=(25, 2))
    fields = lg._spray_fields(u[None], np.empty((0,) + u.shape))[0]
    fields[3] = 0.0
    adv = lg._spray_from(sp.evaluate_stack_at(fields, pts))
    ref = 0.5 * np.stack([np.sin(2 * pts[:, 0]), np.sin(2 * pts[:, 1])], axis=1)
    assert np.max(np.abs(adv - ref)) < 1e-12


# ---------------------------------------------------------------------------
# construction and reality

def test_grid_round_trip():
    rng = np.random.default_rng(14)
    u = sp.random_divergence_free(5, rng)
    back = from_grid(grid_values(u))
    assert np.allclose(back, u, atol=1e-14)


def test_hermitian_symmetry():
    for f in [sp.taylor_green(6), sp.random_divergence_free(6, np.random.default_rng(1))]:
        k = sp._wavenumbers(6)
        neg = (-k) % 13
        conj = np.conj(f[:, neg[:, None], neg[None, :]])
        assert np.allclose(f, conj, atol=1e-14)


def test_divergence_residual_cases():
    rng = np.random.default_rng(15)
    u = sp.random_divergence_free(5, rng)
    assert sp.divergence_residual(u) < 1e-13
    assert sp.divergence_residual(zero_field(4)) == 0.0
    grad = modes(4, {(1, 0): [1.0, 0.0]})
    assert sp.divergence_residual(grad) > 0.1


def test_mode_outside_truncation_rejected():
    with pytest.raises(ValueError):
        sp.single_mode_field(2, (3, 0))
    # the constructors check the resolution they build the shape from
    with pytest.raises(ValueError):
        sp.single_mode_field(0, (1, 0))
    with pytest.raises(ValueError, match="N >= 1"):
        sp.taylor_green(0)
    with pytest.raises(ValueError, match="N >= 1"):
        sp.random_divergence_free(0, np.random.default_rng(0))


def test_operators_leave_inputs_unchanged():
    # fields are plain arrays, so purity is a property of every operator:
    # each leaves its input bitwise unchanged, and the cached per-N
    # constants stay read-only
    rng = np.random.default_rng(21)
    N = 5
    u = random_real_field(rng, N) + modes(N, {(0, 0): [0.3, -0.2]})
    stack = np.stack([u, sp.random_divergence_free(N, rng)])
    q = sp.curl(random_real_field(rng, N))
    pts = rng.uniform(0, 2 * np.pi, size=(7, 2))
    calls = [
        (sp.leray_project, (stack,)), (sp.curl, (stack,)),
        (sp.biot_savart, (q, 0.7)), (sp.advection_term, (q, u)),
        (sp.sobolev_norm, (stack, 2.0)), (sp.l2_norm, (stack,)),
        (sp.enstrophy, (stack,)), (sp.helmholtz_apply, (stack, 0.7)),
        (sp.helmholtz_apply, (q, 0.7)), (sp.evaluate_stack_at, (stack, pts)),
        (sp.divergence_residual, (stack,)), (eu.averaged_drift, (u, 0.7)),
    ]
    exported = {f.__name__ for f, _ in calls}
    assert set(sp.__all__) - exported == {"taylor_green", "single_mode_field",
                                          "random_divergence_free"}
    for fn, args in calls:
        before = [np.copy(a) for a in args]
        fn(*args)
        for a, b in zip(args, before):
            assert np.array_equal(a, b), fn.__name__
    cached = [sp._wavenumbers(N), *sp._k_grids(N), *sp._ik_grids(N),
              sp._biot_savart_multiplier(N, 0.7)]
    for c in cached:
        assert not c.flags.writeable
        with pytest.raises(ValueError):
            c[(0,) * c.ndim] = 1
