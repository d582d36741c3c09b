"""Tests for the spectral field layer: projections, curl and Biot-Savart,
the nonlinear transport term, norms, and pointwise evaluation."""

import numpy as np
import pytest

from stoflow import eulerian as eu
from stoflow import spectral as sp
from stoflow.spectral import SpectralField


def coeff_at(f, kx, ky):
    return f.coeffs[:, kx % f.M, ky % f.M]


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
    return SpectralField(N, 0.5 * (c + np.conj(c[:, neg[:, None], neg[None, :]])))


def is_hermitian(f):
    neg = (-f.k) % f.M
    return np.array_equal(f.coeffs, np.conj(f.coeffs[..., neg[:, None], neg[None, :]]))


# ---------------------------------------------------------------------------
# Leray projection

def test_leray_removes_gradient_mode():
    # coefficient parallel to k is a pure gradient
    f = SpectralField.from_modes(4, {(1, 0): [1.0, 0.0]})
    out = sp.leray_project(f)
    assert np.max(np.abs(out.coeffs)) == 0.0


def test_leray_keeps_divergence_free_mode():
    f = SpectralField.from_modes(4, {(1, 0): [0.0, 1.0]})
    out = sp.leray_project(f)
    assert np.allclose(out.coeffs, f.coeffs)


def test_leray_passes_mean_mode():
    f = SpectralField.from_modes(3, {(0, 0): [0.7, -0.2]})
    out = sp.leray_project(f)
    assert np.allclose(coeff_at(out, 0, 0), [0.7, -0.2])


def test_leray_idempotent():
    rng = np.random.default_rng(7)
    for _ in range(20):
        M = 2 * 5 + 1
        raw = rng.standard_normal((2, M, M)) + 1j * rng.standard_normal((2, M, M))
        f = SpectralField(5, raw)
        once = sp.leray_project(f)
        twice = sp.leray_project(once)
        assert np.allclose(once.coeffs, twice.coeffs, atol=1e-14)


def test_leray_output_divergence_free():
    rng = np.random.default_rng(11)
    for _ in range(20):
        f = sp.random_divergence_free(6, rng)
        kx, ky, _ = sp._k_grids(f.N)
        div = np.max(np.abs(kx * f.coeffs[0] + ky * f.coeffs[1]))
        norm = np.sqrt(np.sum(np.abs(f.coeffs) ** 2))
        assert div < 1e-12 * max(norm, 1.0)


def test_curl_biot_savart_round_trip():
    # biot_savart inverts curl H on zero-mean divergence-free fields, and
    # curl H inverts biot_savart on zero-mean scalars
    rng = np.random.default_rng(19)
    for alpha in (0.0, 0.7):
        u = sp.random_divergence_free(6, rng)
        q = sp.curl(sp.helmholtz_apply(u, alpha))
        assert np.max(np.abs(sp.biot_savart(q, alpha) - u.coeffs)) < 1e-15
        w = sp.curl(random_real_field(rng, 6))
        back = sp.curl(sp.helmholtz_apply(SpectralField(6, sp.biot_savart(w, alpha)), alpha))
        assert np.max(np.abs(back - w)) < 1e-13 * np.max(np.abs(w))
    # the mean flow has no curl and does not come back
    const = SpectralField.from_modes(4, {(0, 0): [0.7, -0.2]})
    assert np.max(np.abs(sp.curl(const))) == 0.0
    assert np.max(np.abs(sp.biot_savart(np.ones((9, 9)))[:, 0, 0])) == 0.0


def test_taylor_green_advection_projects_to_zero():
    # u . grad omega = 0 for the Taylor-Green field: (u.grad)u is a gradient
    u = sp.taylor_green(8)
    out = sp.advection_term(sp.curl(u), u.coeffs)
    assert np.max(np.abs(out)) < 1e-14


# ---------------------------------------------------------------------------
# advection term

def scalar_grid_values(c):
    M = c.shape[-1]
    return np.real(np.fft.ifft2(c) * M**2)


def test_advection_constant_field_is_zero():
    rng = np.random.default_rng(3)
    u = random_real_field(rng, 4)
    const_q = np.zeros((9, 9), dtype=complex)
    const_q[0, 0] = 2.5
    assert np.max(np.abs(sp.advection_term(const_q, u.coeffs))) == 0.0
    # a constant velocity carries q rigidly: the term is i (U.k) qhat
    U = SpectralField.from_modes(4, {(0, 0): [0.3, -1.2]})
    q = sp.curl(random_real_field(rng, 4))
    kx, ky, _ = sp._k_grids(4)
    ref = 1j * (0.3 * kx - 1.2 * ky) * q
    assert np.max(np.abs(sp.advection_term(q, U.coeffs) - ref)) < 1e-14 * np.max(np.abs(ref))
    assert np.max(np.abs(sp.advection_term(sp.curl(U), U.coeffs))) == 0.0


def test_advection_shear_is_zero():
    # u = (sin y, 0) carries its vorticity -cos y along x, where it is constant
    u = SpectralField.from_modes(4, {(0, 1): [-0.5j, 0.0]}, hermitize=True)
    vals = u.grid_values()
    X, Y = u.grid_points()
    assert np.allclose(vals[0], np.sin(Y), atol=1e-13)
    q = sp.curl(u)
    assert np.allclose(scalar_grid_values(q), -np.cos(Y), atol=1e-13)
    a = sp.advection_term(q, u.coeffs)
    assert np.max(np.abs(a)) < 1e-14


def test_taylor_green_advection_closed_form():
    # u . grad cos x = -sin^2 x cos y = -1/2 cos y + 1/2 cos 2x cos y for
    # the Taylor-Green field
    u = sp.taylor_green(8)
    X, Y = u.grid_points()
    q = np.fft.fft2(np.cos(X)) / u.M**2
    a = scalar_grid_values(sp.advection_term(q, u.coeffs))
    assert np.allclose(a, -0.5 * np.cos(Y) + 0.5 * np.cos(2 * X) * np.cos(Y), atol=1e-13)


def test_advection_against_finite_differences():
    # independent check on a fine collocation grid with periodic central
    # differences; FD error O(h^2)
    # Taylor-Green carrying q = cos x + sin(x + 2y): the product has modes
    # up to (2, 3), so the truncated term is exact and only the FD error
    # O(h^2) remains
    N = 6
    u = sp.taylor_green(N)
    X, Y = u.grid_points()
    q = np.fft.fft2(np.cos(X) + np.sin(X + 2 * Y)) / u.M**2
    Mf = 1024  # fine grid via zero-padded inverse transforms
    uf = np.real(np.fft.ifft2(pad_coeffs(u.coeffs, N, Mf)) * Mf**2)
    qf = np.real(np.fft.ifft2(pad_coeffs(q, N, Mf)) * Mf**2)
    h = 2.0 * np.pi / Mf
    dqdx = (np.roll(qf, -1, axis=0) - np.roll(qf, 1, axis=0)) / (2 * h)
    dqdy = (np.roll(qf, -1, axis=1) - np.roll(qf, 1, axis=1)) / (2 * h)
    adv_fd = uf[0] * dqdx + uf[1] * dqdy
    a = sp.advection_term(q, u.coeffs)
    adv_spectral = np.real(np.fft.ifft2(pad_coeffs(a, N, Mf)) * Mf**2)
    assert np.max(np.abs(adv_fd - adv_spectral)) < 1e-4


# Reference: the dense complex-FFT product kernel, zero-padded onto the full
# Mg x Mg spectrum with derivative multipliers on the padded wavenumbers.

def _ref_truncate(coeffs, Mg, N):
    idx = sp._wavenumbers(N) % Mg
    return coeffs[..., idx[:, None], idx[None, :]].copy()


def _ref_directional_derivative(u, w):
    N = u.N
    Mg = sp._dealias_grid_size(N)
    kg = np.fft.fftfreq(Mg, d=1.0 / Mg)
    kgx = kg[:, None]
    kgy = kg[None, :]
    uc = pad_coeffs(u.coeffs, N, Mg)
    wc = pad_coeffs(w.coeffs, N, Mg)
    ug = np.real(np.fft.ifft2(uc) * Mg**2)
    dwdx = np.real(np.fft.ifft2(1j * kgx * wc) * Mg**2)
    dwdy = np.real(np.fft.ifft2(1j * kgy * wc) * Mg**2)
    adv = ug[0] * dwdx + ug[1] * dwdy
    advc = np.fft.fft2(adv) / Mg**2
    return SpectralField(N, _ref_truncate(advc, Mg, N))


def _ref_grad_transpose_laplacian(u):
    N = u.N
    Mg = sp._dealias_grid_size(N)
    kg = np.fft.fftfreq(Mg, d=1.0 / Mg)
    kgx = kg[:, None]
    kgy = kg[None, :]
    ksqg = kgx**2 + kgy**2
    uc = pad_coeffs(u.coeffs, N, Mg)
    lap = np.real(np.fft.ifft2(-ksqg * uc) * Mg**2)
    dudx = np.real(np.fft.ifft2(1j * kgx * uc) * Mg**2)
    dudy = np.real(np.fft.ifft2(1j * kgy * uc) * Mg**2)
    out = np.empty((2, Mg, Mg))
    out[0] = dudx[0] * lap[0] + dudx[1] * lap[1]
    out[1] = dudy[0] * lap[0] + dudy[1] * lap[1]
    outc = np.fft.fft2(out) / Mg**2
    return SpectralField(N, _ref_truncate(outc, Mg, N))


def _ref_advection_term(u, alpha):
    m = sp.helmholtz_apply(u, alpha)
    return _ref_directional_derivative(u, m) - alpha**2 * _ref_grad_transpose_laplacian(u)


def _ref_averaged_drift(u, alpha):
    raw = _ref_advection_term(u, alpha)
    return -1.0 * sp.helmholtz_inverse(sp.leray_project(raw), alpha)


@pytest.mark.parametrize("N", [1, 2, 5, 8, 16])
def test_real_fft_kernel_matches_complex_reference(N):
    # the padded grid is odd for N = 8 (25) and even for N = 1, 2, 5, 16; the
    # q kernel assumes u is the velocity of its q, so u is divergence-free
    rng = np.random.default_rng(100 + N)
    u = sp.leray_project(random_real_field(rng, N))
    for a in (0.0, 0.7):
        got, ref = eu.averaged_drift(u, a), _ref_averaged_drift(u, a)
        scale = np.max(np.abs(ref.coeffs))
        assert np.max(np.abs(got.coeffs - ref.coeffs)) <= 1e-13 * scale
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
    ug = np.real(np.fft.ifft2(pad_coeffs(u.coeffs, N, Mg)) * Mg**2)
    qc = pad_coeffs(q, N, Mg)
    dqdx = np.real(np.fft.ifft2(1j * kg[:, None] * qc) * Mg**2)
    dqdy = np.real(np.fft.ifft2(1j * kg[None, :] * qc) * Mg**2)
    ref = _ref_truncate(np.fft.fft2(ug[0] * dqdx + ug[1] * dqdy) / Mg**2, Mg, N)
    got = sp.advection_term(q, u.coeffs)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


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
    # _to_grid transforms only the retained ky columns, _from_grid keeps them
    # before the kx transform; both agree with the full 2-D real transforms
    rng = np.random.default_rng(400 + N)
    Mg, rows, _ = sp._grid_layout(N)
    c = np.stack([random_real_field(rng, N).coeffs[0], sp.curl(random_real_field(rng, N))])
    half = np.zeros((2, Mg, Mg // 2 + 1), dtype=complex)
    half[..., rows, :N + 1] = c[..., :N + 1]
    ref = np.fft.irfft2(half, s=(Mg, Mg), norm="forward")
    got = sp._to_grid(c, N)
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
    v = rng.standard_normal((3, Mg, Mg))
    full = np.fft.rfft2(v, norm="forward")
    back = sp._from_grid(v, N)
    ref = full[..., rows, :N + 1]
    assert np.max(np.abs(back[..., :N + 1] - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_advection_conserves_energy():
    # for divergence-free u = K q the truncated transport u . grad q keeps
    # both the energy <u, K(u.grad q)> and the enstrophy <q, u.grad q> at 0
    rng = np.random.default_rng(42)
    for _ in range(100):
        u = sp.random_divergence_free(5, rng)
        q = sp.curl(u)
        a = sp.advection_term(q, u.coeffs)
        da = SpectralField(5, sp.biot_savart(a))
        scale = sp.l2_norm(da) * sp.l2_norm(u)
        assert abs(sp.l2_inner(da, u)) < 1e-10 * max(scale, 1e-30)
        ens = np.real(np.sum(q * np.conj(a)))
        assert abs(ens) < 1e-10 * max(np.linalg.norm(q) * np.linalg.norm(a), 1e-30)


# ---------------------------------------------------------------------------
# norms

def test_sobolev_single_mode():
    f = SpectralField.from_modes(4, {(1, 0): [0.0, 1.0]})
    assert abs(sp.sobolev_norm(f, 2.0) ** 2 - 4.0) < 1e-14


def test_sobolev_zero_field():
    assert sp.sobolev_norm(SpectralField.zero(4), 3.0) == 0.0


def test_sobolev_s0_is_coefficient_norm():
    rng = np.random.default_rng(2)
    u = sp.random_divergence_free(5, rng)
    assert abs(sp.l2_norm(u) - np.sqrt(np.sum(np.abs(u.coeffs) ** 2))) < 1e-14


def test_sobolev_monotone_in_s():
    rng = np.random.default_rng(4)
    u = sp.random_divergence_free(5, rng)  # no mean mode
    norms = [sp.sobolev_norm(u, s) for s in (0.0, 0.5, 1.0, 2.0, 3.0)]
    assert all(a <= b + 1e-14 for a, b in zip(norms, norms[1:]))


def test_enstrophy_formula():
    f = SpectralField.from_modes(4, {(2, 1): [1.0, -2.0]})
    # |k|^2 = 5, |coeff|^2 = 5
    assert abs(sp.enstrophy(f) - 25.0) < 1e-13


# ---------------------------------------------------------------------------
# Helmholtz operators

def test_helmholtz_alpha_zero_identity():
    rng = np.random.default_rng(6)
    u = sp.random_divergence_free(5, rng)
    assert np.array_equal(sp.helmholtz_inverse(u, 0.0).coeffs, u.coeffs)
    assert np.array_equal(sp.helmholtz_apply(u, 0.0).coeffs, u.coeffs)


def test_helmholtz_single_mode_half():
    f = SpectralField.from_modes(4, {(1, 0): [0.0, 1.0]})
    out = sp.helmholtz_inverse(f, 1.0)
    assert np.allclose(coeff_at(out, 1, 0), [0.0, 0.5])


def test_helmholtz_round_trip():
    rng = np.random.default_rng(8)
    u = sp.random_divergence_free(6, rng)
    back = sp.helmholtz_apply(sp.helmholtz_inverse(u, 1.7), 1.7)
    assert np.allclose(back.coeffs, u.coeffs, atol=1e-14)


def test_leray_and_helmholtz_inverse_commute():
    # both are Fourier multipliers, so the two orders agree to rounding
    f = random_real_field(np.random.default_rng(7), 8)
    a = sp.leray_project(sp.helmholtz_inverse(f, 1.0))
    b = sp.helmholtz_inverse(sp.leray_project(f), 1.0)
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-15 * np.max(np.abs(a.coeffs))


# ---------------------------------------------------------------------------
# pointwise evaluation

def test_evaluate_single_mode_at_origin():
    f = sp.single_mode_field(4, (1, 0), amplitude=0.8)
    val = sp.evaluate_at(f, np.array([[0.0, 0.0]]))
    assert np.allclose(val, [[0.0, 0.8]], atol=1e-14)


def test_evaluate_zero_field():
    out = sp.evaluate_at(SpectralField.zero(3), np.array([[1.0, 2.0], [0.5, 0.1]]))
    assert np.max(np.abs(out)) == 0.0


def test_evaluate_matches_grid_values():
    rng = np.random.default_rng(10)
    u = sp.random_divergence_free(6, rng)
    X, Y = u.grid_points()
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    vals = sp.evaluate_at(u, pts)
    grid = u.grid_values().reshape(2, -1).T
    assert np.max(np.abs(vals - grid)) < 1e-12


def test_evaluate_linear_in_field():
    rng = np.random.default_rng(12)
    u = sp.random_divergence_free(4, rng)
    v = sp.random_divergence_free(4, rng)
    pts = rng.uniform(0, 2 * np.pi, size=(17, 2))
    lhs = sp.evaluate_at(2.0 * u - 0.5 * v, pts)
    rhs = 2.0 * sp.evaluate_at(u, pts) - 0.5 * sp.evaluate_at(v, pts)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_evaluate_matches_dense_phase_sum():
    rng = np.random.default_rng(16)
    for N in (5, 32):
        u = sp.random_divergence_free(N, rng)
        pts = rng.uniform(-3 * np.pi, 5 * np.pi, size=(40, 2))
        assert np.any(pts < 0) and np.any(pts > 2 * np.pi)
        k = sp._wavenumbers(u.N)
        phase = np.exp(1j * (pts[:, 0, None, None] * k[None, :, None]
                             + pts[:, 1, None, None] * k[None, None, :]))
        ref = np.real(np.einsum("pxy,cxy->pc", phase, u.coeffs))
        assert np.max(np.abs(sp.evaluate_at(u, pts) - ref)) < 1e-13


def test_phase_tables_match_exponentials():
    # the tables by powers of exp(i x) against the direct exponential
    rng = np.random.default_rng(19)
    pts = rng.uniform(-4 * np.pi, 4 * np.pi, size=(50, 2))
    for N in (1, 8, 32):
        ref = np.exp(1j * pts[:, :, None] * np.arange(N + 1))
        assert np.max(np.abs(sp._phase_tables(pts, N) - ref)) <= 1e-13


def test_evaluate_stack_matches_per_field():
    rng = np.random.default_rng(17)
    fields = [sp.random_divergence_free(6, rng) for _ in range(3)]
    pts = rng.uniform(-np.pi, 4 * np.pi, size=(23, 2))
    vals = sp.evaluate_stack_at(np.stack([f.coeffs for f in fields]), pts)
    assert vals.shape == (23, 3, 2)
    for i, f in enumerate(fields):
        assert np.max(np.abs(vals[:, i] - sp.evaluate_at(f, pts))) < 1e-15


def test_pointwise_advection_matches_closed_form():
    # the exact pointwise (u.grad)u that the spray drift is built from:
    # 1/2 (sin 2x, sin 2y) for Taylor-Green, at random points
    u = sp.taylor_green(8)
    rng = np.random.default_rng(13)
    pts = rng.uniform(0, 2 * np.pi, size=(25, 2))
    adv = sp._transport(sp.evaluate_stack_at(sp._gradient_stack(u), pts))
    ref = 0.5 * np.stack([np.sin(2 * pts[:, 0]), np.sin(2 * pts[:, 1])], axis=1)
    assert np.max(np.abs(adv - ref)) < 1e-12


# ---------------------------------------------------------------------------
# construction and reality

def test_grid_round_trip():
    rng = np.random.default_rng(14)
    u = sp.random_divergence_free(5, rng)
    back = SpectralField.from_grid(u.grid_values())
    assert np.allclose(back.coeffs, u.coeffs, atol=1e-14)


def test_hermitian_symmetry():
    for f in [sp.taylor_green(6), sp.random_divergence_free(6, np.random.default_rng(1))]:
        M = f.M
        k = sp._wavenumbers(f.N)
        neg = (-k) % M
        conj = np.conj(f.coeffs[:, neg[:, None], neg[None, :]])
        assert np.allclose(f.coeffs, conj, atol=1e-14)


def test_divergence_residual_cases():
    rng = np.random.default_rng(15)
    u = sp.random_divergence_free(5, rng)
    assert sp.divergence_residual(u) < 1e-13
    assert sp.divergence_residual(SpectralField.zero(4)) == 0.0
    grad = SpectralField.from_modes(4, {(1, 0): [1.0, 0.0]})
    assert sp.divergence_residual(grad) > 0.1


def test_mode_outside_truncation_rejected():
    with pytest.raises(ValueError):
        SpectralField.from_modes(3, {(4, 0): [1.0, 0.0]})
    with pytest.raises(ValueError):
        sp.single_mode_field(2, (3, 0))


def test_resolution_mismatch_rejected():
    u = SpectralField.zero(3)
    v = SpectralField.zero(4)
    with pytest.raises(ValueError):
        _ = u + v


def test_coefficients_immutable():
    u = sp.taylor_green(4)
    with pytest.raises(ValueError):
        u.coeffs[0, 0, 0] = 1.0
