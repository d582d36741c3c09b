"""Tests for the spectral field layer: projections, nonlinear terms,
pressure recovery, norms, and pointwise evaluation."""

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


def test_taylor_green_advection_projects_to_zero():
    u = sp.taylor_green(8)
    out = sp.leray_project(sp.advection_term(u))
    assert np.max(np.abs(out.coeffs)) < 1e-14


# ---------------------------------------------------------------------------
# advection term

def test_advection_constant_field_is_zero():
    u = SpectralField.from_modes(4, {(0, 0): [0.3, -1.2]})
    a = sp.advection_term(u)
    assert np.max(np.abs(a.coeffs)) < 1e-15


def test_advection_shear_is_zero():
    # u = (sin y, 0): u2 = 0 and d/dx u1 = 0
    u = SpectralField.from_modes(4, {(0, 1): [-0.5j, 0.0]}, hermitize=True)
    vals = u.grid_values()
    X, Y = u.grid_points()
    assert np.allclose(vals[0], np.sin(Y), atol=1e-13)
    a = sp.advection_term(u)
    assert np.max(np.abs(a.coeffs)) < 1e-14


def test_taylor_green_advection_closed_form():
    # (u.grad)u = 1/2 (sin 2x, sin 2y) for the Taylor-Green field
    u = sp.taylor_green(8)
    a = sp.advection_term(u)
    X, Y = u.grid_points()
    vals = a.grid_values()
    assert np.allclose(vals[0], 0.5 * np.sin(2 * X), atol=1e-13)
    assert np.allclose(vals[1], 0.5 * np.sin(2 * Y), atol=1e-13)


def test_advection_against_finite_differences():
    # independent check on a fine collocation grid with periodic central
    # differences; FD error O(h^2)
    # Taylor-Green: the quadratic product has modes up to 2, so the
    # truncated term is exact and only the FD error O(h^2) remains
    N = 6
    u = sp.taylor_green(N)
    Mf = 1024  # fine grid via zero-padded inverse transforms
    uf = np.real(np.fft.ifft2(pad_coeffs(u.coeffs, N, Mf)) * Mf**2)
    h = 2.0 * np.pi / Mf
    dudx = (np.roll(uf, -1, axis=1) - np.roll(uf, 1, axis=1)) / (2 * h)
    dudy = (np.roll(uf, -1, axis=2) - np.roll(uf, 1, axis=2)) / (2 * h)
    adv_fd = uf[0] * dudx + uf[1] * dudy
    a = sp.advection_term(u)
    adv_spectral = np.real(np.fft.ifft2(pad_coeffs(a.coeffs, N, Mf)) * Mf**2)
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
    return _ref_directional_derivative(u, m) + alpha**2 * _ref_grad_transpose_laplacian(u)


def _ref_averaged_drift(u, alpha):
    raw = _ref_advection_term(u, alpha)
    return -1.0 * sp.helmholtz_inverse(sp.leray_project(raw), alpha)


@pytest.mark.parametrize("N", [1, 2, 5, 8, 16])
def test_real_fft_kernel_matches_complex_reference(N):
    # padded grid 3N+2 is odd for N = 1, 5 and even for N = 2, 8, 16
    rng = np.random.default_rng(100 + N)
    u = random_real_field(rng, N)
    pairs = [(sp.advection_term(u, a), _ref_advection_term(u, a)) for a in (0.0, 0.7)]
    pairs += [(eu.averaged_drift(u, a), _ref_averaged_drift(u, a)) for a in (0.0, 0.7)]
    for got, ref in pairs:
        scale = np.max(np.abs(ref.coeffs))
        assert np.max(np.abs(got.coeffs - ref.coeffs)) <= 1e-13 * scale
        assert is_hermitian(got)


def test_advection_conserves_energy():
    # <Pi[(u.grad)u], u> = 0 for divergence-free u
    rng = np.random.default_rng(42)
    for _ in range(100):
        u = sp.random_divergence_free(5, rng)
        a = sp.leray_project(sp.advection_term(u))
        inner = sp.l2_inner(a, u)
        scale = sp.l2_norm(a) * sp.l2_norm(u)
        assert abs(inner) < 1e-10 * max(scale, 1e-30)


# ---------------------------------------------------------------------------
# pressure

def test_pressure_gradient_identity():
    # grad p = -(I - Pi)[(u.grad)u], coefficient-wise: i k phat = -(a - Pi a)
    rng = np.random.default_rng(5)
    for u in [sp.taylor_green(8), sp.random_divergence_free(8, rng)]:
        p = sp.pressure_from_velocity(u)
        a = sp.advection_term(u)
        pa = sp.leray_project(a)
        kx, ky, _ = sp._k_grids(u.N)
        gradp = np.stack([1j * kx * p.coeffs, 1j * ky * p.coeffs])
        resid = gradp + (a.coeffs - pa.coeffs)
        resid[:, 0, 0] = 0.0  # mean of the gradient part is gauge
        assert np.max(np.abs(resid)) < 1e-13


def test_taylor_green_pressure_values():
    # p = 1/4 (cos 2x + cos 2y): modes (+-2, 0) and (0, +-2) with coeff 1/8
    u = sp.taylor_green(8)
    p = sp.pressure_from_velocity(u)
    X, Y = u.grid_points()
    assert np.allclose(p.grid_values(), 0.25 * (np.cos(2 * X) + np.cos(2 * Y)),
                       atol=1e-13)
    assert abs(p.coeffs[2 % p.M, 0] - 0.125) < 1e-14
    assert abs(p.coeffs[0, 2 % p.M] - 0.125) < 1e-14


def test_pressure_zero_cases():
    const = SpectralField.from_modes(4, {(0, 0): [1.0, 2.0]})
    assert np.max(np.abs(sp.pressure_from_velocity(const).coeffs)) < 1e-15
    shear = SpectralField.from_modes(4, {(1, 0): [0.0, 0.5]}, hermitize=True)
    assert np.max(np.abs(sp.pressure_from_velocity(shear).coeffs)) < 1e-14


def test_pressure_zero_mean():
    rng = np.random.default_rng(9)
    u = sp.random_divergence_free(6, rng)
    p = sp.pressure_from_velocity(u)
    assert p.coeffs[0, 0] == 0.0


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
    u = sp.random_divergence_free(5, rng)
    pts = rng.uniform(-3 * np.pi, 5 * np.pi, size=(40, 2))
    assert np.any(pts < 0) and np.any(pts > 2 * np.pi)
    k = sp._wavenumbers(u.N)
    phase = np.exp(1j * (pts[:, 0, None, None] * k[None, :, None]
                         + pts[:, 1, None, None] * k[None, None, :]))
    ref = np.real(np.einsum("pxy,cxy->pc", phase, u.coeffs))
    assert np.max(np.abs(sp.evaluate_at(u, pts) - ref)) < 1e-13


def test_evaluate_stack_matches_per_field():
    rng = np.random.default_rng(17)
    fields = [sp.random_divergence_free(6, rng) for _ in range(3)]
    pts = rng.uniform(-np.pi, 4 * np.pi, size=(23, 2))
    vals = sp.evaluate_stack_at(np.stack([f.coeffs for f in fields]), pts)
    assert vals.shape == (23, 3, 2)
    for i, f in enumerate(fields):
        assert np.max(np.abs(vals[:, i] - sp.evaluate_at(f, pts))) < 1e-15


def test_pointwise_advection_matches_closed_form():
    u = sp.taylor_green(8)
    rng = np.random.default_rng(13)
    pts = rng.uniform(0, 2 * np.pi, size=(25, 2))
    adv = sp.pointwise_advection_at(u, pts)
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
