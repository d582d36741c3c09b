"""Tests for the Q-Wiener noise layer: spectrum construction, eigenbasis
orthonormality, increment statistics, and the L_{2,Q} norm."""

import numpy as np
import pytest

from stoflow import qwiener as qw
from stoflow import spectral as sp
from stoflow.qwiener import QWienerSpec, build_spectrum
from stoflow.streams import derive_stream
from test_spectral import l2_inner
from whole_paths import eigenmode_field


def test_half_lattice_n1():
    ks = {tuple(k) for k in qw.half_lattice(1)}
    assert ks == {(0, 1), (1, -1), (1, 0), (1, 1)}


def test_half_lattice_covers_pairs_once():
    ks = [tuple(k) for k in qw.half_lattice(3)]
    assert len(ks) == len(set(ks))
    full = {(kx, ky) for kx in range(-3, 4) for ky in range(-3, 4)} - {(0, 0)}
    covered = set(ks) | {(-kx, -ky) for kx, ky in ks}
    assert covered == full


def test_trace_n1():
    gamma = 1.7
    spec = build_spectrum(1, gamma, 1.0)
    expected = 2.0 * (2 * 2.0 ** (-gamma) + 2 * 3.0 ** (-gamma))
    assert abs(spec.trace - expected) < 1e-14


def test_trace_counts_modes_at_gamma_zero():
    spec = build_spectrum(2, 0.0, 1.0, s_prime=0)
    assert spec.trace == spec.n_modes
    assert spec.n_modes == 2 * len(qw.half_lattice(2))


def test_zero_amplitude_spectrum():
    spec = build_spectrum(3, 2.0, 0.0)
    assert spec.trace == 0.0
    w = qw.sample_coefficients(spec, 0.1, 1, derive_stream(0, "z"))[0]
    assert np.max(np.abs(qw.field_from_coefficients(spec, w))) == 0.0


def test_build_spectrum_rejects_bad_args():
    with pytest.raises(ValueError):
        build_spectrum(0, 2.0, 1.0)
    with pytest.raises(ValueError):
        build_spectrum(2, 2.0, -1.0)


def test_convergence_criterion_boundary():
    # boundary gamma = s' + 1 gives 2g - 2s' = 2 exactly, not summable
    assert build_spectrum(2, 3.1, 1.0, s_prime=2).converges_in_limit
    assert not build_spectrum(2, 3.0, 1.0, s_prime=2).converges_in_limit
    assert not build_spectrum(2, 2.9, 1.0, s_prime=2).converges_in_limit


def test_budget_equals_trace_at_sprime_zero():
    spec = build_spectrum(3, 2.5, 0.7, s_prime=0)
    assert abs(spec.regularity_budget() - spec.trace) < 1e-14


def test_eigenmodes_orthonormal_divergence_free():
    spec = build_spectrum(2, 2.0, 1.0)
    fields = [eigenmode_field(spec, j) for j in range(spec.n_modes)]
    for j, f in enumerate(fields):
        assert abs(sp.l2_norm(f) - 1.0) < 1e-13
        assert sp.divergence_residual(f) < 1e-13
        for i in range(j):
            assert abs(l2_inner(fields[i], f)) < 1e-13


def test_single_eigenpair_increment():
    # lambda = 4, dt = 1: increment = 2 xi_c e_cos + 2 xi_s e_sin
    spec = QWienerSpec(N=2, gamma=0.0, s_prime=0,
                       wavevectors=np.array([[1, 0]]),
                       eigenvalues=np.array([4.0]))
    xi = np.array([0.3, -1.1])
    dW = qw.field_from_coefficients(spec, 2.0 * xi)
    ref = (2.0 * xi[0]) * eigenmode_field(spec, 0) \
        + (2.0 * xi[1]) * eigenmode_field(spec, 1)
    assert np.allclose(dW, ref, atol=1e-14)

    rng = derive_stream(21, "var")
    w = qw.sample_coefficients(spec, 1.0, 20_000, rng)
    var = np.var(w, axis=0)
    # chi-square: relative z-score sqrt(n/2)(var/4 - 1)
    z = (var / 4.0 - 1.0) * np.sqrt(20_000 / 2.0)
    assert np.max(np.abs(z)) < 4.0


def test_increment_statistics_monte_carlo():
    spec = build_spectrum(2, 2.0, 1.3)
    dt = 0.2
    n = 10_000
    rng = derive_stream(5, "mc")
    w = qw.sample_coefficients(spec, dt, n, rng)
    lam = spec.mode_variances
    # variances within 4 chi-square standard errors
    z_var = (np.var(w, axis=0) / (lam * dt) - 1.0) * np.sqrt(n / 2.0)
    assert np.max(np.abs(z_var)) < 4.0
    # cross covariances consistent with zero
    wn = w / np.sqrt(lam * dt)
    corr = wn.T @ wn / n
    off = corr[~np.eye(spec.n_modes, dtype=bool)]
    assert np.max(np.abs(off)) * np.sqrt(n) < 4.0
    # zero mean
    z_mean = np.mean(w, axis=0) / np.sqrt(lam * dt / n)
    assert np.max(np.abs(z_mean)) < 4.0


def test_increment_field_divergence_free_and_real():
    spec = build_spectrum(3, 2.0, 1.0)
    w = qw.sample_coefficients(spec, 0.05, 1, derive_stream(9, "df"))[0]
    dW = qw.field_from_coefficients(spec, w)
    assert sp.divergence_residual(dW) < 1e-13
    vals = np.fft.ifft2(dW) * dW.shape[-1] ** 2
    assert np.max(np.abs(vals.imag)) < 1e-12


def test_increment_additivity():
    # the field map is linear in the coefficients, so summing coefficient
    # rows from one stream gives exactly the increment over the union
    spec = build_spectrum(2, 2.0, 0.8)
    rng = derive_stream(31, "add")
    parts = qw.sample_coefficients(spec, 0.1, 8, rng)
    whole = qw.field_from_coefficients(spec, parts.sum(axis=0))
    summed = sum(qw.field_from_coefficients(spec, p) for p in parts)
    assert np.allclose(whole, summed, atol=1e-14)


def test_amplitude_scaling():
    # doubling c doubles the trace and scales increments by sqrt(2)
    s1 = build_spectrum(2, 2.0, 1.0)
    s2 = build_spectrum(2, 2.0, 2.0)
    assert abs(s2.trace - 2.0 * s1.trace) < 1e-14
    w1 = qw.sample_coefficients(s1, 0.3, 5, derive_stream(77, "s"))
    w2 = qw.sample_coefficients(s2, 0.3, 5, derive_stream(77, "s"))
    assert np.allclose(w2, np.sqrt(2.0) * w1, atol=1e-14)


@pytest.mark.parametrize("N", [2, 8, 16])
def test_field_from_coefficients_matches_scatter_add(N):
    # the +k and -k index sets are disjoint and miss k = 0, so assignment
    # equals accumulating every coefficient into zeros
    spec = build_spectrum(N, 2.0, 1.0)
    _, plus, minus = spec._layout
    both = np.concatenate([plus, minus])
    assert len(np.unique(both)) == len(both) and 0 not in both
    w = derive_stream(N, "scatter").standard_normal(spec.n_modes)
    ks = spec.wavevectors
    d = np.stack([-ks[:, 1], ks[:, 0]], axis=1) / np.hypot(ks[:, 0], ks[:, 1])[:, None]
    vec = np.sqrt(2.0) / 2.0 * (w[0::2] - 1j * w[1::2])[:, None] * d
    M = 2 * N + 1
    ref = np.zeros((2, M, M), dtype=complex)
    for comp in range(2):
        np.add.at(ref[comp], (ks[:, 0] % M, ks[:, 1] % M), vec[:, comp])
        np.add.at(ref[comp], ((-ks[:, 0]) % M, (-ks[:, 1]) % M), np.conj(vec[:, comp]))
    got = qw.field_from_coefficients(spec, w)
    assert np.max(np.abs(got - ref)) < 1e-15


@pytest.mark.parametrize("N", [2, 8, 16])
def test_curl_from_coefficients_is_curl_of_field(N):
    # closed form: the curl of the unit eigenfield (kperp/|k|) e^{ik.x} is
    # i|k| e^{ik.x}; the result is exactly Hermitian and zero at k = 0
    spec = build_spectrum(N, 2.0, 1.0)
    w = derive_stream(N, "curl").standard_normal(spec.n_modes)
    got = qw.curl_from_coefficients(spec, w)
    ref = sp.curl(qw.field_from_coefficients(spec, w))
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
    neg = (-sp._wavenumbers(N)) % (2 * N + 1)
    assert np.array_equal(got, np.conj(got[neg[:, None], neg[None, :]]))
    assert got[0, 0] == 0.0


@pytest.mark.parametrize("fn", [qw.curl_from_coefficients, qw.field_from_coefficients])
def test_curl_from_coefficients_takes_rows(fn):
    spec = build_spectrum(4, 2.0, 1.0)
    w = derive_stream(4, "rows").standard_normal((2, 3, spec.n_modes))
    got = fn(spec, w)
    assert got.shape == (2, 3) + fn(spec, w[0, 0]).shape
    for i in range(2):
        for j in range(3):
            assert np.array_equal(got[i, j], fn(spec, w[i, j]))


def test_sample_rejects_bad_dt():
    spec = build_spectrum(2, 2.0, 1.0)
    with pytest.raises(ValueError):
        qw.sample_coefficients(spec, 0.0, 1, derive_stream(0, "x"))
