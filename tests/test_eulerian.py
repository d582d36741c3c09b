"""Tests for the Eulerian velocity-field SDEs: Euler and averaged
Euler-alpha drifts, noise smoothing, and trajectory diagnostics."""

import numpy as np
import pytest

from stoflow import eulerian as eu
from stoflow import spectral as sp
from stoflow.qwiener import build_spectrum, eigenmode_field, sample_coefficients
from stoflow.streams import derive_stream


# ---------------------------------------------------------------------------
# Euler drift

def test_taylor_green_drift_zero():
    u = sp.taylor_green(8)
    d = eu.euler_drift(u)
    assert np.max(np.abs(d.coeffs)) < 1e-14


def test_zero_field_drift_zero():
    d = eu.euler_drift(sp.SpectralField.zero(4))
    assert np.max(np.abs(d.coeffs)) == 0.0


def test_single_shear_drift_zero():
    u = sp.single_mode_field(6, (2, 1), amplitude=1.5)
    d = eu.euler_drift(u)
    assert np.max(np.abs(d.coeffs)) < 1e-14


def test_drift_divergence_free():
    rng = derive_stream(3, "drift")
    u = sp.random_divergence_free(6, rng)
    assert sp.divergence_residual(eu.euler_drift(u)) < 1e-13
    assert sp.divergence_residual(eu.averaged_drift(u, 0.7)) < 1e-13


# ---------------------------------------------------------------------------
# averaged Euler-alpha drift

def test_alpha_zero_reduces_to_euler():
    rng = derive_stream(5, "alpha0")
    u = sp.random_divergence_free(6, rng)
    a = eu.averaged_drift(u, 0.0)
    b = eu.euler_drift(u)
    assert np.array_equal(a.coeffs, b.coeffs)


def test_euler_drift_is_projected_advection_term():
    # the spray uses leray_project(advection_term(u)); the Eulerian drift
    # at alpha = 0 must agree with it bit for bit for the equivalence residual
    rng = derive_stream(6, "alpha0")
    for u in [sp.taylor_green(6), sp.random_divergence_free(6, rng)]:
        ref = -1.0 * sp.leray_project(sp.advection_term(u))
        assert np.array_equal(eu.euler_drift(u).coeffs, ref.coeffs)


def test_single_shear_averaged_drift_zero():
    # (u.grad)m = 0 for a single shear mode; (grad u)^T Lap u is a pure
    # gradient killed by the projection
    u = sp.single_mode_field(8, (1, 0), amplitude=1.0)
    d = eu.averaged_drift(u, 1.0)
    assert np.max(np.abs(d.coeffs)) < 1e-10


def test_averaged_drift_rejects_negative_alpha():
    with pytest.raises(ValueError):
        eu.averaged_drift(sp.SpectralField.zero(4), -1.0)


# ---------------------------------------------------------------------------
# noise smoothing

def test_noise_multiplier_identity_at_alpha_zero():
    spec = build_spectrum(3, 2.0, 1.0)
    mult = eu.noise_mode_multiplier(spec, 0.0)
    assert np.array_equal(mult, np.ones(spec.n_modes))


def test_noise_multiplier_single_mode():
    spec = build_spectrum(1, 2.0, 1.0)
    mult = eu.noise_mode_multiplier(spec, 1.0)
    j = [tuple(k) for k in spec.wavevectors].index((1, 0))
    assert abs(mult[2 * j] - 0.5) < 1e-15
    assert abs(mult[2 * j + 1] - 0.5) < 1e-15


def test_smoothed_noise_divergence_free():
    spec = build_spectrum(4, 2.0, 1.0)
    u0 = sp.SpectralField.zero(4)
    problem = eu.make_eulerian_problem(u0, spec, alpha=1.0)
    for j in range(spec.n_modes):
        e = np.zeros(spec.n_modes)
        e[j] = 1.0
        f = sp.SpectralField(4, problem.diffusion(problem.x0, e))
        assert sp.divergence_residual(f) < 1e-13


def test_averaged_diffusion_matches_eigenmode_sum():
    spec = build_spectrum(3, 2.0, 1.0)
    problem = eu.make_eulerian_problem(sp.taylor_green(3), spec, alpha=0.7)
    w = derive_stream(19, "diffusion").standard_normal(spec.n_modes)
    mult = eu.noise_mode_multiplier(spec, 0.7)
    ref = sum(mult[j] * w[j] * eigenmode_field(spec, j).coeffs
              for j in range(spec.n_modes))
    got = problem.diffusion(problem.x0, w)
    assert np.max(np.abs(got - ref)) < 1e-13


# ---------------------------------------------------------------------------
# problem construction

def test_resolution_mismatch_rejected():
    spec = build_spectrum(3, 2.0, 1.0)
    with pytest.raises(ValueError):
        eu.make_eulerian_problem(sp.SpectralField.zero(4), spec)


# ---------------------------------------------------------------------------
# trajectories

def test_zero_data_zero_noise_stays_zero():
    spec = build_spectrum(4, 2.0, 0.0)
    path = eu.run_eulerian(sp.SpectralField.zero(4), spec, 0.01, 0.1)
    assert np.max(path.energy) == 0.0
    for f in path.fields:
        assert np.max(np.abs(f.coeffs)) == 0.0


def test_taylor_green_steady_short_run():
    u0 = sp.taylor_green(8)
    spec = build_spectrum(8, 2.0, 0.0)
    path = eu.run_eulerian(u0, spec, 1e-3, 0.2)
    rel = sp.l2_norm(path.terminal - u0) / sp.l2_norm(u0)
    assert rel < 1e-10
    assert not path.exited


def test_stochastic_path_divergence_free():
    spec = build_spectrum(6, 3.0, 0.5)
    rng = derive_stream(11, "noise")
    path = eu.run_eulerian(sp.SpectralField.zero(6), spec, 0.01, 0.2, rng=rng)
    assert np.max(path.div_residual) < 1e-10
    assert len(path.fields) == len(path.times)


def test_path_reproducible_from_increments():
    spec = build_spectrum(4, 3.0, 0.5)
    inc = sample_coefficients(spec, 0.01, 20, derive_stream(13, "rep"))
    u0 = sp.taylor_green(4, 0.5)
    a = eu.run_eulerian(u0, spec, 0.01, 0.2, increments=inc)
    b = eu.run_eulerian(u0, spec, 0.01, 0.2, increments=inc)
    assert np.array_equal(a.terminal.coeffs, b.terminal.coeffs)


def test_heun_vs_em_coupled_difference_order_dt():
    # additive noise: the schemes differ only through drift averaging,
    # so coupled paths differ by O(dt) with a stable constant
    spec = build_spectrum(4, 3.0, 0.5)
    u0 = sp.taylor_green(4, 0.5)
    consts = []
    for nsteps in (10, 20, 40):
        dt = 0.2 / nsteps
        fine = sample_coefficients(spec, 0.2 / 40, 40, derive_stream(17, "cpl"))
        inc = fine.reshape(nsteps, 40 // nsteps, -1).sum(axis=1)
        a = eu.run_eulerian(u0, spec, dt, 0.2, scheme="heun", increments=inc)
        b = eu.run_eulerian(u0, spec, dt, 0.2, scheme="euler-maruyama",
                            increments=inc)
        diff = sp.l2_norm(a.terminal - b.terminal)
        consts.append(diff / dt)
    assert max(consts) < 4.0 * max(min(consts), 1e-12)


def test_mean_mode_invariant_under_drift():
    # a constant mean flow just translates; the drift must not feed it
    u = sp.SpectralField.from_modes(6, {(0, 0): [0.4, -0.1]}) + sp.taylor_green(6)
    d = eu.euler_drift(u)
    assert np.max(np.abs(d.coeffs[:, 0, 0])) < 1e-14
