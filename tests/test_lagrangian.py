"""Tests for the particle-flow formulation: advection, spray drift,
vertically lifted noise, and the equivalence residual."""

import numpy as np

from stoflow import lagrangian as lg
from stoflow import spectral as sp
from stoflow.lagrangian import TWO_PI, initial_ensemble, uniform_labels
from stoflow.qwiener import build_spectrum, field_from_coefficients, \
    sample_coefficients
from stoflow.sde import stratonovich_correction
from stoflow.streams import derive_stream
from test_spectral import _ref_advection_term


def const_field(N, vec):
    return sp.SpectralField.from_modes(N, {(0, 0): list(vec)})


# ---------------------------------------------------------------------------
# ensembles and advection

def test_initial_ensemble_identity():
    labels = uniform_labels(4)
    u0 = sp.taylor_green(4)
    ens = initial_ensemble(labels, u0)
    assert np.array_equal(ens.positions, labels)
    assert np.allclose(ens.velocities, sp.evaluate_at(u0, labels), atol=1e-14)
    assert ens.t == 0.0


def test_advect_constant_field_exact():
    u = const_field(3, (1.0, 0.0))
    ens = initial_ensemble(uniform_labels(3), u)
    t = 0.0
    for _ in range(10):
        ens = lg.advect(ens, u, u, 0.7)
        t += 0.7
    expected = (ens.labels + np.array([t, 0.0])) % TWO_PI
    assert np.max(np.abs(ens.positions - expected)) < 1e-12


def test_advect_shear_closed_form():
    # u = (sin y, 0): y constant along paths, x(t) = x0 + t sin y0 exactly
    # for the midpoint scheme
    u = sp.SpectralField.from_modes(5, {(0, 1): [-0.5j, 0.0]}, hermitize=True)
    labels = uniform_labels(5)
    ens = initial_ensemble(labels, u)
    dt, nsteps = 0.05, 40
    for _ in range(nsteps):
        ens = lg.advect(ens, u, u, dt)
    t = dt * nsteps
    expected_x = (labels[:, 0] + t * np.sin(labels[:, 1])) % TWO_PI
    assert np.max(np.abs(ens.positions[:, 0] - expected_x)) < 1e-12
    assert np.max(np.abs(ens.positions[:, 1] - labels[:, 1])) < 1e-14


def test_advect_zero_field_static():
    ens = initial_ensemble(uniform_labels(4), sp.SpectralField.zero(3))
    zero = sp.SpectralField.zero(3)
    out = lg.advect(ens, zero, zero, 0.3)
    assert np.array_equal(out.positions, ens.positions)


# ---------------------------------------------------------------------------
# spray drift (material acceleration)

def test_spray_zero_field():
    ens = initial_ensemble(uniform_labels(4), sp.SpectralField.zero(4))
    acc = lg.material_acceleration_at(sp.SpectralField.zero(4), ens.positions)
    assert np.max(np.abs(acc)) == 0.0


def test_spray_single_shear_zero():
    u = sp.single_mode_field(6, (2, 1))
    ens = initial_ensemble(uniform_labels(5), u)
    acc = lg.material_acceleration_at(u, ens.positions)
    assert np.max(np.abs(acc)) < 1e-12


def test_spray_taylor_green_is_pressure_gradient():
    # Pi[(u.grad)u] = 0 for Taylor-Green, so the spray equals the full
    # transport term 1/2 (sin 2x, sin 2y) = -(grad p), on the label grid
    # and at random points off it
    u = sp.taylor_green(8)
    labels = initial_ensemble(uniform_labels(6), u).positions
    random = np.random.default_rng(13).uniform(0, TWO_PI, size=(25, 2))
    for pos in (labels, random):
        acc = lg.material_acceleration_at(u, pos)
        ref = 0.5 * np.stack([np.sin(2 * pos[:, 0]), np.sin(2 * pos[:, 1])], axis=1)
        assert np.max(np.abs(acc - ref)) < 1e-12


def test_material_acceleration_is_transport_minus_projected_advection():
    rng = np.random.default_rng(18)
    u = sp.random_divergence_free(6, rng)
    pts = rng.uniform(-TWO_PI, 2 * TWO_PI, size=(31, 2))
    # (u.grad)u from u, d_x u and d_y u evaluated one by one, and
    # Pi[(u.grad)u] from the complex-FFT velocity kernel of test_spectral
    k = sp._wavenumbers(6)
    val = sp.evaluate_at(u, pts)
    dudx = sp.evaluate_at(sp.SpectralField(6, 1j * k[:, None] * u.coeffs), pts)
    dudy = sp.evaluate_at(sp.SpectralField(6, 1j * k[None, :] * u.coeffs), pts)
    transport = val[:, :1] * dudx + val[:, 1:] * dudy
    ref = transport - sp.evaluate_at(sp.leray_project(_ref_advection_term(u, 0.0)), pts)
    assert np.max(np.abs(lg.material_acceleration_at(u, pts) - ref)) < 1e-13


# ---------------------------------------------------------------------------
# vertically lifted noise

def test_kicks_at_identity_equal_grid_values():
    # the kicks of the vertical lift at the collocation points are the
    # grid values of the increment field
    spec = build_spectrum(3, 2.0, 1.0)
    w = sample_coefficients(spec, 0.1, 1, derive_stream(3, "k"))[0]
    dW = field_from_coefficients(spec, w)
    P = dW.M ** 2
    u = sp.SpectralField.zero(3)
    problem = lg.make_lagrangian_problem(u, spec, initial_ensemble(uniform_labels(dW.M), u))
    kicks = problem.diffusion(problem.x0, w)[2 * P:].reshape(P, 2)
    grid = dW.grid_values().reshape(2, -1).T
    assert np.max(np.abs(kicks - grid)) < 1e-12


def test_zero_increment_zero_kicks():
    spec = build_spectrum(3, 2.0, 1.0)
    u = sp.SpectralField.zero(3)
    problem = lg.make_lagrangian_problem(u, spec, initial_ensemble(uniform_labels(4), u))
    assert np.max(np.abs(problem.diffusion(problem.x0, np.zeros(spec.n_modes)))) == 0.0


def test_stacked_diffusion_matches_eigenmode_evaluation():
    spec = build_spectrum(2, 2.0, 1.0)
    rng = derive_stream(5, "pos")
    pos = rng.uniform(0, TWO_PI, size=(7, 2))
    u = sp.taylor_green(2, 0.5)
    problem = lg.make_lagrangian_problem(u, spec, initial_ensemble(pos, u))
    from stoflow.qwiener import eigenmode_field
    for j in range(spec.n_modes):
        e = np.zeros(spec.n_modes)
        e[j] = 1.0
        col = problem.diffusion(problem.x0, e)
        assert np.max(np.abs(col[:14])) == 0.0  # position rows silent
        vals = sp.evaluate_at(eigenmode_field(spec, j), pos)
        assert np.max(np.abs(col[14:].reshape(7, 2) - vals)) < 1e-12


def test_stratonovich_correction_degenerates():
    # diffusion depends only on positions but acts only on velocities,
    # so the finite-difference correction trace vanishes
    spec = build_spectrum(2, 2.0, 1.0)
    u = sp.taylor_green(2, 0.5)
    ens = initial_ensemble(uniform_labels(4), u)
    problem = lg.make_lagrangian_problem(u, spec, ens)
    corr = stratonovich_correction(problem, problem.x0)
    assert np.max(np.abs(corr)) < 1e-8


# ---------------------------------------------------------------------------
# coupled trajectories

def test_zero_noise_zero_field_static():
    spec = build_spectrum(3, 2.0, 0.0)
    res = lg.run_equivalence(sp.SpectralField.zero(3), spec, 0.05, 0.5,
                             labels=uniform_labels(4))
    assert res == 0.0


# ---------------------------------------------------------------------------
# equivalence residual

def test_residual_zero_horizon():
    u0 = sp.taylor_green(4)
    spec = build_spectrum(4, 2.0, 0.0)
    ens = initial_ensemble(uniform_labels(4), u0)
    res = lg.equivalence_residual(u0.coeffs[None], [ens], np.zeros((0, spec.n_modes)),
                                  spec, 0.01)
    assert res == 0.0


def test_residual_deterministic_taylor_green_small():
    u0 = sp.taylor_green(8)
    spec = build_spectrum(8, 2.0, 0.0)
    res = lg.run_equivalence(u0, spec, 2e-3, 0.2, labels=uniform_labels(6))
    assert res < 1e-6


def test_residual_invariant_under_label_period_shift():
    u0 = sp.taylor_green(6, 0.5)
    spec = build_spectrum(6, 3.0, 0.4)
    inc = sample_coefficients(spec, 0.01, 10, derive_stream(33, "shift"))
    labels = uniform_labels(5)
    r1 = lg.run_equivalence(u0, spec, 0.01, 0.1, labels=labels, increments=inc)
    r2 = lg.run_equivalence(u0, spec, 0.01, 0.1, labels=labels + TWO_PI,
                            increments=inc)
    assert r1 == r2


def test_residual_decreases_under_coupled_refinement():
    u0 = sp.SpectralField.zero(6)
    spec = build_spectrum(6, 3.0, 0.5)
    rng = derive_stream(41, "ref")
    levels = 3
    dt0, T = 0.02, 0.12
    n0 = int(round(T / dt0))
    fine = sample_coefficients(spec, dt0 / 2**levels, n0 * 2**levels, rng)
    residuals = []
    for lvl in range(levels + 1):
        f = 2**lvl
        inc = fine.reshape(n0 * f, 2**levels // f, -1).sum(axis=1)
        residuals.append(lg.run_equivalence(u0, spec, dt0 / f, T,
                                            labels=uniform_labels(4),
                                            increments=inc))
    assert residuals[-1] < residuals[0]
    slope = np.polyfit(np.log([dt0 / 2**l for l in range(levels + 1)]),
                       np.log(residuals), 1)[0]
    assert 0.5 <= slope <= 1.5
