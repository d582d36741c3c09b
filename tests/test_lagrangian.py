"""Tests for the particle-flow formulation: advection, spray drift,
vertically lifted noise, volume monitoring, and the equivalence residual."""

import numpy as np
import pytest

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
    acc = lg.spray(ens, sp.SpectralField.zero(4))
    assert np.max(np.abs(acc)) == 0.0


def test_spray_single_shear_zero():
    u = sp.single_mode_field(6, (2, 1))
    ens = initial_ensemble(uniform_labels(5), u)
    acc = lg.spray(ens, u)
    assert np.max(np.abs(acc)) < 1e-12


def test_spray_taylor_green_is_pressure_gradient():
    # Pi[(u.grad)u] = 0 for Taylor-Green, so the spray equals the full
    # transport term 1/2 (sin 2x, sin 2y) = -(grad p)
    u = sp.taylor_green(8)
    ens = initial_ensemble(uniform_labels(6), u)
    acc = lg.spray(ens, u)
    pos = ens.positions
    ref = 0.5 * np.stack([np.sin(2 * pos[:, 0]), np.sin(2 * pos[:, 1])], axis=1)
    assert np.max(np.abs(acc - ref)) < 1e-12


def test_material_acceleration_is_transport_minus_projected_advection():
    rng = np.random.default_rng(18)
    u = sp.random_divergence_free(6, rng)
    pts = rng.uniform(-TWO_PI, 2 * TWO_PI, size=(31, 2))
    # Pi[(u.grad)u] from the complex-FFT velocity kernel of test_spectral
    ref = sp.pointwise_advection_at(u, pts) \
        - sp.evaluate_at(sp.leray_project(_ref_advection_term(u, 0.0)), pts)
    assert np.max(np.abs(lg.material_acceleration_at(u, pts) - ref)) < 1e-13


def test_spray_consistency_warning():
    u = sp.taylor_green(6)
    ens = initial_ensemble(uniform_labels(4), u)
    bad = lg.ParticleEnsemble(labels=ens.labels,
                              positions_unwrapped=ens.positions_unwrapped,
                              velocities=ens.velocities + 1.0, t=0.0)
    with pytest.warns(UserWarning):
        lg.spray(bad, u)


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


def test_noise_kicks_never_move_positions_within_step():
    spec = build_spectrum(4, 3.0, 1.0)
    u0 = sp.taylor_green(4, 0.5)
    labels = uniform_labels(4)
    inc = sample_coefficients(spec, 0.05, 1, derive_stream(9, "kick"))
    with_k = lg.run_lagrangian(u0, spec, 0.05, 0.05, labels=labels,
                               increments=inc, with_noise_kicks=True)
    without = lg.run_lagrangian(u0, spec, 0.05, 0.05, labels=labels,
                                increments=inc, with_noise_kicks=False)
    a, b = with_k.ensembles[-1], without.ensembles[-1]
    assert np.array_equal(a.positions, b.positions)
    assert not np.allclose(a.velocities, b.velocities)


# ---------------------------------------------------------------------------
# coupled trajectories

def test_zero_noise_zero_field_static():
    spec = build_spectrum(3, 2.0, 0.0)
    path = lg.run_lagrangian(sp.SpectralField.zero(3), spec, 0.05, 0.5,
                             labels=uniform_labels(4))
    first, last = path.ensembles[0], path.ensembles[-1]
    assert np.array_equal(first.positions, last.positions)
    assert np.max(np.abs(last.velocities)) == 0.0


def test_zero_noise_taylor_green_velocities_track_field():
    # steady field: eta(t) = u0(Phi_t) up to O(dt^2) * t scheme error
    u0 = sp.taylor_green(8)
    spec = build_spectrum(8, 2.0, 0.0)
    dt, T = 0.005, 0.5
    path = lg.run_lagrangian(u0, spec, dt, T, labels=uniform_labels(6))
    last = path.ensembles[-1]
    ref = sp.evaluate_at(u0, last.positions)
    assert np.max(np.abs(last.velocities - ref)) < 50 * dt**2 * T


def test_quad_jacobians_identity():
    ens = initial_ensemble(uniform_labels(6), sp.SpectralField.zero(3))
    jac = lg.quad_jacobians(ens, 6)
    assert np.allclose(jac, 1.0, atol=1e-12)


def test_volume_proxy_deterministic_taylor_green():
    # the defect is dominated by the O(cell^2) polygonal-area approximation,
    # so it must shrink ~4x when the label grid is refined 2x
    u0 = sp.taylor_green(8)
    spec = build_spectrum(8, 2.0, 0.0)
    defects = {}
    for n_side in (12, 24):
        path = lg.run_lagrangian(u0, spec, 0.005, 0.5,
                                 labels=uniform_labels(n_side))
        jac = lg.quad_jacobians(path.ensembles[-1], n_side)
        defects[n_side] = np.max(np.abs(jac - 1.0))
    assert defects[12] < 0.02
    assert defects[24] < 0.35 * defects[12]


def test_volume_proxy_stochastic():
    u0 = sp.taylor_green(6, 0.5)
    spec = build_spectrum(6, 3.0, 0.3)
    rng = derive_stream(21, "vol")
    path = lg.run_lagrangian(u0, spec, 0.005, 0.5, labels=uniform_labels(12),
                             rng=rng)
    jac = lg.quad_jacobians(path.ensembles[-1], 12)
    assert np.max(np.abs(jac - 1.0)) < 0.05


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
