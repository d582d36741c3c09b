"""Tests for the particle-flow formulation: advection, spray drift,
vertically lifted noise, and the equivalence residual."""

import numpy as np
import pytest

from stoflow import eulerian as eu
from stoflow import lagrangian as lg
from stoflow import spectral as sp
from stoflow.lagrangian import TWO_PI, ParticleEnsemble, uniform_labels
from stoflow.qwiener import build_spectrum, field_from_coefficients, \
    sample_coefficients
from stoflow.streams import derive_stream
from test_spectral import _ref_advection_term, dense_phase_sum, grid_values, modes, \
    zero_field
from vertical_lift import lifted_noise, stratonovich_correction
from whole_paths import eigenmode_field, eulerian_path


def const_field(N, vec):
    return modes(N, {(0, 0): list(vec)})


def spray_at(u, pts):
    """The material acceleration at the points, as run_equivalence forms it
    at a grid time without a kick."""
    fields = lg._spray_fields(u[None], np.empty((0,) + u.shape))[0]
    return lg._spray_from(sp.evaluate_stack_at(fields, pts))


# ---------------------------------------------------------------------------
# ensembles and advection

def wrapped(ens):
    """The positions of the ensemble in [0, 2pi)^2."""
    return ens.positions_unwrapped % TWO_PI


def test_initial_ensemble_identity():
    # Phi_0, the identity on the labels, is formed in run_equivalence; the
    # ensemble counts its particles for the bench tracer
    assert ParticleEnsemble(uniform_labels(4)).n == 16


def test_advect_constant_field_exact():
    u = const_field(3, (1.0, 0.0))
    ens = ParticleEnsemble(uniform_labels(3))
    start = wrapped(ens)
    t = 0.0
    for _ in range(10):
        ens = lg.advect(ens, sp.evaluate_stack_at(u, wrapped(ens)), u, 0.7)
        t += 0.7
    expected = (start + np.array([t, 0.0])) % TWO_PI
    assert np.max(np.abs(wrapped(ens) - expected)) < 1e-12


def test_advect_shear_closed_form():
    # u = (sin y, 0): y constant along paths, x(t) = x0 + t sin y0 exactly
    # for the midpoint scheme
    u = modes(5, {(0, 1): [-0.5j, 0.0]}, hermitize=True)
    labels = uniform_labels(5)
    ens = ParticleEnsemble(labels)
    dt, nsteps = 0.05, 40
    for _ in range(nsteps):
        ens = lg.advect(ens, sp.evaluate_stack_at(u, wrapped(ens)), u, dt)
    t = dt * nsteps
    expected_x = (labels[:, 0] + t * np.sin(labels[:, 1])) % TWO_PI
    assert np.max(np.abs(wrapped(ens)[:, 0] - expected_x)) < 1e-12
    assert np.max(np.abs(wrapped(ens)[:, 1] - labels[:, 1])) < 1e-14


def test_advect_zero_field_static():
    ens = ParticleEnsemble(uniform_labels(4))
    zero = zero_field(3)
    out = lg.advect(ens, sp.evaluate_stack_at(zero, wrapped(ens)), zero, 0.3)
    assert np.array_equal(wrapped(out), wrapped(ens))


# ---------------------------------------------------------------------------
# spray drift (material acceleration)

def test_spray_zero_field():
    acc = spray_at(zero_field(4), uniform_labels(4))
    assert np.max(np.abs(acc)) == 0.0


def test_spray_single_shear_zero():
    u = sp.single_mode_field(6, (2, 1))
    acc = spray_at(u, uniform_labels(5))
    assert np.max(np.abs(acc)) < 1e-12


def test_spray_taylor_green_is_pressure_gradient():
    # Pi[(u.grad)u] = 0 for Taylor-Green, so the spray equals the full
    # transport term 1/2 (sin 2x, sin 2y) = -(grad p), on the label grid
    # and at random points off it
    u = sp.taylor_green(8)
    labels = uniform_labels(6)
    random = np.random.default_rng(13).uniform(0, TWO_PI, size=(25, 2))
    for pos in (labels, random):
        acc = spray_at(u, pos)
        ref = 0.5 * np.stack([np.sin(2 * pos[:, 0]), np.sin(2 * pos[:, 1])], axis=1)
        assert np.max(np.abs(acc - ref)) < 1e-12


def test_material_acceleration_is_transport_minus_projected_advection():
    rng = np.random.default_rng(18)
    u = sp.random_divergence_free(6, rng)
    pts = rng.uniform(-TWO_PI, 2 * TWO_PI, size=(31, 2))
    # (u.grad)u from u, d_x u and d_y u evaluated one by one, and
    # Pi[(u.grad)u] from the complex-FFT velocity kernel of test_spectral
    k = sp._wavenumbers(6)
    val = sp.evaluate_stack_at(u, pts)
    dudx = sp.evaluate_stack_at(1j * k[:, None] * u, pts)
    dudy = sp.evaluate_stack_at(1j * k[None, :] * u, pts)
    transport = val[:, :1] * dudx + val[:, 1:] * dudy
    proj = sp.leray_project(_ref_advection_term(u, 0.0))
    ref = transport - sp.evaluate_stack_at(proj, pts)
    assert np.max(np.abs(spray_at(u, pts) - ref)) < 1e-13


def test_spray_fields_stack_five_slots():
    # one stack per block: u, d_x u, d_y u, Pi[(u.grad)u] and the kick of
    # each row, bit for bit; a block one kick short (the last grid time
    # starts no step) gets a zero kick slot in its last row
    N = 5
    rng = np.random.default_rng(29)
    u = np.stack([sp.random_divergence_free(N, rng) for _ in range(3)])
    spec = build_spectrum(N, 2.0, 0.5)
    kicks = field_from_coefficients(
        spec, sample_coefficients(spec, 0.1, 3, derive_stream(29, "kicks")))
    ikx, iky = sp._ik_grids(N)
    for rows in (3, 2):
        fields = lg._spray_fields(u, kicks[:rows])
        assert fields.shape == (3, 5) + u.shape[1:]
        assert np.array_equal(fields[:, 0], u)
        assert np.array_equal(fields[:, 1], ikx * u)
        assert np.array_equal(fields[:, 2], iky * u)
        assert np.array_equal(fields[:, 3], -eu.averaged_drift(u, 0.0))
        assert np.array_equal(fields[:rows, 4], kicks[:rows])
    assert np.any(kicks[2]) and not np.any(fields[2, 4])


# ---------------------------------------------------------------------------
# vertically lifted noise

def test_kicks_at_identity_equal_grid_values():
    # the kicks of the vertical lift at the collocation points are the
    # grid values of the increment field
    spec = build_spectrum(3, 2.0, 1.0)
    w = sample_coefficients(spec, 0.1, 1, derive_stream(3, "k"))[0]
    dW = field_from_coefficients(spec, w)
    M = dW.shape[-1]
    P = M ** 2
    u = zero_field(3)
    labels = uniform_labels(M)
    x0, diffusion = lifted_noise(spec, labels, sp.evaluate_stack_at(u, labels))
    kicks = diffusion(x0, w)[2 * P:].reshape(P, 2)
    grid = grid_values(dW).reshape(2, -1).T
    assert np.max(np.abs(kicks - grid)) < 1e-12


def test_zero_increment_zero_kicks():
    spec = build_spectrum(3, 2.0, 1.0)
    u = zero_field(3)
    labels = uniform_labels(4)
    x0, diffusion = lifted_noise(spec, labels, sp.evaluate_stack_at(u, labels))
    assert np.max(np.abs(diffusion(x0, np.zeros(spec.n_modes)))) == 0.0


def test_stacked_diffusion_matches_eigenmode_evaluation():
    spec = build_spectrum(2, 2.0, 1.0)
    rng = derive_stream(5, "pos")
    pos = rng.uniform(0, TWO_PI, size=(7, 2))
    u = sp.taylor_green(2, 0.5)
    x0, diffusion = lifted_noise(spec, pos, sp.evaluate_stack_at(u, pos))
    for j in range(spec.n_modes):
        e = np.zeros(spec.n_modes)
        e[j] = 1.0
        col = diffusion(x0, e)
        assert np.max(np.abs(col[:14])) == 0.0  # position rows silent
        vals = sp.evaluate_stack_at(eigenmode_field(spec, j), pos)
        assert np.max(np.abs(col[14:].reshape(7, 2) - vals)) < 1e-12


def test_stratonovich_correction_degenerates():
    # diffusion depends only on positions but acts only on velocities,
    # so the finite-difference correction trace vanishes
    spec = build_spectrum(2, 2.0, 1.0)
    u = sp.taylor_green(2, 0.5)
    labels = uniform_labels(4)
    x0, diffusion = lifted_noise(spec, labels, sp.evaluate_stack_at(u, labels))
    corr = stratonovich_correction(diffusion, spec.mode_variances, x0)
    assert np.max(np.abs(corr)) < 1e-8


# ---------------------------------------------------------------------------
# coupled trajectories

def test_zero_noise_zero_field_static():
    spec = build_spectrum(3, 2.0, 0.0)
    res = lg.run_equivalence(zero_field(3), spec, 0.05, labels=uniform_labels(4),
                             increments=np.zeros((10, spec.n_modes)))
    assert res == 0.0


# ---------------------------------------------------------------------------
# equivalence residual

def test_residual_zero_horizon():
    # T = 0, which no config allows: a grid with no step is an empty noise
    # stream, which the stepper rejects
    spec = build_spectrum(4, 3.0, 0.5)
    with pytest.raises(ValueError, match="does not match the time grid"):
        lg.run_equivalence(sp.taylor_green(4), spec, 0.01, labels=uniform_labels(4),
                           increments=np.zeros((0, spec.n_modes)))


def test_residual_deterministic_taylor_green_small():
    u0 = sp.taylor_green(8)
    spec = build_spectrum(8, 2.0, 0.0)
    res = lg.run_equivalence(u0, spec, 2e-3, labels=uniform_labels(6),
                             increments=np.zeros((100, spec.n_modes)))
    assert res < 1e-6


def test_residual_invariant_under_label_period_shift():
    u0 = sp.taylor_green(6, 0.5)
    spec = build_spectrum(6, 3.0, 0.4)
    inc = sample_coefficients(spec, 0.01, 10, derive_stream(33, "shift"))
    labels = uniform_labels(5)
    r1 = lg.run_equivalence(u0, spec, 0.01, labels=labels, increments=inc)
    r2 = lg.run_equivalence(u0, spec, 0.01, labels=labels + TWO_PI,
                            increments=inc)
    assert r1 == r2


def test_fused_loop_matches_two_pass_reference():
    # run_equivalence takes RK2's k1 and the residual's terms from one
    # stacked evaluation per step; the reference evaluates k1 and k2 field
    # by field, then makes a second pass over the path for the residual
    N, dt, nsteps = 6, 0.01, 8
    spec = build_spectrum(N, 3.0, 0.5)
    u0 = sp.taylor_green(N, 0.5)
    inc = sample_coefficients(spec, dt, nsteps, derive_stream(21, "fused"))
    labels = uniform_labels(5)
    res = lg.run_equivalence(u0, spec, dt, labels=labels, increments=inc)

    q, _ = eulerian_path(u0, spec, dt, inc[None], scheme="heun")
    states = eu._velocity(q[0], 0.0, u0[:, 0, 0])
    fields = list(states)
    x = [labels]
    for j in range(nsteps):
        k1 = sp.evaluate_stack_at(fields[j], x[j])
        mid = 0.5 * (states[j] + states[j + 1])
        x.append(x[j] + dt * sp.evaluate_stack_at(mid, x[j] + 0.5 * dt * k1))

    k = sp._wavenumbers(N)

    def spray(u, pos):
        val = sp.evaluate_stack_at(u, pos)
        dudx = sp.evaluate_stack_at(1j * k[:, None] * u, pos)
        dudy = sp.evaluate_stack_at(1j * k[None, :] * u, pos)
        proj = sp.evaluate_stack_at(sp.leray_project(_ref_advection_term(u, 0.0)), pos)
        return val[:, :1] * dudx + val[:, 1:] * dudy - proj

    acc = [spray(fields[j], x[j]) for j in range(nsteps + 1)]
    defect = sp.evaluate_stack_at(fields[-1], x[-1]) \
        - sp.evaluate_stack_at(fields[0], labels)
    for j in range(nsteps):
        defect -= 0.5 * dt * (acc[j] + acc[j + 1])
        defect -= sp.evaluate_stack_at(field_from_coefficients(spec, inc[j]), x[j])
    ref = np.max(np.linalg.norm(defect, axis=1))
    assert ref > 0.0
    assert abs(res - ref) <= 1e-12 * ref


def test_residual_matches_dense_phase_sum_evaluation(monkeypatch):
    # the rounding of the evaluation kernel moves the residuals of a noisy
    # refinement ladder by at most 1e-12 relative against the full phase sum
    N, dt0 = 6, 0.02  # 20 fine steps of dt0 / 4: T = 0.1
    spec = build_spectrum(N, 3.0, 0.5)
    u0 = sp.taylor_green(N, 0.5)
    fine = sample_coefficients(spec, dt0 / 4, 20, derive_stream(47, "dense"))

    def residuals():
        return [lg.run_equivalence(u0, spec, dt0 / f, labels=uniform_labels(4),
                                   increments=fine.reshape(5 * f, 4 // f, -1).sum(axis=1))
                for f in (1, 2, 4)]

    fast = residuals()
    monkeypatch.setattr(lg, "evaluate_stack_at", dense_phase_sum)
    ref = residuals()
    assert min(ref) > 0.0
    for a, b in zip(fast, ref):
        assert abs(a - b) <= 1e-12 * b


def test_equivalence_reads_no_diagnostics(monkeypatch):
    # the particle path reads the Eulerian q rows only, never the per-row
    # energy, enstrophy, H^s norm or divergence residual
    def fail(*args):
        raise AssertionError("run_equivalence computed path diagnostics")

    for name in ("stoflow.eulerian._diagnostics", "stoflow.spectral._enstrophy_of_squares",
                 "stoflow.spectral._divergence_residual"):
        monkeypatch.setattr(name, fail)
    spec = build_spectrum(4, 3.0, 0.5)
    inc = sample_coefficients(spec, 0.01, 10, derive_stream(37, "nodiag"))
    res = lg.run_equivalence(sp.taylor_green(4, 0.5), spec, 0.01,
                             labels=uniform_labels(3), increments=inc)
    assert res > 0.0


def test_block_size_does_not_change_residual(monkeypatch):
    # the 101 grid times span several blocks of velocity rows at the default
    # size; one grid time per block and the whole path in one block give the
    # same bits
    N, dt, nsteps = 6, 0.002, 100
    spec = build_spectrum(N, 3.0, 0.5)
    u0 = sp.taylor_green(N, 0.5)
    inc = sample_coefficients(spec, dt, nsteps, derive_stream(43, "block"))

    def residual():
        return lg.run_equivalence(u0, spec, dt, labels=uniform_labels(3),
                                  increments=inc)

    ref = residual()
    assert 1 < eu._DIAGNOSTIC_BLOCK_BYTES // u0.nbytes < nsteps + 1  # u0: one row
    for size in (1, (nsteps + 1) * u0.nbytes):
        monkeypatch.setattr(eu, "_DIAGNOSTIC_BLOCK_BYTES", size)
        assert residual() == ref


def test_exit_inside_a_block_names_its_time():
    # N = 8 blocks hold 14 grid times; the kick at step 20 throws the path
    # out of the ball at row 21, inside the block of rows 14-27, and the
    # error names the time of that row, not of the block's end
    N, dt, nsteps = 8, 0.005, 40
    spec = build_spectrum(N, 3.0, 0.5)
    u0 = sp.taylor_green(N, 0.5)
    inc = sample_coefficients(spec, dt, nsteps, derive_stream(67, "exit"))
    inc[20] *= 1e3
    _, ref_exit = eulerian_path(u0, spec, dt, inc[None], radius_factor=2.0)
    assert ref_exit.tolist() == [21]
    assert eu._DIAGNOSTIC_BLOCK_BYTES // u0.nbytes == 14
    with pytest.raises(ValueError, match=r"left the localization ball at t = 0\.105, "
                                         r"before the horizon 0\.2;"):
        lg.run_equivalence(u0, spec, dt, labels=uniform_labels(3),
                           increments=inc, radius_factor=2.0)


def test_residual_decreases_under_coupled_refinement():
    u0 = zero_field(6)
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
        residuals.append(lg.run_equivalence(u0, spec, dt0 / f,
                                            labels=uniform_labels(4),
                                            increments=inc))
    assert residuals[-1] < residuals[0]
    slope = np.polyfit(np.log([dt0 / 2**l for l in range(levels + 1)]),
                       np.log(residuals), 1)[0]
    assert 0.5 <= slope <= 1.5
