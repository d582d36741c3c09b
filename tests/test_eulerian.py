"""Tests for the Eulerian velocity-field SDEs: Euler and averaged
Euler-alpha drifts, noise smoothing, and trajectory diagnostics."""

import numpy as np
import pytest

from stoflow import eulerian as eu
from stoflow import spectral as sp
from stoflow.lagrangian import run_equivalence, uniform_labels
from stoflow.qwiener import build_spectrum, sample_coefficients
from stoflow.streams import derive_stream
from test_spectral import helmholtz_inverse, modes, zero_field
from whole_paths import eigenmode_field, eulerian_path


# ---------------------------------------------------------------------------
# Euler drift

def test_taylor_green_drift_zero():
    u = sp.taylor_green(8)
    d = eu.averaged_drift(u, 0.0)
    assert np.max(np.abs(d)) < 1e-14


def test_zero_field_drift_zero():
    d = eu.averaged_drift(zero_field(4), 0.0)
    assert np.max(np.abs(d)) == 0.0


def test_single_shear_drift_zero():
    u = sp.single_mode_field(6, (2, 1), amplitude=1.5)
    d = eu.averaged_drift(u, 0.0)
    assert np.max(np.abs(d)) < 1e-14


def test_drift_divergence_free():
    rng = derive_stream(3, "drift")
    u = sp.random_divergence_free(6, rng)
    assert sp.divergence_residual(eu.averaged_drift(u, 0.0)) < 1e-13
    assert sp.divergence_residual(eu.averaged_drift(u, 0.7)) < 1e-13


# ---------------------------------------------------------------------------
# averaged Euler-alpha drift

def test_alpha_zero_reduces_to_euler():
    rng = derive_stream(5, "alpha0")
    u = sp.random_divergence_free(6, rng)
    # H = id at alpha = 0 is applied and inverted exactly: the drift is the
    # Euler drift built from the vorticity curl u, bit for bit
    a = eu.averaged_drift(u, 0.0)
    b = sp.biot_savart(-sp.advection_term(sp.curl(u), u), 0.0)
    assert np.array_equal(a, b)


def test_euler_drift_is_projected_advection_term():
    # the spray reads Pi[(u.grad)u] as -averaged_drift(u, 0.0); the equivalence
    # residual needs it to be the velocity of the q drift the Eulerian path
    # integrates.  The problem rebuilds u from curl u, which is the identity
    # on zero-mean divergence-free fields only up to the rounding of the
    # per-mode Biot-Savart multipliers, so the match is to 1e-14 relative
    rng = derive_stream(6, "alpha0")
    spec = build_spectrum(6, 2.0, 1.0)
    mean = modes(6, {(0, 0): [0.4, -0.1]})
    for u in [sp.taylor_green(6), sp.random_divergence_free(6, rng),
              mean + sp.random_divergence_free(6, rng)]:
        problem = eu.make_eulerian_problem(u, spec)
        ref = problem.drift(0.0, sp.curl(u)[None])[0]
        got = sp.curl(eu.averaged_drift(u, 0.0))
        assert np.max(np.abs(got - ref)) <= 1e-14 * max(np.max(np.abs(ref)), 1.0)


def test_single_shear_averaged_drift_zero():
    # (u.grad)m = 0 for a single shear mode; (grad u)^T Lap u is a pure
    # gradient killed by the projection
    u = sp.single_mode_field(8, (1, 0), amplitude=1.0)
    d = eu.averaged_drift(u, 1.0)
    assert np.max(np.abs(d)) < 1e-10


def test_averaged_drift_rejects_negative_alpha():
    with pytest.raises(ValueError):
        eu.averaged_drift(zero_field(4), -1.0)


# ---------------------------------------------------------------------------
# noise smoothing

def test_averaged_diffusion_matches_eigenmode_sum():
    # the problem's noise acts on q = curl(H u); its velocity is the smoothed
    # noise sum_j w_j H^-1 e_j, divergence-free
    alpha = 0.7
    spec = build_spectrum(3, 2.0, 1.0)
    problem = eu.make_eulerian_problem(sp.taylor_green(3), spec, alpha=alpha)
    w = derive_stream(19, "diffusion").standard_normal(spec.n_modes)
    got = sp.biot_savart(problem.diffusion(problem.x0, w), alpha)
    ref = sum(w[j] * helmholtz_inverse(eigenmode_field(spec, j), alpha)
              for j in range(spec.n_modes))
    assert np.max(np.abs(got - ref)) < 1e-13
    assert sp.divergence_residual(got) < 1e-13


def test_smoothed_noise_divergence_free():
    # each eigenmode's noise velocity H^-1 e_j, recovered from the q-state
    # noise, is divergence-free
    alpha = 1.0
    spec = build_spectrum(4, 2.0, 1.0)
    problem = eu.make_eulerian_problem(zero_field(4), spec, alpha=alpha)
    for j in range(spec.n_modes):
        e = np.zeros(spec.n_modes)
        e[j] = 1.0
        f = sp.biot_savart(problem.diffusion(problem.x0, e), alpha)
        assert sp.divergence_residual(f) < 1e-13


def curl_coeffs(v):
    """Fourier coefficients of the scalar curl d_x v_y - d_y v_x."""
    k = sp._wavenumbers((v.shape[-1] - 1) // 2)
    return 1j * (k[:, None] * v[1] - k[None, :] * v[0])


@pytest.mark.parametrize("alpha", [0.3, 0.7])
def test_averaged_drift_conserves_potential_enstrophy(alpha):
    # q = curl H u is carried by the flow, dq/dt + (u.grad) q = 0, and the
    # Galerkin-truncated drift keeps d/dt (1/2) int q^2 = <q, curl H du/dt> = 0
    u = sp.random_divergence_free(8, np.random.default_rng(27))
    q = curl_coeffs(sp.helmholtz_apply(u, alpha))
    dq = curl_coeffs(sp.helmholtz_apply(eu.averaged_drift(u, alpha), alpha))
    rate = np.real(np.sum(q * np.conj(dq)))
    assert abs(rate) < 1e-12 * np.sum(np.abs(q) ** 2)


# ---------------------------------------------------------------------------
# problem construction

def test_resolution_mismatch_rejected():
    # the public entry points check the shape (2, M, M) of the noise
    # resolution: fields at other resolutions and scalars are rejected
    spec = build_spectrum(3, 2.0, 1.0)
    inc = np.zeros((2, spec.n_modes))
    labels = uniform_labels(3)
    times = np.linspace(0.0, 0.02, 3)
    for u0 in (zero_field(4), zero_field(2), zero_field(3)[0]):
        for call in (lambda: eu.make_eulerian_problem(u0, spec),
                     lambda: next(eu._velocity_blocks(u0, spec, times, inc[:, None])),
                     lambda: run_equivalence(u0, spec, 0.01, labels, inc)):
            with pytest.raises(ValueError, match=r"expected \(2, 7, 7\)"):
                call()


# ---------------------------------------------------------------------------
# trajectories

def test_zero_data_zero_noise_stays_zero():
    spec = build_spectrum(4, 2.0, 0.0)
    q, _ = eulerian_path(zero_field(4), spec, 0.01, np.zeros((1, 10, spec.n_modes)))
    u = eu._velocity(q, 0.0, np.zeros(2))
    assert np.max(eu._diagnostics(u)[0]) == 0.0
    assert np.max(np.abs(u)) == 0.0


def test_taylor_green_steady_short_run():
    u0 = sp.taylor_green(8)
    spec = build_spectrum(8, 2.0, 0.0)
    q, exit_index = eulerian_path(u0, spec, 1e-3, np.zeros((1, 200, spec.n_modes)))
    rel = sp.l2_norm(eu._velocity(q[0, -1], 0.0, u0[:, 0, 0]) - u0) / sp.l2_norm(u0)
    assert rel < 1e-10
    assert exit_index[0] == -1


def test_path_keeps_mean_flow():
    # the mean flow is held apart from q, so every velocity row carries it
    U = [0.4, -0.1]
    u0 = modes(4, {(0, 0): U}) + sp.taylor_green(4, 0.5)
    spec = build_spectrum(4, 3.0, 0.5)
    inc = sample_coefficients(spec, 0.01, 20, derive_stream(23, "mean"))
    q, _ = eulerian_path(u0, spec, 0.01, inc[None])
    u = eu._velocity(q[0], 0.0, u0[:, 0, 0])
    assert np.array_equal(u[:, :, 0, 0], np.broadcast_to(U, (21, 2)))
    assert np.max(np.abs(u[0] - u0)) < 1e-15


def test_stochastic_path_divergence_free():
    spec = build_spectrum(6, 3.0, 0.5)
    inc = sample_coefficients(spec, 0.01, 20, derive_stream(11, "noise"))
    q, _ = eulerian_path(zero_field(6), spec, 0.01, inc[None])
    u = eu._velocity(q, 0.0, np.zeros(2))
    assert np.max(eu._diagnostics(u)[3]) < 1e-10
    assert u.shape == (1, 21, 2, 13, 13)


def test_path_reproducible_from_increments():
    spec = build_spectrum(4, 3.0, 0.5)
    inc = sample_coefficients(spec, 0.01, 20, derive_stream(13, "rep"))
    u0 = sp.taylor_green(4, 0.5)
    a, _ = eulerian_path(u0, spec, 0.01, inc[None])
    b, _ = eulerian_path(u0, spec, 0.01, inc[None])
    assert np.array_equal(a, b)


@pytest.mark.parametrize("alpha", [0.0, 0.7])
def test_exit_norm_read_from_q(alpha):
    # |u|_{H^2} from the weights on q equals the norm of the rebuilt velocity
    N = 6
    rng = np.random.default_rng(61)
    u0 = modes(N, {(0, 0): [0.4, -0.1]}) + sp.random_divergence_free(N, rng)
    problem = eu.make_eulerian_problem(u0, build_spectrum(N, 3.0, 0.5), alpha=alpha)
    mean = u0[:, 0, 0]
    for q in (problem.x0, sp.curl(sp.random_divergence_free(N, rng, amplitude=3.0))):
        ref = sp.sobolev_norm(eu._velocity(q, alpha, mean), 2)
        assert abs(problem.domain_norm(q) - ref) <= 1e-14 * ref


def test_path_diagnostics_match_per_field_functions():
    # the reductions of the velocity blocks give every row bit for bit as
    # the per-field norm functions do; at N = 16 the 11 rows span four
    # blocks of 3 rows, the last one short
    N = 16
    spec = build_spectrum(N, 3.0, 0.5)
    u0 = sp.random_divergence_free(N, np.random.default_rng(5))
    inc = sample_coefficients(spec, 0.01, 10, derive_stream(29, "diag"))
    q, _ = eulerian_path(u0, spec, 0.01, inc[None], alpha=0.3)
    fields = list(eu._velocity(q[0], 0.3, u0[:, 0, 0]))
    blocks = [u for u, _ in eu._velocity_blocks(u0, spec, np.linspace(0.0, 0.1, 11),
                                                inc[:, None], alpha=0.3)]
    assert [u.shape[1] for u in blocks] == [3, 3, 3, 2]
    energy, ens, hs, div = np.concatenate([eu._diagnostics(u) for u in blocks], axis=-1)
    assert np.array_equal(energy[0], [sp.l2_norm(f) ** 2 for f in fields])
    assert np.array_equal(ens[0], [sp.enstrophy(f) for f in fields])
    assert np.array_equal(hs[0], [sp.sobolev_norm(f, 2) for f in fields])
    assert np.array_equal(div[0], [sp.divergence_residual(f) for f in fields])


def test_streamed_diagnostics_match_collected_path():
    # the velocity blocks, reduced as they come, give the diagnostics of the
    # stacked path bit for bit, and its exit indices and last velocities;
    # the 31 grid times of 3 paths span eight blocks, the last one short, and
    # path 1 is kicked out of the ball at row 13
    N, dt, nsteps = 8, 0.01, 30
    spec = build_spectrum(N, 3.0, 0.5)
    u0 = sp.random_divergence_free(N, np.random.default_rng(7))
    inc = np.stack([sample_coefficients(spec, dt, nsteps, derive_stream(31, k, "stream"))
                    for k in range(3)])
    inc[1, 12] *= 1000.0
    q, ref_exit = eulerian_path(u0, spec, dt, inc, alpha=0.3, radius_factor=2.0)
    assert ref_exit.tolist() == [-1, 13, -1]
    ref = eu._velocity(q, 0.3, u0[:, 0, 0])
    parts = []
    times = np.linspace(0.0, nsteps * dt, nsteps + 1)
    for u, exit_index in eu._velocity_blocks(u0, spec, times, inc.swapaxes(0, 1),
                                             alpha=0.3, radius_factor=2.0):
        parts.append(eu._diagnostics(u))
    assert [d.shape[-1] for d in parts] == [4] * 7 + [3]
    assert np.array_equal(np.concatenate(parts, axis=-1), eu._diagnostics(ref))
    assert np.array_equal(exit_index, ref_exit)
    assert np.array_equal(u[:, -1], ref[:, -1])


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
        a, _ = eulerian_path(u0, spec, dt, inc[None], scheme="heun")
        b, _ = eulerian_path(u0, spec, dt, inc[None], scheme="euler-maruyama")
        mean = u0[:, 0, 0]
        diff = sp.l2_norm(eu._velocity(a[0, -1], 0.0, mean)
                          - eu._velocity(b[0, -1], 0.0, mean))
        consts.append(diff / dt)
    assert max(consts) < 4.0 * max(min(consts), 1e-12)


def test_mean_mode_invariant_under_drift():
    # a constant mean flow just translates; the drift must not feed it
    u = modes(6, {(0, 0): [0.4, -0.1]}) + sp.taylor_green(6)
    d = eu.averaged_drift(u, 0.0)
    assert np.max(np.abs(d[:, 0, 0])) < 1e-14
