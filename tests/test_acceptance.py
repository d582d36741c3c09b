"""Acceptance suite: the eleven end-to-end checks that gate a release.

Each test states its tolerance inline and prints the measured quantity so
the run log doubles as a report.  Monte Carlo tests use fixed seeds; the
z-score bound of 4 keeps false failures below ~1e-4 per comparison.
"""

import time

import numpy as np
import pytest

from stoflow import eulerian as eu
from stoflow import lagrangian as lg
from stoflow import spectral as sp
from stoflow.config import ExperimentConfig
from stoflow.experiments import run_experiment
from stoflow.lagrangian import uniform_labels
from stoflow.qwiener import build_spectrum, sample_coefficients
from stoflow.sde import SdeProblem, sample_increments, step_paths, strong_convergence_order
from stoflow.streams import derive_stream
from vertical_lift import lifted_noise, stratonovich_correction
from whole_paths import eulerian_path, stack_paths

Z_BOUND = 4.0


# 1 -------------------------------------------------------------------------

def test_taylor_green_steadiness():
    # zero-noise Euler, N=16, dt=1e-3, T=1: relative L2 drift < 1e-8,
    # wall clock < 10 s
    u0 = sp.taylor_green(16)
    spec = build_spectrum(16, 2.0, 0.0)
    t0 = time.perf_counter()
    q, _ = eulerian_path(u0, spec, 1e-3, np.zeros((1, 1000, spec.n_modes)), scheme="heun")
    wall = time.perf_counter() - t0
    rel = sp.l2_norm(eu._velocity(q[0, -1], 0.0, u0[:, 0, 0]) - u0) / sp.l2_norm(u0)
    print(f"steadiness: rel drift {rel:.3e}, wall {wall:.2f}s")
    assert rel < 1e-8
    assert wall < 10.0


# 2 -------------------------------------------------------------------------

def test_divergence_free_fields_everywhere():
    # every emitted field stays divergence-free below 1e-10 relative,
    # deterministic and stochastic alike
    worst = 0.0
    spec0 = build_spectrum(8, 2.0, 0.0)
    spec1 = build_spectrum(8, 3.0, 0.5)
    inc = np.stack([sample_coefficients(spec1, 0.01, 50, derive_stream(2024, i, "noise"))
                    for i in range(4)])
    for u0, spec, inc in ((sp.taylor_green(8), spec0, np.zeros((1, 50, spec0.n_modes))),
                          (np.zeros((2, 17, 17), dtype=complex), spec1, inc)):
        q, _ = eulerian_path(u0, spec, 0.01, inc)
        u = eu._velocity(q, 0.0, u0[:, 0, 0])
        worst = max(worst, float(np.max(sp.divergence_residual(u))))
    print(f"max divergence residual {worst:.3e}")
    assert worst < 1e-10


# 3 & 4 ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def isometry_manifest(tmp_path_factory):
    cfg = ExperimentConfig(kind="isometry", n=4, gamma=2.0, c=1.0,
                           seed=20240601, ensemble=10_000)
    out = tmp_path_factory.mktemp("isometry")
    return run_experiment(cfg, out_dir=out)


def test_qwiener_increment_statistics(isometry_manifest):
    # 1e4 increments: per-mode variance z-scores and cross-mode
    # covariances all |z| < 4
    assert isometry_manifest.acceptance["mode_variances"]
    assert isometry_manifest.acceptance["cross_covariances"]
    assert isometry_manifest.acceptance["zero_mean"]


def test_ito_isometry(isometry_manifest):
    # E ||W(1)||^2 vs trace(Q), |z| < 4 over 1e4 paths
    assert isometry_manifest.acceptance["ito_isometry"]


# 5 -------------------------------------------------------------------------

def test_energy_growth_matches_trace(tmp_path):
    # 1e3 stochastic Euler paths, N=8, T=0.5: mean energy slope equals
    # trace(Q) within 4 standard errors
    cfg = ExperimentConfig(kind="energy-growth", n=8, dt=0.01, horizon=0.5,
                           gamma=3.0, c=0.5, init_kind="zero",
                           scheme="euler-maruyama", seed=314159, ensemble=1000)
    man = run_experiment(cfg, out_dir=tmp_path, threads=4)
    summary = (tmp_path / "energy_summary.csv").read_text().splitlines()[1]
    slope, se, trace, z = (float(v) for v in summary.split(","))
    print(f"energy slope {slope:.5f} vs trace {trace:.5f}, z = {z:.2f}")
    assert man.acceptance["energy_growth_slope"]
    assert man.acceptance["divergence_free"]
    assert abs(z) < Z_BOUND


# 6 -------------------------------------------------------------------------

def test_equivalence_residual_decays():
    # coupled-noise residual over 4 step halvings: fitted slope in
    # [0.6, 1.4]
    spec = build_spectrum(8, 3.0, 0.5)
    u0 = np.zeros((2, 17, 17), dtype=complex)
    rng = derive_stream(271828, "equivalence")
    levels, dt0, T = 4, 0.02, 0.24
    n0 = int(round(T / dt0))
    fine = sample_coefficients(spec, dt0 / 2**levels, n0 * 2**levels, rng)
    dts, residuals = [], []
    for lvl in range(levels + 1):
        f = 2**lvl
        inc = fine.reshape(n0 * f, 2**levels // f, -1).sum(axis=1)
        res = lg.run_equivalence(u0, spec, dt0 / f,
                                 labels=uniform_labels(6), increments=inc)
        dts.append(dt0 / f)
        residuals.append(res)
    slope = float(np.polyfit(np.log(dts), np.log(residuals), 1)[0])
    print(f"equivalence residuals {['%.3e' % r for r in residuals]}, "
          f"slope {slope:.3f}")
    assert 0.6 <= slope <= 1.4


def test_equivalence_residual_deterministic_taylor_green():
    # zero noise, Taylor-Green at N=16, dt=1e-3, T=0.5: residual < 1e-6
    u0 = sp.taylor_green(16)
    spec = build_spectrum(16, 2.0, 0.0)
    res = lg.run_equivalence(u0, spec, 1e-3, labels=uniform_labels(6),
                             increments=np.zeros((500, spec.n_modes)))
    print(f"deterministic equivalence residual {res:.3e}")
    assert res < 1e-6


# 7 -------------------------------------------------------------------------

def test_vertical_lift_stratonovich_degeneracy():
    # the Lagrangian diffusion depends only on positions but acts only on
    # velocities: the finite-difference correction trace is < 1e-8
    spec = build_spectrum(3, 2.0, 1.0)
    u = sp.taylor_green(3, 0.7)
    labels = uniform_labels(5)
    x0, diffusion = lifted_noise(spec, labels, sp.evaluate_stack_at(u, labels))
    corr = stratonovich_correction(diffusion, spec.mode_variances, x0)
    print(f"stacked correction sup-norm {np.max(np.abs(corr)):.3e}")
    assert np.max(np.abs(corr)) < 1e-8


def test_heun_em_coupled_difference_linear_in_dt():
    # additive-noise Eulerian system: coupled Heun and Euler-Maruyama
    # paths differ by < C dt with C stable under refinement
    spec = build_spectrum(6, 3.0, 0.5)
    u0 = sp.taylor_green(6, 0.5)
    T, finest = 0.2, 80
    fine = sample_coefficients(spec, T / finest, finest,
                               derive_stream(999, "coupled"))
    consts = []
    for nsteps in (10, 20, 40, 80):
        dt = T / nsteps
        inc = fine.reshape(nsteps, finest // nsteps, -1).sum(axis=1)
        a, _ = eulerian_path(u0, spec, dt, inc[None], scheme="heun")
        b, _ = eulerian_path(u0, spec, dt, inc[None], scheme="euler-maruyama")
        mean = u0[:, 0, 0]
        consts.append(sp.l2_norm(eu._velocity(a[0, -1], 0.0, mean)
                                 - eu._velocity(b[0, -1], 0.0, mean)) / dt)
    print(f"difference/dt constants {['%.4f' % c for c in consts]}")
    assert max(consts) < 4.0 * min(consts)


# 8 -------------------------------------------------------------------------

def test_strong_order_euler_maruyama_additive():
    p = SdeProblem(drift=lambda t, x: -x, diffusion=lambda x, dW: dW,
                   noise_variances=np.array([1.0]), x0=np.array([1.0]))
    order, _, _ = strong_convergence_order(
        p, "euler-maruyama", 1.0, [8, 16, 32, 64, 128, 256], 200,
        derive_stream(161803, "em"))
    print(f"EM additive strong order {order:.3f}")
    assert 0.7 <= order <= 1.3


def test_strong_order_heun_stratonovich_benchmark():
    # dX = X o dW against the exact exp(W_T)
    p = SdeProblem(drift=lambda t, x: np.zeros(1),
                   diffusion=lambda x, dW: x * dW,
                   noise_variances=np.array([1.0]), x0=np.array([1.0]))
    order, _, _ = strong_convergence_order(
        p, "heun", 1.0, [8, 16, 32, 64, 128, 256], 200,
        derive_stream(141421, "heun"), exact=lambda wT: np.exp(wT))
    print(f"Heun Stratonovich strong order {order:.3f}")
    assert 0.5 <= order <= 1.3


# 9 -------------------------------------------------------------------------

def test_exit_time_deterministic_crossing():
    dt = 0.01
    p = SdeProblem(drift=lambda t, x: np.ones(1),
                   diffusion=lambda x, dW: np.zeros(1),
                   noise_variances=np.array([1.0]), x0=np.zeros(1),
                   domain_radius=1.0)
    grid = np.arange(0.0, 2.0 + dt / 2, dt)
    _, exit_index = stack_paths(p, "euler-maruyama", grid, np.zeros((1, len(grid) - 1, 1)))
    assert exit_index[0] >= 0
    assert abs(grid[exit_index[0]] - 1.0) <= dt + 1e-12


def test_exit_time_brownian_mean():
    # scalar Brownian motion from the center of [-R, R], stopped by
    # step_paths at its first grid time outside: E tau = R^2, within 10%
    # at 1e4 paths, every one of which must exit before t = 50
    R, dt, n_paths, block = 1.0, 0.002, 10_000, 100
    p = SdeProblem(drift=lambda t, x: np.zeros_like(x),
                   diffusion=lambda x, dW: dW, noise_variances=np.array([1.0]),
                   x0=np.zeros(1), domain_radius=R)
    t_grid = np.linspace(0.0, 50.0, int(round(50.0 / dt)) + 1)
    rng = derive_stream(577215, "exit")
    rows = (row for i in range(0, len(t_grid) - 1, block)
            for row in sample_increments(p, t_grid[i:i + block + 1], rng,
                                         n_paths).swapaxes(0, 1))
    for _, exit_index in step_paths(p, "euler-maruyama", t_grid, rows):
        if np.all(exit_index >= 0):
            break
    assert np.all(exit_index >= 0)  # t_grid[-1] would count a path that stayed
    est = float(np.mean(t_grid[exit_index]))
    print(f"mean Brownian exit time {est:.4f} (target {R**2})")
    assert abs(est - R**2) < 0.1 * R**2


# 10 ------------------------------------------------------------------------

def test_alpha_zero_bitwise_identical(tmp_path):
    # averaged model at alpha = 0 reproduces plain Euler bit for bit on
    # identical noise streams, including the emitted CSV bytes
    spec = build_spectrum(6, 3.0, 0.5)
    u0 = sp.taylor_green(6, 0.5)
    inc = sample_coefficients(spec, 0.01, 20, derive_stream(66, "bits"))
    a, _ = eulerian_path(u0, spec, 0.01, inc[None], alpha=0.0)
    b, _ = eulerian_path(u0, spec, 0.01, inc[None])
    assert np.array_equal(a, b)
    mean = u0[:, 0, 0]
    assert np.array_equal(eu._diagnostics(eu._velocity(a, 0.0, mean))[0],
                          eu._diagnostics(eu._velocity(b, 0.0, mean))[0])

    common = dict(n=6, dt=0.01, horizon=0.1, gamma=3.0, c=0.5, seed=42,
                  ensemble=3)
    run_experiment(ExperimentConfig(kind="simulate-euler", **common),
                   out_dir=tmp_path / "euler")
    run_experiment(ExperimentConfig(kind="simulate-averaged", alpha=0.0,
                                    **common), out_dir=tmp_path / "averaged")
    assert (tmp_path / "euler" / "diagnostics.csv").read_bytes() == \
        (tmp_path / "averaged" / "diagnostics.csv").read_bytes()


def test_alpha_one_single_shear_drift_zero():
    u = sp.single_mode_field(8, (1, 0))
    d = eu.averaged_drift(u, 1.0)
    print(f"alpha=1 shear drift sup-norm {np.max(np.abs(d)):.3e}")
    assert np.max(np.abs(d)) < 1e-10


# 11 ------------------------------------------------------------------------

def test_reproducible_across_threads(tmp_path):
    # identical CSV bytes at threads = 1 and 8 (the paths split over up to
    # one forked worker process per CPU), and across reruns
    cfg = ExperimentConfig(kind="energy-growth", n=6, dt=0.01, horizon=0.2,
                           gamma=3.0, c=0.5, init_kind="zero",
                           scheme="euler-maruyama", seed=8128, ensemble=16)
    run_experiment(cfg, out_dir=tmp_path / "t1", threads=1)
    run_experiment(cfg, out_dir=tmp_path / "t8", threads=8)
    run_experiment(cfg, out_dir=tmp_path / "again", threads=8)
    for name in ("energy.csv", "energy_summary.csv"):
        ref = (tmp_path / "t1" / name).read_bytes()
        assert (tmp_path / "t8" / name).read_bytes() == ref
        assert (tmp_path / "again" / name).read_bytes() == ref


def test_equivalence_reproducible_across_threads(tmp_path):
    # identical equivalence CSV bytes at 1 and at 8 worker threads, and
    # across reruns
    cfg = ExperimentConfig(kind="equivalence", n=6, dt=0.05, horizon=0.2,
                           gamma=3.0, c=0.5, init_kind="taylor-green",
                           eq_levels=2, eq_particles=6, seed=8128)
    run_experiment(cfg, out_dir=tmp_path / "t1", threads=1)
    run_experiment(cfg, out_dir=tmp_path / "t8", threads=8)
    run_experiment(cfg, out_dir=tmp_path / "again", threads=8)
    for name in ("equivalence.csv", "equivalence_summary.csv"):
        ref = (tmp_path / "t1" / name).read_bytes()
        assert (tmp_path / "t8" / name).read_bytes() == ref
        assert (tmp_path / "again" / name).read_bytes() == ref
