"""Tests for the generic SDE engine: steppers, Stratonovich correction,
exit-time localization, and strong-order estimation."""

import numpy as np
import pytest

from stoflow import sde
from stoflow.sde import SdeProblem, solve_path
from stoflow.streams import derive_stream


def scalar_problem(drift, diffusion, x0=1.0, variances=(1.0,), **kw):
    return SdeProblem(dim=1, drift=drift, diffusion=diffusion,
                      noise_variances=np.array(variances),
                      x0=np.array([x0]), **kw)


# ---------------------------------------------------------------------------
# single steps

def test_em_step_no_dynamics():
    p = scalar_problem(lambda t, x: np.zeros(1), lambda x, dW: np.zeros(1), x0=0.7)
    out = sde.step_euler_maruyama(p, 0.0, p.x0, np.array([0.3]), 0.1)
    assert out[0] == 0.7


def test_em_step_pure_drift():
    p = scalar_problem(lambda t, x: np.ones(1), lambda x, dW: np.zeros(1), x0=0.0)
    out = sde.step_euler_maruyama(p, 0.0, p.x0, np.array([0.0]), 0.5)
    assert out[0] == 0.5


def test_terminal_state_telescopes_noise():
    # b = 0, sigma = 1: terminal state is exactly the sum of increments
    p = scalar_problem(lambda t, x: np.zeros(1), lambda x, dW: dW, x0=0.0)
    grid = np.linspace(0.0, 1.0, 33)
    inc = sde.sample_increments(p, grid, derive_stream(4, "tel"))
    for scheme in ("euler-maruyama", "heun"):
        res = solve_path(p, scheme, grid, increments=inc)
        assert abs(res.terminal[0] - inc.sum()) < 1e-14


def test_heun_equals_em_for_constant_sigma():
    s = np.array([[0.8]])
    p = scalar_problem(lambda t, x: 2.0 * np.ones(1), lambda x, dW: s @ dW, x0=0.3)
    dW = np.array([-0.4])
    a = sde.step_euler_maruyama(p, 0.0, p.x0, dW, 0.2)
    b = sde.step_heun_stratonovich(p, 0.0, p.x0, dW, 0.2)
    # constant drift and diffusion: the corrector averages degenerate
    assert abs(a[0] - b[0]) < 1e-15


def test_heun_zero_noise_is_deterministic_heun():
    p = scalar_problem(lambda t, x: -x, lambda x, dW: np.zeros(1), x0=1.0)
    dt = 0.1
    out = sde.step_heun_stratonovich(p, 0.0, p.x0, np.array([0.0]), dt)
    # hand-rolled Heun for dx/dt = -x
    xp = 1.0 - dt
    expected = 1.0 + 0.5 * dt * (-1.0 - xp)
    assert abs(out[0] - expected) < 1e-15


# ---------------------------------------------------------------------------
# Stratonovich correction

def test_correction_constant_sigma_zero():
    p = scalar_problem(lambda t, x: np.zeros(1), lambda x, dW: 2.0 * dW)
    corr = sde.stratonovich_correction(p, np.array([0.7]))
    assert np.max(np.abs(corr)) == 0.0


def test_correction_linear_sigma():
    # sigma(x) = x, Q = 1: correction = x/2
    p = scalar_problem(lambda t, x: np.zeros(1), lambda x, dW: x * dW)
    for x in (0.5, -1.3, 2.0):
        corr = sde.stratonovich_correction(p, np.array([x]))
        assert abs(corr[0] - 0.5 * x) < 1e-9


def test_correction_scales_with_variance():
    p = scalar_problem(lambda t, x: np.zeros(1), lambda x, dW: x * dW,
                       variances=(3.0,))
    corr = sde.stratonovich_correction(p, np.array([1.0]))
    assert abs(corr[0] - 1.5) < 1e-8


def test_ito_stratonovich_consistency():
    # Heun on (0, x) and EM on (correction, x) approach each other pathwise
    strat = scalar_problem(lambda t, x: np.zeros(1), lambda x, dW: x * dW)
    ito = scalar_problem(lambda t, x: 0.5 * x, lambda x, dW: x * dW)
    rng = derive_stream(11, "cons")
    diffs = []
    for nsteps in (32, 64, 128, 256):
        grid = np.linspace(0.0, 1.0, nsteps + 1)
        err = 0.0
        for _ in range(200):
            inc = sde.sample_increments(strat, grid, rng)
            a = solve_path(strat, "heun", grid, increments=inc).terminal
            b = solve_path(ito, "euler-maruyama", grid, increments=inc).terminal
            err += (a[0] - b[0]) ** 2
        diffs.append(np.sqrt(err / 200))
    assert diffs[-1] < diffs[0]
    assert diffs[-1] < 0.5 * diffs[0]


def test_ito_formula_residual_refines():
    # f(x) = x^2 on the OU process: the discrete Ito-formula defect
    # shrinks in mean square under refinement
    p = scalar_problem(lambda t, x: -x, lambda x, dW: dW, x0=1.0)
    rng = derive_stream(17, "ito")
    resids = []
    for nsteps in (16, 64, 256):
        grid = np.linspace(0.0, 1.0, nsteps + 1)
        dt = 1.0 / nsteps
        acc = 0.0
        for _ in range(200):
            inc = sde.sample_increments(p, grid, rng)
            path = solve_path(p, "euler-maruyama", grid, increments=inc)
            x = path.states[:-1, 0]
            xT = path.terminal[0]
            # Df.b = -2x^2, (1/2)tr(D2f sQs*) = 1, Df.s dW = 2x dW
            r = xT**2 - 1.0 - np.sum((-2.0 * x**2 + 1.0) * dt) \
                - np.sum(2.0 * x * inc[:, 0])
            acc += r**2
        resids.append(np.sqrt(acc / 200))
    assert resids[2] < resids[1] < resids[0]


# ---------------------------------------------------------------------------
# exit-time localization

def test_deterministic_exit_within_one_step():
    p = scalar_problem(lambda t, x: np.ones(1), lambda x, dW: np.zeros(1),
                       x0=0.0, domain_radius=1.0)
    dt = 0.01
    grid = np.linspace(0.0, 2.0, 201)
    res = solve_path(p, "euler-maruyama", grid,
                     increments=np.zeros((200, 1)))
    assert res.exited
    assert abs(res.exit_time - 1.0) <= dt + 1e-12
    assert len(res.states) == res.exit_index + 1


def test_static_path_never_exits():
    p = scalar_problem(lambda t, x: np.zeros(1), lambda x, dW: np.zeros(1),
                       x0=0.0, domain_radius=1.0)
    grid = np.linspace(0.0, 5.0, 51)
    res = solve_path(p, "heun", grid, increments=np.zeros((50, 1)))
    assert not res.exited
    assert res.exit_time is None
    assert len(res.states) == 51


def test_exit_monotone_under_domain_inclusion():
    rng = derive_stream(23, "mono")
    grid = np.linspace(0.0, 20.0, 2001)
    for _ in range(10):
        small = scalar_problem(lambda t, x: np.zeros(1), lambda x, dW: dW,
                               x0=0.0, domain_radius=1.0)
        big = scalar_problem(lambda t, x: np.zeros(1), lambda x, dW: dW,
                             x0=0.0, domain_radius=2.0)
        inc = sde.sample_increments(small, grid, rng)
        rs = solve_path(small, "euler-maruyama", grid, increments=inc)
        rb = solve_path(big, "euler-maruyama", grid, increments=inc)
        ts = rs.exit_time if rs.exited else np.inf
        tb = rb.exit_time if rb.exited else np.inf
        assert tb >= ts
        # paths agree up to the smaller domain's exit
        n = len(rs.states)
        assert np.array_equal(rb.states[:n], rs.states[:n]) or rb.exited


def test_initial_state_outside_domain_rejected():
    p = scalar_problem(lambda t, x: np.zeros(1), lambda x, dW: dW,
                       x0=3.0, domain_radius=1.0)
    with pytest.raises(ValueError):
        solve_path(p, "heun", np.linspace(0, 1, 11),
                   increments=np.zeros((10, 1)))


def test_custom_domain_norm():
    p = SdeProblem(dim=2, drift=lambda t, x: np.array([1.0, 0.0]),
                   diffusion=lambda x, dW: np.zeros(2),
                   noise_variances=np.array([1.0]),
                   x0=np.zeros(2), domain_radius=1.0,
                   domain_norm=lambda v: 2.0 * np.abs(v[0]))
    grid = np.linspace(0.0, 1.0, 101)
    res = solve_path(p, "euler-maruyama", grid, increments=np.zeros((100, 1)))
    assert res.exited
    assert abs(res.exit_time - 0.51) < 1e-12


def test_nonfinite_state_aborts():
    p = scalar_problem(lambda t, x: np.full(1, np.nan), lambda x, dW: np.zeros(1))
    with pytest.raises(sde.SdePathError) as exc:
        solve_path(p, "euler-maruyama", np.linspace(0, 10, 101),
                   increments=np.zeros((100, 1)))
    assert exc.value.step == 0


# ---------------------------------------------------------------------------
# determinism and refinement machinery

def test_solve_path_deterministic():
    p = scalar_problem(lambda t, x: -x, lambda x, dW: dW)
    grid = np.linspace(0.0, 1.0, 65)
    a = solve_path(p, "heun", grid, sde.sample_increments(p, grid, derive_stream(3, "det")))
    b = solve_path(p, "heun", grid, sde.sample_increments(p, grid, derive_stream(3, "det")))
    assert np.array_equal(a.states, b.states)


def test_coarsen_increments_sums_blocks():
    inc = np.arange(12.0).reshape(6, 2)
    out = sde.coarsen_increments(inc, 3)
    assert out.shape == (2, 2)
    assert np.array_equal(out[0], inc[:3].sum(axis=0))
    with pytest.raises(ValueError):
        sde.coarsen_increments(inc, 4)


def test_strong_order_em_additive():
    p = scalar_problem(lambda t, x: -x, lambda x, dW: dW)
    order, dts, errs = sde.strong_convergence_order(
        p, "euler-maruyama", 1.0, [8, 16, 32, 64, 128], 100,
        derive_stream(31, "ord"))
    assert 0.7 <= order <= 1.3
    assert errs[-1] < errs[0]


def test_strong_order_heun_deterministic():
    p = scalar_problem(lambda t, x: np.sin(x) + 0.5, lambda x, dW: np.zeros(1),
                       x0=0.3)
    order, _, _ = sde.strong_convergence_order(
        p, "heun", 1.0, [8, 16, 32, 64], 1, derive_stream(0, "ode"))
    assert 1.6 <= order <= 2.4


def test_strong_order_heun_multiplicative():
    p = scalar_problem(lambda t, x: np.zeros(1), lambda x, dW: x * dW)
    order, _, _ = sde.strong_convergence_order(
        p, "heun", 1.0, [8, 16, 32, 64, 128], 200, derive_stream(7, "mult"),
        exact=lambda wT: np.exp(wT))
    assert 0.5 <= order <= 1.3


def test_strong_order_needs_three_levels():
    p = scalar_problem(lambda t, x: -x, lambda x, dW: dW)
    with pytest.raises(ValueError):
        sde.strong_convergence_order(p, "heun", 1.0, [8, 16], 4,
                                     derive_stream(0, "few"))
    with pytest.raises(ValueError):
        sde.strong_convergence_order(p, "heun", 1.0, [8, 24, 64], 4,
                                     derive_stream(0, "div"))
