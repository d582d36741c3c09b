"""Tests for the generic SDE engine: steppers, the Stratonovich correction
the degeneracy checks read, exit-time localization, and strong-order
estimation."""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from stoflow import eulerian as eu
from stoflow import sde
from stoflow import spectral as sp
from stoflow.qwiener import build_spectrum, sample_coefficients
from stoflow.sde import SdeProblem
from stoflow.streams import derive_stream
from vertical_lift import stratonovich_correction
from whole_paths import stack_paths


def scalar_problem(drift, diffusion, x0=1.0, variances=(1.0,), **kw):
    return SdeProblem(drift=drift, diffusion=diffusion,
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
    inc = sde.sample_increments(p, grid, derive_stream(4, "tel"), 1)
    for scheme in ("euler-maruyama", "heun"):
        states, _ = stack_paths(p, scheme, grid, inc)
        assert abs(states[0, -1, 0] - inc.sum()) < 1e-14


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
    corr = stratonovich_correction(lambda x, dW: 2.0 * dW, [1.0], np.array([0.7]))
    assert np.max(np.abs(corr)) == 0.0


def test_correction_linear_sigma():
    # sigma(x) = x, Q = 1: correction = x/2
    for x0 in (0.5, -1.3, 2.0):
        corr = stratonovich_correction(lambda x, dW: x * dW, [1.0], np.array([x0]))
        assert abs(corr[0] - 0.5 * x0) < 1e-9


def test_correction_scales_with_variance():
    corr = stratonovich_correction(lambda x, dW: x * dW, [3.0], np.array([1.0]))
    assert abs(corr[0] - 1.5) < 1e-8


def test_ito_stratonovich_consistency():
    # Heun on (0, x) and EM on (correction, x) approach each other pathwise
    strat = scalar_problem(lambda t, x: np.zeros(1), lambda x, dW: x * dW)
    ito = scalar_problem(lambda t, x: 0.5 * x, lambda x, dW: x * dW)
    rng = derive_stream(11, "cons")
    diffs = []
    for nsteps in (32, 64, 128, 256):
        grid = np.linspace(0.0, 1.0, nsteps + 1)
        inc = sde.sample_increments(strat, grid, rng, 200)
        a = stack_paths(strat, "heun", grid, inc)[0][:, -1]
        b = stack_paths(ito, "euler-maruyama", grid, inc)[0][:, -1]
        diffs.append(np.sqrt(np.sum((a - b) ** 2) / 200))
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
        inc = sde.sample_increments(p, grid, rng, 200)
        states, _ = stack_paths(p, "euler-maruyama", grid, inc)
        x = states[:, :-1, 0]
        xT = states[:, -1, 0]
        # Df.b = -2x^2, (1/2)tr(D2f sQs*) = 1, Df.s dW = 2x dW
        r = xT**2 - 1.0 - np.sum((-2.0 * x**2 + 1.0) * dt, axis=1) \
            - np.sum(2.0 * x * inc[:, :, 0], axis=1)
        resids.append(np.sqrt(np.sum(r**2) / 200))
    assert resids[2] < resids[1] < resids[0]


# ---------------------------------------------------------------------------
# exit-time localization

def test_deterministic_exit_within_one_step():
    p = scalar_problem(lambda t, x: np.ones(1), lambda x, dW: np.zeros(1),
                       x0=0.0, domain_radius=1.0)
    dt = 0.01
    grid = np.linspace(0.0, 2.0, 201)
    states, exit_index = stack_paths(p, "euler-maruyama", grid, np.zeros((1, 200, 1)))
    e = exit_index[0]
    assert e >= 0
    assert abs(grid[e] - 1.0) <= dt + 1e-12
    # the stopped path: every row after the exit row repeats the exit state
    assert np.all(states[0, e:] == states[0, e])
    assert np.all(states[0, :e, 0] <= 1.0)


def test_static_path_never_exits():
    p = scalar_problem(lambda t, x: np.zeros(1), lambda x, dW: np.zeros(1),
                       x0=0.0, domain_radius=1.0)
    grid = np.linspace(0.0, 5.0, 51)
    states, exit_index = stack_paths(p, "heun", grid, np.zeros((1, 50, 1)))
    assert exit_index[0] == -1
    assert states.shape == (1, 51, 1)


def test_exit_monotone_under_domain_inclusion():
    rng = derive_stream(23, "mono")
    grid = np.linspace(0.0, 20.0, 2001)
    small = scalar_problem(lambda t, x: np.zeros(1), lambda x, dW: dW,
                           x0=0.0, domain_radius=1.0)
    big = scalar_problem(lambda t, x: np.zeros(1), lambda x, dW: dW,
                         x0=0.0, domain_radius=2.0)
    inc = sde.sample_increments(small, grid, rng, 10)
    xs_all, es_all = stack_paths(small, "euler-maruyama", grid, inc)
    xb_all, eb_all = stack_paths(big, "euler-maruyama", grid, inc)
    for es, eb, xs, xb in zip(es_all, eb_all, xs_all, xb_all):
        ts = grid[es] if es >= 0 else np.inf
        tb = grid[eb] if eb >= 0 else np.inf
        assert tb >= ts
        # paths agree up to the smaller domain's exit
        n = es + 1 if es >= 0 else len(grid)
        assert np.array_equal(xb[:n], xs[:n])


def test_initial_state_outside_domain_rejected():
    p = scalar_problem(lambda t, x: np.zeros(1), lambda x, dW: dW,
                       x0=3.0, domain_radius=1.0)
    with pytest.raises(ValueError):
        next(sde.step_paths(p, "heun", np.linspace(0, 1, 11), np.zeros((10, 1, 1))))


def test_custom_domain_norm():
    p = SdeProblem(drift=lambda t, x: np.array([1.0, 0.0]),
                   diffusion=lambda x, dW: np.zeros(2),
                   noise_variances=np.array([1.0]),
                   x0=np.zeros(2), domain_radius=1.0,
                   domain_norm=lambda v: 2.0 * np.abs(v[:, 0]))
    grid = np.linspace(0.0, 1.0, 101)
    _, exit_index = stack_paths(p, "euler-maruyama", grid, np.zeros((1, 100, 1)))
    assert abs(grid[exit_index[0]] - 0.51) < 1e-12


def test_nonfinite_state_aborts():
    p = scalar_problem(lambda t, x: np.full(1, np.nan), lambda x, dW: np.zeros(1))
    with pytest.raises(sde.SdePathError) as exc:
        stack_paths(p, "euler-maruyama", np.linspace(0, 10, 101), np.zeros((1, 100, 1)))
    assert str(exc.value).startswith("non-finite state at step 0, t=")


def test_path_error_survives_pickling():
    # an ensemble worker process sends its exception to the parent pickled
    err = pickle.loads(pickle.dumps(sde.SdePathError("non-finite state at step 3, t=0.1")))
    assert type(err) is sde.SdePathError
    assert str(err) == "non-finite state at step 3, t=0.1"


def test_path_error_detail_survives_pickling():
    # an initial state out of range before any step is named without a step
    msg = "non-finite initial state: the initial norm is inf"
    err = pickle.loads(pickle.dumps(sde.SdePathError(msg)))
    assert type(err) is sde.SdePathError
    assert str(err) == msg


def test_paths_exit_on_their_own():
    # three paths in one stack: path 0 is kicked out of U at row 7, where
    # the drift turns NaN; exited paths are never stepped again, so no
    # SdePathError, and each live path's rows equal its solo rows
    p = scalar_problem(lambda t, x: np.where(np.abs(x) > 1.0, np.nan, -x),
                       lambda x, dW: dW, x0=0.2, domain_radius=1.0)
    grid = np.linspace(0.0, 0.2, 21)
    inc = 0.01 * derive_stream(41, "own").standard_normal((3, 20, 1))
    inc[0, 6] = 2.0
    states, exit_index = stack_paths(p, "euler-maruyama", grid, inc)
    assert exit_index.tolist() == [7, -1, -1]
    assert np.all(states[0, 7:] == states[0, 7])
    for k in (1, 2):
        solo, solo_exit = stack_paths(p, "euler-maruyama", grid, inc[k:k + 1])
        assert solo_exit[0] == -1
        assert np.array_equal(states[k], solo[0])


def test_step_paths_rows_are_the_collected_path():
    # the stepper's rows, copied as they come, are bit for bit the path
    # each path makes alone, stepped one Heun step at a time and stopped at
    # its first exit, on a stack where two of three paths exit at different
    # rows; the exit indices agree; the next step overwrites the yielded array
    p = scalar_problem(lambda t, x: -x, lambda x, dW: dW, x0=0.2, domain_radius=1.0)
    grid = np.linspace(0.0, 0.2, 21)
    inc = 0.01 * derive_stream(42, "rows").standard_normal((3, 20, 1))
    inc[0, 6], inc[2, 11] = 2.0, -2.0
    ref = np.empty((3, len(grid), 1))
    ref_exit = []
    for k in range(3):
        x, e = p.x0[None], -1
        ref[k, 0] = x[0]
        for i in range(len(grid) - 1):
            if e < 0:
                x = sde.step_heun_stratonovich(p, grid[i], x, inc[k, i:i + 1],
                                               grid[i + 1] - grid[i])
                e = i + 1 if p.norm(x)[0] > p.domain_radius else -1
            ref[k, i + 1] = x[0]
        ref_exit.append(e)
    assert ref_exit == [7, -1, 12]
    rows = []
    for x, exit_index in sde.step_paths(p, "heun", grid, inc.swapaxes(0, 1)):
        rows.append(x.copy())
    assert len(rows) == len(grid)
    assert np.array_equal(np.stack(rows, axis=1), ref)
    assert exit_index.tolist() == ref_exit
    assert np.array_equal(x, ref[:, -1])
    steps = sde.step_paths(p, "heun", grid, inc.swapaxes(0, 1))
    assert next(steps)[0] is next(steps)[0]


def test_step_paths_reads_increment_rows():
    # a stream of rows (K, m), one per grid step, drives the stepper as the
    # path-major array they come from does, even when every row is one
    # buffer overwritten in turn; a stream that ends early or runs past the
    # grid, or a row of the wrong stack, raises
    p = scalar_problem(lambda t, x: -x, lambda x, dW: dW, x0=0.2, domain_radius=1.0)
    grid = np.linspace(0.0, 0.2, 21)
    inc = 0.01 * derive_stream(43, "blocks").standard_normal((3, 20, 1))
    inc[1, 9] = 2.0
    ref, ref_exit = stack_paths(p, "heun", grid, inc)
    assert ref_exit.tolist() == [-1, 10, -1]
    pulled = []

    def reused():
        buf = np.empty((3, 1))
        for i in range(20):
            buf[:] = inc[:, i]
            pulled.append(i)
            yield buf

    rows = [x.copy() for x, _ in sde.step_paths(p, "heun", grid, reused())]
    assert np.array_equal(np.stack(rows, axis=1), ref)

    # rows are pulled as the steps need them: a consumer that stops at grid
    # time i has pulled max(i, 1) rows
    for stop in (0, 1, 7, 20):
        pulled.clear()
        for i, (x, _) in enumerate(sde.step_paths(p, "heun", grid, reused())):
            if i == stop:
                break
        assert np.array_equal(x, ref[:, stop]) and len(pulled) == max(stop, 1)
    rows = list(inc.swapaxes(0, 1))
    for bad in (rows[:19], rows + rows[:1], rows[:7] + [inc[:2, 7]] + rows[8:], []):
        with pytest.raises(ValueError, match="does not match the time grid"):
            for _ in sde.step_paths(p, "heun", grid, iter(bad)):
                pass


@pytest.mark.parametrize("scheme, placements", [("heun", 2), ("euler-maruyama", 1)],
                         ids=["heun", "euler-maruyama"])
def test_eulerian_noise_is_placed_as_the_formula_says(scheme, placements):
    # Heun places the Eulerian noise twice per step and Euler-Maruyama once,
    # as bench/spans.py's NOISE_APPLICATIONS charges; the noise is additive,
    # so a step whose second placement is the first one has the same bits
    spec = build_spectrum(6, 3.0, 0.5)
    problem = eu.make_eulerian_problem(sp.taylor_green(6, 0.5), spec, alpha=0.3)
    calls = []

    def counted(q, dW):
        calls.append(1)
        return problem.diffusion(q, dW)

    dW = np.stack([sample_coefficients(spec, 0.01, 1, derive_stream(37, k, "once"))[0]
                   for k in range(3)])
    x = np.stack([problem.x0] * 3)
    step = sde._STEPPERS[scheme](replace(problem, diffusion=counted), 0.0, x, dW, 0.01)
    assert len(calls) == placements
    first = problem.diffusion(x, dW)
    once = sde._STEPPERS[scheme](replace(problem, diffusion=lambda q, dW: first),
                                 0.0, x, dW, 0.01)
    assert np.array_equal(step, once)


def test_problem_dim_is_read_from_x0():
    # the real degrees of freedom of a state: a complex entry counts twice
    assert scalar_problem(lambda t, x: -x, lambda x, dW: dW).dim == 1
    spec = build_spectrum(3, 2.0, 0.5)
    assert eu.make_eulerian_problem(sp.taylor_green(3), spec).dim == 2 * 7 * 7


def test_increments_must_match_grid():
    # 9 or 11 rows for 10 steps, or rows that are not (K, m) stacks
    p = scalar_problem(lambda t, x: -x, lambda x, dW: dW)
    for bad in (np.zeros((9, 1, 1)), np.zeros((11, 1, 1)), np.zeros((10, 1))):
        with pytest.raises(ValueError, match="does not match the time grid"):
            for _ in sde.step_paths(p, "heun", np.linspace(0, 1, 11), bad):
                pass


# ---------------------------------------------------------------------------
# determinism and refinement machinery

def test_solve_path_deterministic():
    p = scalar_problem(lambda t, x: -x, lambda x, dW: dW)
    grid = np.linspace(0.0, 1.0, 65)
    a, b = (stack_paths(p, "heun", grid,
                        sde.sample_increments(p, grid, derive_stream(3, "det"), 2))[0]
            for _ in range(2))
    assert np.array_equal(a, b)


def test_coarsen_increments_sums_blocks():
    inc = np.arange(12.0).reshape(6, 2)
    out = sde.coarsen_increments(inc, 3)
    assert out.shape == (2, 2)
    assert np.array_equal(out[0], inc[:3].sum(axis=0))
    with pytest.raises(ValueError):
        sde.coarsen_increments(inc, 4)
    # leading path axes are kept
    stack = np.stack([inc, -inc])
    assert np.array_equal(sde.coarsen_increments(stack, 3), np.stack([out, -out]))


def test_sample_increments_path_major():
    # n_paths rows drawn at once are the rows of n_paths draws in turn
    p = scalar_problem(lambda t, x: -x, lambda x, dW: dW, variances=(1.0, 4.0))
    grid = np.linspace(0.0, 1.0, 9)
    rng = derive_stream(5, "major")
    one = [sde.sample_increments(p, grid, rng, 1)[0] for _ in range(3)]
    assert np.array_equal(sde.sample_increments(p, grid, derive_stream(5, "major"), 3),
                          np.stack(one))


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
