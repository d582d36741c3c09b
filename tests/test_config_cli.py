"""Tests for config parsing, RNG stream derivation, the experiment
driver, and the command-line entry point."""

import json
import os
import time
import warnings

import numpy as np
import pytest

from stoflow import experiments
from stoflow.cli import main
from stoflow.config import ConfigError, ExperimentConfig, parse_config_text
from stoflow.experiments import run_experiment
from stoflow.qwiener import build_spectrum, sample_coefficients
from stoflow.streams import derive_stream


# ---------------------------------------------------------------------------
# config parsing

def test_minimal_config_fills_defaults():
    cfg = parse_config_text("kind = convergence\n")
    assert cfg.kind == "convergence"
    assert cfg.n == 8
    assert cfg.dt == 0.01
    assert cfg.scheme == "heun"
    assert cfg.seed == 12345


def test_full_round_trip():
    text = ("kind = energy-growth\ngrid.n = 6\ntime.dt = 0.02\n"
            "time.horizon = 0.4\nnoise.gamma = 2.5\nnoise.c = 0.7\n"
            "noise.s_prime = 1\nalpha = 0.0\ninit.kind = zero\n"
            "scheme = euler-maruyama\nseed = 99\nensemble.size = 12\n")
    cfg = parse_config_text(text)
    again = parse_config_text(cfg.to_text())
    assert again == cfg
    assert again.content_hash() == cfg.content_hash()


@pytest.mark.parametrize("key,value", [
    ("time.dt", "-1"),
    ("time.dt", "nan"),
    ("time.horizon", "inf"),
    ("noise.gamma", "nan"),
    ("time.dt", "0.03"),  # 0.5 / 0.03 steps miss the default horizon
    ("seed", "-3"),
    ("init.seed", "-1"),
])
def test_negative_dt_names_the_key(key, value):
    with pytest.raises(ConfigError, match=key):
        parse_config_text(f"kind = isometry\n{key} = {value}\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="wibble"):
        parse_config_text("kind = isometry\nwibble = 3\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("kind = isometry\nseed = 1\nseed = 2\n")


def test_type_mismatch_reports_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("kind = isometry\ngrid.n = three\n")


def test_missing_kind_rejected():
    with pytest.raises(ConfigError, match="kind"):
        parse_config_text("seed = 1\n")


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("kind = frobnicate\n")


def test_comments_and_blank_lines_ignored():
    cfg = parse_config_text("# a comment\n\nkind = convergence  # trailing\n")
    assert cfg.kind == "convergence"


# ---------------------------------------------------------------------------
# stream derivation

def test_streams_reproducible_and_distinct():
    a = derive_stream(42, 0, "noise").standard_normal(8)
    b = derive_stream(42, 0, "noise").standard_normal(8)
    c = derive_stream(42, 1, "noise").standard_normal(8)
    d = derive_stream(43, 0, "noise").standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# ---------------------------------------------------------------------------
# experiment driver

def base_cfg(**kw):
    cfg = ExperimentConfig(kind="simulate-euler", n=6, dt=0.01, horizon=0.1,
                           gamma=3.0, c=0.0, init_kind="taylor-green",
                           seed=7, ensemble=2)
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


def test_simulate_writes_artifacts(tmp_path):
    man = run_experiment(base_cfg(), out_dir=tmp_path)
    assert man.all_passed
    assert (tmp_path / "diagnostics.csv").exists()
    assert (tmp_path / "config.txt").exists()
    meta = json.loads((tmp_path / "manifest.json").read_text())
    assert meta["kind"] == "simulate-euler"
    assert meta["acceptance"]["taylor_green_steady"]
    assert meta["acceptance"]["divergence_free"]
    assert meta["config_hash"] == base_cfg().content_hash()
    assert meta["seeds"] == ["7:0:noise", "7:1:noise"]
    header = (tmp_path / "diagnostics.csv").read_text().splitlines()[0]
    assert header == "traj,step,t,energy,enstrophy,hs_norm,div_residual"


@pytest.mark.parametrize("kw, seeds", [
    (dict(kind="equivalence", eq_levels=1, eq_particles=3), ["7:equivalence"]),
    (dict(kind="isometry", n=2, c=1.0), ["7:isometry"]),
    (dict(kind="convergence"), ["7:convergence"]),
    (dict(init_kind="random", init_seed=3), ["3:init", "7:0:noise", "7:1:noise"]),
], ids=["equivalence", "isometry", "convergence", "random-init"])
def test_manifest_lists_streams_drawn(tmp_path, kw, seeds):
    run_experiment(base_cfg(**kw), out_dir=tmp_path)
    assert json.loads((tmp_path / "manifest.json").read_text())["seeds"] == seeds


@pytest.mark.parametrize("init", ["taylor-green", "random"])
@pytest.mark.parametrize("kind", sorted(experiments._RUNNERS))
def test_manifest_seeds_are_the_streams_drawn(tmp_path, monkeypatch, kind, init):
    # every stream a run derives, in draw order, is one label of `seeds`: a
    # stream a runner starts to draw fails here until _drawn_streams names it
    drawn = []

    def derive(seed, *keys):
        drawn.append(":".join(str(k) for k in (seed, *keys)))
        return derive_stream(seed, *keys)

    monkeypatch.setattr(experiments, "derive_stream", derive)
    kw = {"isometry": dict(n=2, c=1.0),
          "equivalence": dict(eq_levels=1, eq_particles=3)}.get(kind, {})
    cfg = base_cfg(kind=kind, init_kind=init, init_seed=3, **kw)
    assert run_experiment(cfg, out_dir=tmp_path, threads=1).seeds == drawn


@pytest.mark.parametrize("gamma, verdict", [(3.0, False), (3.5, True)])
def test_manifest_reports_noise_verdict(tmp_path, gamma, verdict):
    # s' = 2: the H^s' budget converges as N -> infinity iff 2 gamma - 4 > 2
    cfg = base_cfg(kind="isometry", n=2, c=1.0, gamma=gamma, s_prime=2)
    run_experiment(cfg, out_dir=tmp_path / "iso")
    spec = build_spectrum(2, gamma, 1.0, 2)
    assert json.loads((tmp_path / "iso" / "manifest.json").read_text())["noise"] == {
        "trace_q": spec.trace, "regularity_budget": spec.regularity_budget(),
        "converges_in_limit": verdict}
    run_experiment(base_cfg(kind="convergence"), out_dir=tmp_path / "conv")
    assert json.loads((tmp_path / "conv" / "manifest.json").read_text())["noise"] is None


def test_manifest_reports_exits(tmp_path):
    # a ball of radius 1 about zero data: some of the four paths leave it
    # before the horizon, and each stops at its exit time
    kw = dict(init_kind="zero", c=0.5, horizon=0.2, ensemble=4, radius_factor=1.0)
    run_experiment(base_cfg(**kw), out_dir=tmp_path / "sim")
    rows = np.loadtxt(tmp_path / "sim" / "diagnostics.csv", delimiter=",", skiprows=1)
    last_t = [rows[rows[:, 0] == i, 2][-1] for i in range(4)]
    exit_times = [t for t in last_t if t < 0.2 - 1e-12]
    assert 0 < len(exit_times) < 4
    expected = {"count": len(exit_times), "min_time": min(exit_times),
                "mean_time": float(np.mean(exit_times))}
    assert json.loads((tmp_path / "sim" / "manifest.json").read_text())["exits"] == expected
    # energy-growth draws the same per-trajectory streams
    run_experiment(base_cfg(kind="energy-growth", **kw), out_dir=tmp_path / "eg")
    assert json.loads((tmp_path / "eg" / "manifest.json").read_text())["exits"] == expected
    run_experiment(base_cfg(), out_dir=tmp_path / "none")
    assert json.loads((tmp_path / "none" / "manifest.json").read_text())["exits"] == {
        "count": 0, "min_time": None, "mean_time": None}
    run_experiment(base_cfg(kind="isometry", n=2, c=1.0), out_dir=tmp_path / "iso")
    assert json.loads((tmp_path / "iso" / "manifest.json").read_text())["exits"] is None


def test_chunk_size_does_not_change_output(tmp_path, monkeypatch):
    # some of the six paths leave the ball and some do not; one path per
    # chunk gives the same bytes and exits as the default chunks.  The
    # simulate-averaged case steps all six paths as one stack at N = 16,
    # whose live stack shrinks to 5, 3, 2 and 1 paths (exits at 0.06, 0.07,
    # 0.08 and 0.09), so the drift's reused kernel buffers see five sizes
    cases = {"energy-growth": (("energy.csv", "energy_summary.csv"),
                               base_cfg(kind="energy-growth", init_kind="zero", c=0.5,
                                        horizon=0.2, ensemble=6, radius_factor=1.0)),
             "simulate-averaged": (("diagnostics.csv",),
                                   base_cfg(kind="simulate-averaged", n=16, alpha=0.3,
                                            init_kind="zero", c=2.7, ensemble=6,
                                            radius_factor=1.0))}
    for kind, (_, cfg) in cases.items():
        run_experiment(cfg, out_dir=tmp_path / kind / "default")
    monkeypatch.setattr(experiments, "_CHUNK_BYTES", 1)
    for kind, (names, cfg) in cases.items():
        run_experiment(cfg, out_dir=tmp_path / kind / "one")
        exits = [json.loads((tmp_path / kind / d / "manifest.json").read_text())["exits"]
                 for d in ("default", "one")]
        assert 0 < exits[0]["count"] < 6
        assert exits[1] == exits[0]
        for name in names:
            assert (tmp_path / kind / "one" / name).read_bytes() == \
                (tmp_path / kind / "default" / name).read_bytes()


def test_noise_blocks_are_sample_coefficients_rows():
    # a chunk's noise, drawn one grid step at a time, is each path's
    # sample_coefficients draw from its own stream bit for bit
    cfg = base_cfg(c=0.5, horizon=0.13, seed=19)
    spec = build_spectrum(cfg.n, cfg.gamma, cfg.c)
    paths = range(2, 5)
    blocks = [b.copy() for b in experiments._increments(cfg, spec, 13, paths)]
    assert [b.shape for b in blocks] == [(3, 1, spec.n_modes)] * 13
    ref = np.stack([sample_coefficients(spec, cfg.dt, 13, derive_stream(19, i, "noise"))
                    for i in paths])
    assert np.array_equal(np.concatenate(blocks, axis=1), ref)


def test_rerun_is_byte_identical(tmp_path):
    cfg = base_cfg(c=0.5, ensemble=3)
    run_experiment(cfg, out_dir=tmp_path / "a")
    run_experiment(cfg, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "diagnostics.csv").read_bytes() == \
        (tmp_path / "b" / "diagnostics.csv").read_bytes()


def test_thread_count_does_not_change_output(tmp_path, monkeypatch):
    # the paths are split into contiguous ranges, one worker process each,
    # and merged in index order: the CSV bytes, exits and checks are those
    # of one process at every thread count, for an uneven split (5 paths
    # over 2 and 3 workers), paths that leave the ball, a steady run and
    # more threads than paths.  Four usable CPUs are claimed, so that
    # threads = 3 means three workers on any host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    cases = {"averaged-5": base_cfg(kind="simulate-averaged", alpha=0.3, c=0.5,
                                    init_kind="random", ensemble=5),
             "energy-exits": base_cfg(kind="energy-growth", init_kind="zero", c=0.5,
                                      horizon=0.2, ensemble=6, radius_factor=1.0),
             "steady-2": base_cfg(),
             "energy-8": base_cfg(kind="energy-growth", init_kind="zero", c=0.5, ensemble=8)}
    for name, cfg in cases.items():
        runs = []
        for threads in (1, 2, 3):
            out = tmp_path / name / str(threads)
            man = run_experiment(cfg, out_dir=out, threads=threads)
            meta = json.loads((out / "manifest.json").read_text())
            assert meta["workers"] == man.workers == min(threads, cfg.ensemble)
            runs.append(({p.name: p.read_bytes() for p in out.glob("*.csv")},
                         meta["exits"], meta["acceptance"]))
        assert runs[1] == runs[0] and runs[2] == runs[0], name
        if name == "energy-exits":
            assert 0 < runs[0][1]["count"] < 6


@pytest.mark.parametrize("kw", [
    dict(init_kind="random", init_seed=4, c=0.5, scheme="heun", ensemble=40),
    dict(init_kind="zero", c=2.0, radius_factor=1.0, scheme="euler-maruyama", ensemble=4,
         horizon=0.2, seed=3),
    dict(init_kind="taylor-green", c=0.5, scheme="euler-maruyama", ensemble=35),
], ids=["random-heun-40", "exits-4", "taylor-green-em-35"])
def test_ensemble_kinds_step_the_same_paths(tmp_path, monkeypatch, kw):
    # simulate-euler and energy-growth step path i of one config alike: its
    # terminal energy is, as written, the last energy row of its diagnostics
    # (its exit row when it left the ball), at one and two worker processes
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = base_cfg(n=6, **kw)
    for threads in (1, 2):
        out = tmp_path / str(threads)
        run_experiment(cfg, out_dir=out / "sim", threads=threads)
        cfg.kind = "energy-growth"
        run_experiment(cfg, out_dir=out / "energy", threads=threads)
        cfg.kind = "simulate-euler"
        last = {}
        for line in (out / "sim" / "diagnostics.csv").read_text().splitlines()[1:]:
            traj, _, _, energy = line.split(",")[:4]
            last[traj] = energy
        terminal = dict(line.split(",") for line in
                        (out / "energy" / "energy.csv").read_text().splitlines()[1:])
        assert len(terminal) == cfg.ensemble
        assert terminal == last, threads


def test_one_thread_never_forks(tmp_path, monkeypatch):
    # threads = 1 steps every range in this process, and equivalence runs
    # in this process whatever the thread count
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    for kind in ("simulate-averaged", "energy-growth"):
        cfg = base_cfg(kind=kind, init_kind="zero", c=0.5, ensemble=3)
        assert run_experiment(cfg, out_dir=tmp_path / kind, threads=1).workers == 1
    cfg = base_cfg(kind="equivalence", c=0.5, eq_levels=1, eq_particles=3)
    assert run_experiment(cfg, out_dir=tmp_path / "eq", threads=4).workers == 1


def test_worker_ranges_in_order_and_failures():
    # W contiguous ranges, sizes differing by at most one, results in index
    # order; the lowest failing range's exception is raised; a failure in
    # this process's own range kills the children at once; a child that
    # ends without a result is an error.  The autouse fixture checks that
    # no child is left behind
    assert experiments._over_ranges(7, 3, list) == [[0, 1], [2, 3], [4, 5, 6]]
    assert experiments._over_ranges(2, 1, list) == [[0, 1]]

    def fail_from_2(paths):
        if paths.start >= 2:
            raise ValueError(f"range from {paths.start}")
        return paths.start

    with pytest.raises(ValueError, match="range from 2"):
        experiments._over_ranges(6, 3, fail_from_2)

    def first_fails_others_hang(paths):
        if paths.start == 0:
            raise KeyError("first")
        time.sleep(60)

    t0 = time.perf_counter()
    with pytest.raises(KeyError, match="first"):
        experiments._over_ranges(6, 3, first_fails_others_hang)
    assert time.perf_counter() - t0 < 30

    def child_dies(paths):
        if paths.start:
            os._exit(3)
        return 0

    with pytest.raises(ChildProcessError, match="without a result"):
        experiments._over_ranges(4, 2, child_dies)


def test_isometry_experiment(tmp_path):
    cfg = ExperimentConfig(kind="isometry", n=3, gamma=2.0, c=1.0,
                           seed=11, ensemble=10_000)
    man = run_experiment(cfg, out_dir=tmp_path)
    assert man.acceptance["ito_isometry"]
    assert man.acceptance["mode_variances"]
    assert man.acceptance["cross_covariances"]
    body = (tmp_path / "isometry.csv").read_text()
    assert "ito_isometry_z" in body and "trace_q" in body


def csv_rows(path):
    """The data rows of a CSV the lab wrote, each a list of strings."""
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


@pytest.mark.parametrize("kind, kw", [
    ("isometry", dict(n=4, gamma=2.0, c=1.0, seed=20240601, ensemble=10_000)),
    ("convergence", dict()),
    ("equivalence", dict(n=6, dt=0.02, horizon=0.08, c=0.5, eq_levels=2, eq_particles=4)),
    ("equivalence", dict(n=6, dt=0.005, horizon=0.08, c=0.0, eq_levels=1, eq_particles=4)),
], ids=["isometry", "convergence", "equivalence", "equivalence-deterministic"])
def test_verdicts_agree_with_csv_statistics(tmp_path, kind, kw):
    # each acceptance entry is its CSV statistic compared against its bound
    man = run_experiment(ExperimentConfig(kind=kind, **kw), out_dir=tmp_path)
    if kind == "isometry":
        value = {q: float(v) for q, v in csv_rows(tmp_path / "isometry.csv")}
        verdicts = {check: abs(value[q]) < 4.0 for check, q in (
            ("ito_isometry", "ito_isometry_z"), ("mode_variances", "max_mode_variance_z"),
            ("cross_covariances", "max_cross_covariance_z"), ("zero_mean", "max_mean_z"))}
    elif kind == "convergence":
        verdicts = {}
        for name, order, lo, hi, ok in csv_rows(tmp_path / "convergence.csv"):
            verdicts[name] = float(lo) <= float(order) <= float(hi)
            assert int(ok) == verdicts[name]
    else:
        _, dts, residuals = np.array(csv_rows(tmp_path / "equivalence.csv"), dtype=float).T
        (slope,), = csv_rows(tmp_path / "equivalence_summary.csv")
        if kw["c"] == 0.0:
            assert slope == "nan"
            verdicts = {"deterministic_residual": residuals[-1] < 1e-6}
        else:
            assert float(slope) == np.polyfit(np.log(dts), np.log(residuals), 1)[0]
            verdicts = {"residual_decay_slope": 0.6 <= float(slope) <= 1.4}
    assert man.acceptance == verdicts


def test_equivalence_experiment_deterministic(tmp_path):
    cfg = ExperimentConfig(kind="equivalence", n=6, dt=0.005, horizon=0.08,
                           c=0.0, eq_levels=1, eq_particles=4, seed=5)
    man = run_experiment(cfg, out_dir=tmp_path)
    assert man.acceptance["deterministic_residual"]


# ---------------------------------------------------------------------------
# CLI

def write_cfg(tmp_path, text):
    p = tmp_path / "exp.cfg"
    p.write_text(text)
    return str(p)


def test_cli_pass_exit_zero(tmp_path, capsys):
    path = write_cfg(tmp_path, "kind = isometry\ngrid.n = 2\nnoise.c = 1.0\n"
                               "noise.gamma = 2.0\nensemble.size = 10000\n")
    code = main(["isometry", "--config", path, "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] ito_isometry" in out


def test_cli_zero_amplitude_taylor_green_is_steady(tmp_path, capsys):
    # a zero field is steady; its drift is judged in absolute terms
    path = write_cfg(tmp_path, "kind = simulate-euler\ngrid.n = 4\ntime.horizon = 0.05\n"
                               "init.kind = taylor-green\ninit.amplitude = 0.0\n"
                               "noise.c = 0\n")
    code = main(["simulate-euler", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 0
    assert "[PASS] taylor_green_steady" in capsys.readouterr().out


def test_cli_energy_growth_single_path_exit_one(tmp_path, capsys):
    # one path has no standard error, so the slope check could not fail
    with pytest.raises(ConfigError, match="ensemble.size"):
        parse_config_text("kind = energy-growth\nensemble.size = 1\n")
    path = write_cfg(tmp_path, "kind = energy-growth\nnoise.c = 0.5\nensemble.size = 1\n")
    assert main(["energy-growth", "--config", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "ensemble.size" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("kind", ["simulate-euler", "equivalence", "convergence",
                                  "isometry", "energy-growth"])
def test_cli_alpha_rejected_where_unused(tmp_path, capsys, kind):
    # only simulate-averaged reads alpha; elsewhere a nonzero alpha would
    # silently run plain Euler, so it is a config error naming key and kind
    text = f"kind = {kind}\nnoise.c = 0.5\nensemble.size = 2\n"
    with pytest.raises(ConfigError, match=f"alpha.*{kind}"):
        parse_config_text(text + "alpha = 0.3\n")
    path = write_cfg(tmp_path, text + "alpha = 0.3\n")
    assert main([kind, "--config", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "alpha" in err and kind in err
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()
    assert parse_config_text(text + "alpha = 0.0\n").alpha == 0.0
    assert parse_config_text("kind = simulate-averaged\nalpha = 0.3\n").alpha == 0.3


@pytest.mark.parametrize("n, gamma, zeros", [(4, 1200.0, 80), (8, 160.0, 12)])
def test_cli_isometry_underflowed_spectrum_exit_one(tmp_path, capsys, n, gamma, zeros):
    # mode variances that underflow to 0 leave z-scores nan: like noise.c = 0
    # the spectrum cannot be judged, so it is one error line, not [FAIL]s
    spec = build_spectrum(n, gamma, 0.5)
    assert np.count_nonzero(spec.mode_variances == 0) == zeros
    path = write_cfg(tmp_path, f"kind = isometry\ngrid.n = {n}\nnoise.c = 0.5\n"
                               f"noise.gamma = {gamma}\n")
    assert main(["isometry", "--config", path, "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("lab: error: ")
    assert "noise.gamma" in captured.err and "grid.n" in captured.err
    assert captured.err.count("\n") == 1
    assert "[FAIL]" not in captured.out
    assert not (tmp_path / "o").exists()


# an H^2 norm that overflows while q stays finite: not an exit from the ball
OVERFLOW = ("grid.n = 4\nnoise.c = 1e160\nlocalization.radius_factor = 1e300\n"
            "init.kind = zero\ntime.horizon = 0.05\ntime.dt = 0.01\n"
            "scheme = euler-maruyama\nseed = 1\n")
ABORT = "lab: numeric abort: non-finite state at step 1, t=0.02\n"
# an H^2 budget of the noise that overflows at c > 0: no manifest can hold it
BUDGET = "ensemble.size = 2\ntime.horizon = 0.02\nnoise.s_prime = 200\nnoise.c = 0.5\n"
BUDGET_ERROR = ("lab: error: noise.s_prime = 200, noise.gamma = 3, noise.c = 0.5 and "
                "grid.n = 8 give a regularity budget inf; the manifest needs it finite\n")
# a field whose H^2 norm is inf before the first step
HUGE_FIELD = "grid.n = 4\nensemble.size = 2\ntime.horizon = 0.02\ninit.amplitude = 1e200\n"
HUGE_FIELD_ABORT = ("lab: numeric abort: non-finite initial state: the initial field's "
                    "H^2 norm is inf\n")
ISOMETRY_SE = ("lab: error: noise.gamma = 3, noise.c = {} and grid.n = 2 give a "
               "standard error {} of |W(1)|^2")


@pytest.mark.parametrize("kind, text, threads, head", [
    ("isometry", "grid.n = 4\nnoise.gamma = 1200\nnoise.c = 0.5\n", "1", "lab: error: "),
    ("simulate-euler", "init.kind = single-mode\ninit.kx = 9\n", "1", "lab: error: "),
    ("equivalence", "grid.n = 6\nnoise.c = 2.0\nlocalization.radius_factor = 1.0\n"
                    "time.horizon = 0.2\ntime.dt = 0.05\nequivalence.levels = 1\n",
     "1", "lab: error: "),
    ("isometry", "grid.n = 2\nnoise.gamma = 3\nnoise.c = 1e160\n", "1",
     ISOMETRY_SE.format("1e+160", "inf")),
    ("isometry", "grid.n = 2\nnoise.gamma = 3\nnoise.c = 1e-290\n", "1",
     ISOMETRY_SE.format("1e-290", "0")),
    ("simulate-euler", "ensemble.size = 2\n" + OVERFLOW, "1", ABORT),
    ("simulate-euler", "ensemble.size = 2\n" + OVERFLOW, "2", ABORT),
    ("energy-growth", "ensemble.size = 8\n" + OVERFLOW, "1", ABORT),
    ("energy-growth", "ensemble.size = 8\n" + OVERFLOW, "2", ABORT),
    ("simulate-euler", BUDGET, "1", BUDGET_ERROR),
    ("simulate-euler", BUDGET, "2", BUDGET_ERROR),
    ("simulate-euler", HUGE_FIELD, "1", HUGE_FIELD_ABORT),
    ("simulate-euler", HUGE_FIELD, "2", HUGE_FIELD_ABORT),
    ("simulate-euler", "noise.s_prime = 1" + "0" * 400 + "\n", "1",
     "lab: config error: noise.s_prime has 401 digits"),
], ids=["underflowed-spectrum", "mode-off-grid", "path-exit", "isometry-stderr-inf",
        "isometry-stderr-zero", "overflow-simulate-t1", "overflow-simulate-t2",
        "overflow-energy-t1", "overflow-energy-t2", "budget-overflow-t1",
        "budget-overflow-t2", "huge-field-t1", "huge-field-t2", "s-prime-past-float"])
def test_cli_runner_error_leaves_no_out_dir(tmp_path, capsys, monkeypatch, kind, text,
                                            threads, head):
    # the output directory is made once the runner has results, so an error
    # the runner raises leaves none behind, as a config error leaves none;
    # two usable CPUs, so that --threads 2 forks a worker on any host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    path = write_cfg(tmp_path, f"kind = {kind}\n{text}")
    assert main([kind, "--config", path, "--threads", threads,
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(head) and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("s_prime", ["200", "1" + "0" * 30], ids=["200", "1e30"])
def test_cli_regularity_budget_without_noise_is_zero(tmp_path, monkeypatch, s_prime):
    # at c = 0 no mode carries noise, so the budget is 0.0 however large s'
    # is, not 0 * inf = NaN, which is not JSON
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    path = write_cfg(tmp_path, "kind = simulate-euler\nensemble.size = 2\n"
                               f"time.horizon = 0.02\nnoise.s_prime = {s_prime}\n")
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert main(["simulate-euler", "--config", path, "--threads", threads,
                     "--out", str(out)]) == 0
        text = (out / "manifest.json").read_text()
        assert '"regularity_budget": 0.0,' in text
        assert json.loads(text)["noise"]["regularity_budget"] == 0.0


def test_manifest_json_refuses_nan_and_infinity():
    # NaN and Infinity are not JSON (RFC 8259), so no manifest may hold them
    for value in (float("nan"), float("inf")):
        manifest = experiments.RunManifest(
            config_hash="0", code_version="0", kind="isometry", seeds=[], wall_clock_s=0.0,
            acceptance={}, files=[], noise={"regularity_budget": value})
        with pytest.raises(ValueError, match="JSON"):
            manifest.to_json()


def test_cli_out_naming_a_file_is_an_io_error(tmp_path, capsys):
    # --out is made after the run, so a file in its place is reported then
    path = write_cfg(tmp_path, "kind = simulate-euler\ngrid.n = 4\n"
                               "time.horizon = 0.05\nensemble.size = 1\n")
    (tmp_path / "o").write_text("")
    assert main(["simulate-euler", "--config", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("lab: i/o error: ") and err.count("\n") == 1
    assert (tmp_path / "o").read_text() == ""


def test_cli_kind_mismatch_is_operational_error(tmp_path, capsys):
    path = write_cfg(tmp_path, "kind = isometry\nnoise.c = 1.0\n")
    code = main(["convergence", "--config", path])
    assert code == 1
    assert "does not match" in capsys.readouterr().err


def test_cli_bad_config_exit_one(tmp_path, capsys):
    path = write_cfg(tmp_path, "kind = isometry\nbogus = 1\n")
    assert main(["isometry", "--config", path]) == 1
    assert "bogus" in capsys.readouterr().err


def test_cli_non_finite_value_exit_one(tmp_path, capsys):
    path = write_cfg(tmp_path, "kind = energy-growth\ntime.horizon = inf\n")
    assert main(["energy-growth", "--config", path,
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "time.horizon" in err
    assert err.count("\n") == 1


def test_cli_alpha_whose_square_overflows_exit_one(tmp_path, capsys):
    # the Helmholtz multiplier needs a finite alpha^2: 1e160 is one line
    # naming alpha, not an OverflowError traceback; 1e150 is accepted
    text = "kind = simulate-averaged\ngrid.n = 4\nnoise.c = 0.5\n"
    path = write_cfg(tmp_path, text + "alpha = 1e160\n")
    assert main(["simulate-averaged", "--config", path,
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("lab: config error: alpha = 1e+160")
    assert err.count("\n") == 1
    assert parse_config_text(text + "alpha = 1e150\n").alpha == 1e150


def test_cli_config_not_utf8_exit_one(tmp_path, capsys):
    # a 0xff byte in a comment: one config-error line with its offset, not
    # a UnicodeDecodeError traceback
    path = tmp_path / "exp.cfg"
    path.write_bytes(b"kind = isometry\n# caf\xff\n")
    assert main(["isometry", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == f"lab: config error: {path}: not UTF-8 text (byte 0xff at offset 21)\n"


def test_cli_negative_seed_names_the_key(tmp_path, capsys):
    path = write_cfg(tmp_path, "kind = isometry\nnoise.c = 1.0\n")
    assert main(["isometry", "--config", path, "--seed", "-3",
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "seed" in err
    assert err.count("\n") == 1


def test_cli_dt_not_dividing_horizon_exit_one(tmp_path, capsys):
    path = write_cfg(tmp_path, "kind = energy-growth\ntime.dt = 0.03\n"
                               "time.horizon = 0.1\n")
    assert main(["energy-growth", "--config", path,
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "time.dt" in err and "time.horizon" in err
    assert err.count("\n") == 1


def test_cli_missing_file_exit_one(tmp_path, capsys):
    assert main(["isometry", "--config", str(tmp_path / "nope.cfg")]) == 1


def test_cli_seed_override_recorded(tmp_path):
    path = write_cfg(tmp_path, "kind = simulate-euler\ngrid.n = 4\n"
                               "time.horizon = 0.05\nensemble.size = 1\n")
    out = tmp_path / "run"
    code = main(["simulate-euler", "--config", path, "--seed", "777",
                 "--out", str(out)])
    assert code == 0
    meta = json.loads((out / "manifest.json").read_text())
    assert meta["seeds"] == ["777:0:noise"]


def test_cli_acceptance_failure_exit_two(tmp_path, capsys, monkeypatch):
    import stoflow.cli as cli
    from stoflow.experiments import RunManifest

    def fake_run(cfg, out_dir=None, threads=1):
        return RunManifest(config_hash="x", code_version="0", kind=cfg.kind,
                           seeds=[], wall_clock_s=0.0,
                           acceptance={"some_check": False}, files=[])

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    path = write_cfg(tmp_path, "kind = isometry\nnoise.c = 1.0\n")
    assert cli.main(["isometry", "--config", path]) == 2
    assert "[FAIL] some_check" in capsys.readouterr().out


def test_cli_domain_exit_is_operational_error(tmp_path, capsys):
    # initial state outside the localization ball aborts with exit 1
    path = write_cfg(tmp_path, "kind = simulate-euler\ngrid.n = 4\n"
                               "time.horizon = 0.05\nensemble.size = 1\n"
                               "localization.radius_factor = 0.001\n")
    assert main(["simulate-euler", "--config", path,
                 "--out", str(tmp_path / "o")]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    "noise.c = 500\n",
    "noise.c = 0.5\nlocalization.radius_factor = 1.0\n",
], ids=["strong-noise", "small-ball"])
def test_cli_equivalence_exit_is_operational_error(tmp_path, capsys, extra):
    # the particle flow needs the Eulerian path up to the horizon, so an
    # exit from the localization ball ends the run with one line
    path = write_cfg(tmp_path, "kind = equivalence\ngrid.n = 4\ntime.dt = 0.05\n"
                               "time.horizon = 0.25\nequivalence.levels = 1\n"
                               "equivalence.particles = 3\n" + extra)
    assert main(["equivalence", "--config", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "localization.radius_factor" in err and "t = " in err
    assert err.count("\n") == 1


def test_cli_out_of_memory_is_one_line(tmp_path, capsys):
    # 40 refinement levels ask for far more noise than any machine holds:
    # the allocation fails at once and the run ends with one line
    path = write_cfg(tmp_path, "kind = equivalence\nnoise.c = 0.5\n"
                               "equivalence.levels = 40\n")
    assert main(["equivalence", "--config", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("lab: out of memory: ")
    assert err.count("\n") == 1


def test_cli_huge_grid_is_one_line(tmp_path, capsys):
    # the noise lattice of grid.n = 10**12 is built as arrays, so the run
    # fails at its first allocation instead of growing a list of modes
    path = write_cfg(tmp_path, "kind = simulate-euler\ngrid.n = 1000000000000\n")
    assert main(["simulate-euler", "--config", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("lab: out of memory: ")
    assert err.count("\n") == 1


def test_cli_isometry_needs_noise(tmp_path, capsys):
    # the isometry z-scores divide by the noise variances: without noise
    # the run is a config error naming the key and the kind, not four FAILs
    for text in ("kind = isometry\n", "kind = isometry\nnoise.c = 0\n"):
        with pytest.raises(ConfigError, match="noise.c.*isometry"):
            parse_config_text(text)
        path = write_cfg(tmp_path, text)
        assert main(["isometry", "--config", path, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "noise.c" in err and "isometry" in err
        assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()
    # energy-growth reads z = 0 at c = 0 and stays valid
    assert parse_config_text("kind = energy-growth\nensemble.size = 2\n").c == 0.0


@pytest.mark.parametrize("extra, head", [
    ("noise.c = 1e300\n", "lab: numeric abort: non-finite state at step "),
    ("init.amplitude = 1e200\n", HUGE_FIELD_ABORT),
], ids=["huge-noise", "huge-field"])
def test_cli_numeric_abort_is_one_line(tmp_path, capsys, extra, head):
    # the overflow on the way to a non-finite state warns nothing: the
    # abort's line is all the run prints; a field out of range before any
    # step is named without one
    path = write_cfg(tmp_path, "kind = simulate-euler\ngrid.n = 4\nensemble.size = 2\n"
                               + extra)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate-euler", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith(head)
    assert err.count("\n") == 1


def test_cli_numeric_abort_in_a_worker_is_one_line(tmp_path, capsys, monkeypatch):
    # path 1 draws overflowing noise; at --threads 2 a forked worker steps
    # it, and its abort reaches the run as the same one line
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    draw = experiments._increments

    def increments(cfg, spec, nsteps, paths):
        for block in draw(cfg, spec, nsteps, paths):
            block[[i - paths.start for i in paths if i == 1]] *= 1e200
            yield block

    monkeypatch.setattr(experiments, "_increments", increments)
    path = write_cfg(tmp_path, "kind = simulate-euler\ngrid.n = 4\nensemble.size = 2\n"
                               "noise.c = 0.5\n")
    for threads in ("1", "2"):
        assert main(["simulate-euler", "--config", path, "--threads", threads,
                     "--out", str(tmp_path / threads)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("lab: numeric abort: non-finite state at step ")
        assert err.count("\n") == 1


@pytest.mark.parametrize("argv, named", [
    (["simulate-averaged", "--threads", "abc"], "--threads"),
    (["simulate-averaged", "--threads", "-3"], "--threads"),
    (["simulate-averaged", "--threads", "0"], "--threads"),
    (["simulate-averaged", "--seed", "abc"], "--seed"),
    (["bogus"], "bogus"),
    ([], "required"),
], ids=["threads-abc", "threads-negative", "threads-zero", "seed-abc", "unknown-kind",
        "no-arguments"])
def test_cli_usage_error_is_one_line_exit_one(tmp_path, capsys, argv, named):
    # argparse's own error is a usage block and exit 2, which is the status
    # of a failed acceptance check
    path = write_cfg(tmp_path, "kind = simulate-averaged\ngrid.n = 4\n")
    if argv:
        argv = argv + ["--config", path, "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("lab: usage error: ") and named in err
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_cli_help_exit_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "--threads" in capsys.readouterr().out


def test_cli_env_var_default_out(tmp_path, monkeypatch):
    path = write_cfg(tmp_path, "kind = simulate-euler\ngrid.n = 4\n"
                               "time.horizon = 0.05\nensemble.size = 1\n")
    target = tmp_path / "from_env"
    monkeypatch.setenv("STOFLOW_OUT", str(target))
    assert main(["simulate-euler", "--config", path]) == 0
    assert (target / "manifest.json").exists()


def test_cli_out_precedence(tmp_path, monkeypatch):
    # --out beats $STOFLOW_OUT, which beats output.dir of the config
    dirs = {k: tmp_path / k for k in ("config", "env", "flag")}
    path = write_cfg(tmp_path, "kind = simulate-euler\ngrid.n = 4\ntime.horizon = 0.05\n"
                               f"output.dir = {dirs['config']}\n")
    monkeypatch.delenv("STOFLOW_OUT", raising=False)
    runs = [("config", []), ("env", []), ("flag", ["--out", str(dirs["flag"])])]
    for i, (expected, extra) in enumerate(runs):
        if i == 1:
            monkeypatch.setenv("STOFLOW_OUT", str(dirs["env"]))
        assert main(["simulate-euler", "--config", path] + extra) == 0
        assert [k for k, d in dirs.items() if d.exists()] == [k for k, _ in runs[:i + 1]]
