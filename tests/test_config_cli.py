"""Tests for config parsing, RNG stream derivation, the experiment
driver, and the command-line entry point."""

import json

import numpy as np
import pytest

from stoflow.cli import main
from stoflow.config import ConfigError, ExperimentConfig, parse_config_text
from stoflow.experiments import run_experiment
from stoflow.qwiener import build_spectrum
from stoflow.streams import derive_stream


# ---------------------------------------------------------------------------
# config parsing

def test_minimal_config_fills_defaults():
    cfg = parse_config_text("kind = isometry\n")
    assert cfg.kind == "isometry"
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
    cfg = parse_config_text("# a comment\n\nkind = isometry  # trailing\n")
    assert cfg.kind == "isometry"


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


def test_rerun_is_byte_identical(tmp_path):
    cfg = base_cfg(c=0.5, ensemble=3)
    run_experiment(cfg, out_dir=tmp_path / "a")
    run_experiment(cfg, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "diagnostics.csv").read_bytes() == \
        (tmp_path / "b" / "diagnostics.csv").read_bytes()


def test_thread_count_does_not_change_output(tmp_path):
    cfg = base_cfg(kind="energy-growth", init_kind="zero", c=0.5, ensemble=8)
    run_experiment(cfg, out_dir=tmp_path / "t1", threads=1)
    run_experiment(cfg, out_dir=tmp_path / "t8", threads=8)
    for name in ("energy.csv", "energy_summary.csv"):
        assert (tmp_path / "t1" / name).read_bytes() == \
            (tmp_path / "t8" / name).read_bytes()


def test_isometry_experiment(tmp_path):
    cfg = ExperimentConfig(kind="isometry", n=3, gamma=2.0, c=1.0,
                           seed=11, ensemble=10_000)
    man = run_experiment(cfg, out_dir=tmp_path)
    assert man.acceptance["ito_isometry"]
    assert man.acceptance["mode_variances"]
    assert man.acceptance["cross_covariances"]
    body = (tmp_path / "isometry.csv").read_text()
    assert "ito_isometry_z" in body and "trace_q" in body


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


def test_cli_kind_mismatch_is_operational_error(tmp_path, capsys):
    path = write_cfg(tmp_path, "kind = isometry\n")
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


def test_cli_negative_seed_names_the_key(tmp_path, capsys):
    path = write_cfg(tmp_path, "kind = isometry\n")
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
    path = write_cfg(tmp_path, "kind = isometry\n")
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


def test_cli_env_var_default_out(tmp_path, monkeypatch):
    path = write_cfg(tmp_path, "kind = simulate-euler\ngrid.n = 4\n"
                               "time.horizon = 0.05\nensemble.size = 1\n")
    target = tmp_path / "from_env"
    monkeypatch.setenv("STOFLOW_OUT", str(target))
    assert main(["simulate-euler", "--config", path]) == 0
    assert (target / "manifest.json").exists()
