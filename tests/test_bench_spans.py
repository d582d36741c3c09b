"""The bench tracer (bench/spans.py, loaded as the bench loads it and
unedited) still sees the particle path of an `equivalence` run."""

import importlib.util
from pathlib import Path

from stoflow.config import ExperimentConfig
from stoflow.experiments import run_experiment

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_sees_particle_path(tmp_path):
    spans = _load_spans()
    cfg = ExperimentConfig(kind="equivalence", n=4, dt=0.05, horizon=0.1,
                           gamma=3.0, c=0.5, init_kind="taylor-green",
                           eq_levels=1, eq_particles=3, seed=5)
    tracer = spans.Tracer("test")
    tracer.install()
    try:
        run_experiment(cfg, out_dir=tmp_path, threads=1)
    finally:
        tracer.restore()
    assert tracer.still_wrapped() == []
    agg = spans.aggregate(tracer.spans)
    nsteps = sum(round(cfg.horizon * 2**lvl / cfg.dt) for lvl in range(cfg.eq_levels + 1))
    assert agg["counters"]["particle_steps"] == cfg.eq_particles**2 * nsteps
    assert agg["groups"]["lagrangian.advect"]["calls"] == nsteps
    # one spray block per level: its drift call covers the level's grid times
    assert agg["groups"]["eulerian.drift"]["calls"] == cfg.eq_levels + 1
