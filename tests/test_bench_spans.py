"""The bench tracer (bench/spans.py, loaded as the bench loads it and
unedited) still sees the particle path of an `equivalence` run, and the
exact counts the bench compares across thread counts agree."""

import importlib.util
import os
from pathlib import Path

import pytest

from stoflow import experiments
from stoflow import spectral as sp
from stoflow.config import ExperimentConfig
from stoflow.experiments import run_experiment
from stoflow.qwiener import build_spectrum

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


@pytest.mark.parametrize("cfg", [
    ExperimentConfig(kind="equivalence", n=4, dt=0.05, horizon=0.1, gamma=3.0, c=0.5,
                     init_kind="taylor-green", eq_levels=1, eq_particles=3, seed=5),
    ExperimentConfig(kind="simulate-averaged", n=8, dt=0.01, horizon=0.04, gamma=3.0,
                     c=0.5, alpha=0.3, init_kind="random", scheme="heun", ensemble=6,
                     seed=5),
], ids=["equivalence", "simulate-averaged"])
def test_traced_exact_counts_do_not_depend_on_threads(tmp_path, monkeypatch, cfg):
    # the bench's traced run checks that the exact counts of its
    # threads=nproc call equal those of its threads=1 calls; spans of a
    # forked child are lost, so a kind must step every stack the counts
    # charge in this process: equivalence forks nothing, and an ensemble
    # whose ranges are one chunk each steps the same stacks in this process
    # at either thread count
    spans = _load_spans()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    chunk = experiments._CHUNK_BYTES // (4 * sp._dealias_grid_size(cfg.n) ** 2 * 8)
    assert cfg.ensemble <= chunk  # one chunk per range at either thread count
    nsteps = round(cfg.horizon / cfg.dt)
    if cfg.kind == "equivalence":
        steps = sum(nsteps * 2**lvl for lvl in range(cfg.eq_levels + 1))
        particle_steps = cfg.eq_particles**2 * steps
    else:
        steps, particle_steps = nsteps, 0
    M = 2 * cfg.n + 1
    sigma_bytes = (steps * spans.NOISE_APPLICATIONS[cfg.scheme] * 2 * M * M
                   * build_spectrum(cfg.n, cfg.gamma, cfg.c).n_modes * 8)
    expected = {"steps": steps, "sigma_bytes_computed": sigma_bytes,
                "particle_steps": particle_steps}
    for threads in (1, 2):
        tracer = spans.Tracer(f"t{threads}")
        tracer.install()
        try:
            run_experiment(cfg, out_dir=tmp_path / str(threads), threads=threads)
        finally:
            tracer.restore()
        counters = spans.aggregate(tracer.spans)["counters"]
        assert {k: counters.get(k, 0) for k in expected} == expected, threads
