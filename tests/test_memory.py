"""Working-set bounds: an ensemble holds one chunk of paths at a time and
none of their paths, only a block of their latest rows and of their noise,
and the particle path holds one grid time of particle values and a block of
Eulerian rows, so the traced allocation peak does not grow with the number
of chunks, nor with the number of grid times."""

import tracemalloc

from stoflow import eulerian, experiments, sde
from stoflow import lagrangian as lg
from stoflow import spectral as sp
from stoflow.config import ExperimentConfig
from stoflow.experiments import run_experiment
from stoflow.lagrangian import uniform_labels
from stoflow.qwiener import build_spectrum, sample_coefficients
from stoflow.streams import derive_stream


def traced_peak(fn) -> int:
    """Peak bytes allocated above the start while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ensemble_holds_one_chunk(tmp_path, monkeypatch):
    # one path per chunk: four chunks peak no higher than one, give or take
    # the CSV rows of the other three paths, well under half a chunk
    monkeypatch.setattr(experiments, "_CHUNK_BYTES", 1)
    N, dt, horizon = 16, 0.01, 0.2
    chunk = (int(round(horizon / dt)) + 1) * (2 * N + 1) ** 2 * 16  # q rows of one path

    def run(paths):
        cfg = ExperimentConfig(kind="simulate-euler", n=N, dt=dt, horizon=horizon,
                               c=0.5, seed=5, ensemble=paths)
        return lambda: run_experiment(cfg, out_dir=tmp_path / str(paths))

    run(1)()  # fill the per-N constant caches outside the traced runs
    one, four = traced_peak(run(1)), traced_peak(run(4))
    assert four - one < chunk / 2, (one, four, chunk)


def test_ensembles_never_collect_a_path(tmp_path, monkeypatch):
    # no module has a path collector: simulate, energy-growth and the
    # particle path of equivalence step their Eulerian paths through the one
    # step_paths call of eulerian._velocity_blocks, whose rows they reduce
    # as they come
    for mod in (sde, eulerian, lg, experiments):
        assert not {"solve_paths", "PathResult", "run_eulerian",
                    "EulerianPath", "_path_diagnostics"} & set(vars(mod))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return sde.step_paths(*args, **kwargs)

    monkeypatch.setattr(eulerian, "step_paths", counted)
    for i, kw in enumerate((dict(kind="simulate-euler", c=0.0, ensemble=2),
                            dict(kind="simulate-euler", c=0.5, ensemble=3),
                            dict(kind="energy-growth", c=0.5, ensemble=3),
                            dict(kind="equivalence", c=0.5, eq_levels=1,
                                 eq_particles=3))):
        calls.clear()
        cfg = ExperimentConfig(n=6, dt=0.01, horizon=0.1, seed=9, **kw)
        assert run_experiment(cfg, out_dir=tmp_path / str(i)).all_passed
        assert calls == ["heun"] * (2 if cfg.kind == "equivalence" else 1), calls


def test_ensemble_peak_does_not_grow_with_the_path(tmp_path):
    # one path at N = 16 from 20 to 80 steps: the noise is drawn one grid
    # step at a time, so the peak grows by far less than the 60 q rows a
    # collected path would keep, or the noise of the 60 steps
    N, dt = 16, 0.01
    M, n_modes = 2 * N + 1, build_spectrum(N, 3.0, 0.5).n_modes

    def run(nsteps):
        cfg = ExperimentConfig(kind="simulate-euler", n=N, dt=dt, horizon=nsteps * dt,
                               c=0.5, seed=5)
        return lambda: run_experiment(cfg, out_dir=tmp_path / str(nsteps))

    run(20)()  # fill the per-N constant caches outside the traced runs
    short, long = traced_peak(run(20)), traced_peak(run(80))
    increments, q_rows = 60 * n_modes * 8, 60 * M * M * 16
    assert long - short < q_rows / 4, (short, long, increments, q_rows)


def test_particle_path_peak_does_not_grow_with_the_path():
    # one path at N = 16, 2 x 2 labels, from 20 to 160 steps: the particles
    # read the Eulerian rows as they are stepped, so the peak grows by far
    # less than the 140 q rows a collected path would keep
    N, dt = 16, 0.005
    spec = build_spectrum(N, 3.0, 0.5)
    u0 = sp.taylor_green(N, 0.5)
    labels = uniform_labels(2)
    inc = sample_coefficients(spec, dt, 160, derive_stream(61, "rows"))

    def run(nsteps):
        return lambda: lg.run_equivalence(u0, spec, dt, labels=labels,
                                          increments=inc[:nsteps])

    run(20)()  # fill the per-N constant caches outside the traced runs
    short, long = traced_peak(run(20)), traced_peak(run(160))
    q_rows = 140 * (2 * N + 1) ** 2 * 16
    assert long - short < q_rows / 4, (short, long, q_rows)


def test_particle_path_holds_one_grid_time(monkeypatch):
    # one grid time per block: 60 more grid times add far less than the
    # 60 rows of (P, 5, 2) particle values a collected residual would keep
    monkeypatch.setattr(eulerian, "_DIAGNOSTIC_BLOCK_BYTES", 1)
    N, dt = 4, 0.005
    spec = build_spectrum(N, 3.0, 0.5)
    u0 = sp.taylor_green(N, 0.5)
    labels = uniform_labels(24)
    inc = sample_coefficients(spec, dt, 80, derive_stream(47, "memory"))

    def run(nsteps):
        return lambda: lg.run_equivalence(u0, spec, dt, labels=labels,
                                          increments=inc[:nsteps])

    run(20)()  # fill the per-N constant caches outside the traced runs
    short, long = traced_peak(run(20)), traced_peak(run(80))
    rows = 60 * len(labels) * 5 * 2 * 8
    assert long - short < rows / 4, (short, long, rows)


def test_spray_blocks_stay_small(monkeypatch):
    # particles-p24's finest level (N = 8, 24^2 labels, 41 grid times): the
    # spray fields of the default velocity blocks peak within a megabyte of
    # one grid time per block
    N, dt, nsteps = 8, 0.00625, 40
    spec = build_spectrum(N, 3.0, 0.5)
    u0 = sp.taylor_green(N)
    labels = uniform_labels(24)
    inc = sample_coefficients(spec, dt, nsteps, derive_stream(59, "spray"))

    def run():
        lg.run_equivalence(u0, spec, dt, labels=labels, increments=inc)

    run()  # fill the per-N constant caches outside the traced runs
    default = traced_peak(run)
    monkeypatch.setattr(eulerian, "_DIAGNOSTIC_BLOCK_BYTES", 1)
    one = traced_peak(run)
    assert default - one < 2**20, (default, one)

