"""Golden outputs: one small run of each experiment kind, kept in the
directory named after it with its CSVs, config.txt and manifest.json
(`wall_clock_s` left out, the one field that differs between reruns).
tests/test_golden.py reruns every case and compares.

    PYTHONPATH=src python tests/golden/regen.py

rewrites every case's files from the current code.  A change that moves
an output on purpose regenerates them and states which files moved and by
how much; a change that means to move nothing leaves them alone.
"""

from __future__ import annotations

import json
from pathlib import Path

from stoflow.config import ExperimentConfig
from stoflow.experiments import run_experiment

HERE = Path(__file__).resolve().parent

CASES = {
    # 3 of the 6 paths leave the ball (radius 1.05 |u0|), so exit rows are pinned
    "simulate-euler": ExperimentConfig(
        kind="simulate-euler", n=8, dt=0.01, horizon=0.5, gamma=3.0, c=0.5,
        init_kind="random", init_seed=5, init_amplitude=0.5, radius_factor=1.05,
        seed=3, ensemble=6),
    "simulate-averaged": ExperimentConfig(
        kind="simulate-averaged", n=8, dt=0.01, horizon=0.5, gamma=3.0, c=0.5,
        alpha=0.3, init_kind="taylor-green", seed=7, ensemble=4),
    # the particles-p24 workload's config at seed 3
    "equivalence": ExperimentConfig(
        kind="equivalence", n=8, dt=0.05, horizon=0.25, gamma=3.0, c=0.5,
        init_kind="taylor-green", eq_levels=3, eq_particles=24, seed=3),
    "convergence": ExperimentConfig(kind="convergence", seed=3),
    # the isometry acceptance config
    "isometry": ExperimentConfig(kind="isometry", n=4, gamma=2.0, c=1.0,
                                 seed=20240601, ensemble=10_000),
    # the energy-growth acceptance config at 50 paths
    "energy-growth": ExperimentConfig(
        kind="energy-growth", n=8, dt=0.01, horizon=0.5, gamma=3.0, c=0.5,
        init_kind="zero", scheme="euler-maruyama", seed=314159, ensemble=50),
}


def run_case(cfg: ExperimentConfig, out: Path) -> None:
    """Run cfg into `out` in one process and drop `wall_clock_s` from its
    manifest."""
    run_experiment(cfg, out_dir=out, threads=1)
    path = Path(out) / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    del manifest["wall_clock_s"]
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    for name, cfg in CASES.items():
        for old in (HERE / name).glob("*"):
            old.unlink()
        run_case(cfg, HERE / name)
        print(f"wrote {HERE / name}")
