"""stoflow benchmark: whole experiments timed end to end, layers traced apart.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The seed goes into the generated
config file only; stoflow reads nothing else.  Every stoflow call runs in
a fresh child interpreter (bench/worker.py), one at a time: a closed loop
with one client, using at most nproc threads.

--trace 0 repeats `run_experiment` at threads=1 and threads=nproc for S
seconds and reports the end-to-end metrics.  --trace 1 makes one traced
call at threads=nproc, then alternates untraced and traced calls at
threads=1 for S seconds, and reports the per-layer metrics.  Both check
the outputs: every embedded acceptance check must pass and CSV bytes must
be identical across runs and thread counts.  The last line of standard
output is the JSON result; the full record, with the environment, goes to
.bench_out/BENCH_<workload>.json.
See bench/README.md for the metrics and why each workload was chosen.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean, median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".bench_out"

SETUP_PER_CALL = 2        # fresh interpreters timed for setup_s per stoflow call
TIME_LIMIT_S = 150.0      # start no stoflow call after this, whatever --seconds says
SELF_SUM_TOL = 0.01       # |sum of self times - traced wall| / traced wall


@dataclass(frozen=True)
class Workload:
    config: str           # config text; {seed} is replaced by --seed
    checks: tuple         # embedded acceptance checks the kind must report
    csv_files: tuple
    pool: bool = True     # the kind runs its trajectories on the thread pool


WORKLOADS = {
    # many short paths of small NumPy calls: per-path diffusion-matrix
    # rebuild, the dealiased nonlinear term and per-step norms
    "ensemble-n8": Workload(
        config="""kind = energy-growth
grid.n = 8
time.dt = 0.01
time.horizon = 0.5
noise.gamma = 3.0
noise.c = 0.5
init.kind = zero
scheme = euler-maruyama
seed = {seed}
ensemble.size = 100
""",
        checks=("divergence_free", "energy_growth_slope"),
        csv_files=("energy.csv", "energy_summary.csv")),
    # few large paths: 50^2 FFT grid, two drifts per Heun step, a dense
    # 4356x1088 sigma read every step, per-step diagnostics CSV
    "averaged-n16": Workload(
        config="""kind = simulate-averaged
grid.n = 16
time.dt = 0.01
time.horizon = 0.5
noise.gamma = 3.0
noise.c = 0.5
alpha = 0.3
init.kind = random
init.seed = {seed}
scheme = heun
seed = {seed}
ensemble.size = 6
""",
        checks=("divergence_free",),
        csv_files=("diagnostics.csv",)),
    # particle flow: 576 labels, four refinement levels, dominated by
    # pointwise field evaluation; the ensemble and thread layers idle.
    # horizon 0.25 (not 0.5) halves a call, so a run holds enough calls
    # to average out the host's load phases
    "particles-p24": Workload(
        config="""kind = equivalence
grid.n = 8
time.dt = 0.05
time.horizon = 0.25
noise.gamma = 3.0
noise.c = 0.5
init.kind = taylor-green
equivalence.levels = 3
equivalence.particles = 24
seed = {seed}
""",
        checks=("residual_decay_slope",),
        csv_files=("equivalence.csv", "equivalence_summary.csv"), pool=False),
}

# counters that must repeat exactly for the same inputs
EXACT_COUNTS = ("qwiener.eigenmode.calls", "sde.steps", "sde.paths_exited",
                "lagrangian.particle_steps", "spectral.evaluate.points",
                "spectral.evaluate.bytes_computed", "sde.sigma_bytes_computed",
                "experiments.csv_bytes")


def work_units(cfg: dict) -> int:
    """Scheduled trajectory-steps (ensembles) or particle-steps (equivalence)."""
    nsteps = int(round(float(cfg["time.horizon"]) / float(cfg["time.dt"])))
    if cfg["kind"] == "equivalence":
        levels = int(cfg["equivalence.levels"])
        return int(cfg["equivalence.particles"]) ** 2 * nsteps * (2 ** (levels + 1) - 1)
    return int(cfg["ensemble.size"]) * nsteps


# ---------------------------------------------------------------------------
# environment record

def _blas() -> dict:
    import numpy as np
    info = {"name": None, "version": None, "threads": None}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = dep.get("name"), dep.get("version")
    except (KeyError, TypeError, AttributeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                info["threads"] = int(fn())
                return info
    return info


def source_sha256() -> str:
    """Identifies the code under test when the checkout is not a git repository."""
    src = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        src.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return src.hexdigest()


def environment(nproc: int) -> dict:
    import numpy as np
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": nproc, "python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas(), "git_commit": commit, "source_sha256": source_sha256(),
            "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
            "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


# ---------------------------------------------------------------------------
# child processes

class Bench:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.wl = WORKLOADS[name]
        self.t_start = perf_counter()
        self.dir = OUT / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        text = self.wl.config.format(seed=seed)
        self.cfg = dict(line.split(" = ", 1) for line in text.splitlines())
        self.cfg_path = self.dir / "config.txt"
        self.cfg_path.write_text(text, encoding="utf-8")
        self.calls = 0
        self.failed_calls = set()
        self.failures = []       # one line per failed call or check
        self.checks_attempted = 0
        self.checks_failed = 0
        self.reference_csv = None

    def time_left(self) -> float:
        return TIME_LIMIT_S - (perf_counter() - self.t_start)

    def another_rep(self, t_loop: float, reps: int, seconds: float) -> bool:
        """At least one repetition; more while `seconds` have not passed and
        two more would still end within the time limit."""
        elapsed = perf_counter() - t_loop
        return reps == 0 or (elapsed < seconds and self.time_left() > 2 * elapsed / reps)

    def fail(self, call: int, msg: str) -> None:
        self.failed_calls.add(call)
        self.failures.append(f"call {call}: {msg}")

    def child(self, *args) -> dict | None:
        """Start one worker; every worker is a call, attempted once."""
        self.calls += 1
        cmd = [sys.executable, str(WORKER), *args, "--config", str(self.cfg_path)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(self.time_left(), 10.0))
        except subprocess.TimeoutExpired:
            self.fail(self.calls, f"timeout: {' '.join(args)}")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
            self.fail(self.calls, f"exit {proc.returncode}: {' '.join(args)}: {tail[0]}")
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def run(self, threads: int, trace: str = "") -> dict | None:
        """One run_experiment call, checked: acceptance checks and CSV bytes."""
        out = self.dir / f"call{self.calls + 1}-t{threads}{'-' + trace if trace else ''}"
        args = ["run", "--out", str(out), "--threads", str(threads)]
        if trace:
            args += ["--trace", trace, "--spans", str(self.dir / f"spans-{trace}.csv")]
        res = self.child(*args)
        n_checks = len(self.wl.checks)
        self.checks_attempted += n_checks
        if res is None:
            self.checks_failed += n_checks
            return None
        shutil.rmtree(out, ignore_errors=True)
        acc = res["acceptance"]
        failed = [c for c in self.wl.checks if not acc.get(c, False)]
        self.checks_failed += len(failed)
        bad = []
        if failed or set(acc) != set(self.wl.checks):
            bad.append(f"acceptance {acc}")
        if sorted(res["csv"]) != sorted(self.wl.csv_files):
            bad.append(f"csv files {sorted(res['csv'])}")
        if self.reference_csv is None:
            self.reference_csv = res["csv"]
        elif res["csv"] != self.reference_csv:
            bad.append("csv bytes differ from the first call")
        if res.get("still_wrapped"):
            bad.append(f"still wrapped after tracing: {res['still_wrapped']}")
        if bad:
            self.fail(self.calls, f"threads={threads}: {'; '.join(bad)}")
        res["call"] = self.calls
        return res


# ---------------------------------------------------------------------------
# the two kinds of run

def timed(b: Bench, seconds: float, nproc: int) -> tuple[dict, dict]:
    setups, calls = [], []   # calls: (pooled, result) in the order they ran

    t_loop = perf_counter()
    rep = 0
    while b.another_rep(t_loop, rep, seconds):
        # Pairs alternate which thread count runs first, so drift cancels in
        # the ratio.  A workload that leaves the pool idle runs threads=nproc
        # once, between two threads=1 calls, and spends the rest on threads=1.
        if b.wl.pool or rep == 0:
            order = (False, True) if rep % 2 == 0 else (True, False)
        else:
            order = (False,)
        for pooled in order:
            # set-up probes are spread over the run, so that setup_s samples
            # the same machine load as the calls do
            for _ in range(SETUP_PER_CALL):
                r = b.child("setup")
                if r is not None:
                    setups.append(r["setup_s"])
            calls.append((pooled, b.run(nproc if pooled else 1)))
        rep += 1
    ok = [(pooled, r) for pooled, r in calls if r is not None]
    t1 = [r["wall_s"] for pooled, r in ok if not pooled]
    tn = [r["wall_s"] for pooled, r in ok if pooled]
    rss = [r["peak_rss_mb"] for pooled, r in ok if not pooled]
    # speedup of each threads=nproc call against the threads=1 calls next to it
    speedup = []
    for i, (pooled, r) in enumerate(ok):
        near = [ok[j][1]["wall_s"] for j in (i - 1, i + 1)
                if pooled and 0 <= j < len(ok) and not ok[j][0]]
        if near:
            speedup.append(fmean(near) / r["wall_s"])
    if not t1 or not setups or not speedup:
        return {}, {}
    # Load on a shared host comes in phases of tens of seconds, so the
    # median of a few calls jumps between phase levels; the mean over the
    # run's calls averages them.  Ratios of adjacent calls cancel phases.
    units = work_units(b.cfg)
    metrics = {
        "wall_s": (fmean(t1), "s"),
        "steps_per_s": (units * len(t1) / sum(t1), "1/s"),
        "speedup_par": (median(speedup), "ratio"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median(rss), "MB"),
        "checks_passed": (1.0 - b.checks_failed / b.checks_attempted, "ratio"),
    }
    samples = {"wall_s_t1": t1, "wall_s_tn": tn, "speedup_par": speedup, "setup_s": setups,
               "peak_rss_mb": rss, "work_units_per_call": units}
    return metrics, samples


def _layer_metrics(agg: dict) -> dict:
    g = agg["groups"]
    c = agg["counters"]

    def calls(name):
        return (g.get(name, {}).get("calls", 0), "count")

    def self_s(name):
        return (g.get(name, {}).get("self_s", 0.0), "s")

    m = {}
    for layer in ("qwiener.eigenmode", "qwiener.sample", "qwiener.assemble",
                  "spectral.nonlinear", "spectral.project", "spectral.norms",
                  "spectral.evaluate", "eulerian.drift", "eulerian.problem",
                  "lagrangian.advect", "lagrangian.acceleration"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.self_s"] = self_s(layer)
    for layer in ("sde", "eulerian.run", "lagrangian.residual", "experiments"):
        m[f"{layer}.self_s"] = self_s(layer)
    m["spectral.evaluate.points"] = (c.get("points", 0), "count")
    m["spectral.evaluate.bytes_computed"] = (c.get("bytes_computed", 0), "bytes")
    m["sde.paths"] = (c.get("paths", 0), "count")
    m["sde.steps"] = (c.get("steps", 0), "count")
    m["sde.paths_exited"] = (c.get("paths_exited", 0), "count")
    m["sde.sigma_bytes_computed"] = (c.get("sigma_bytes_computed", 0), "bytes")
    m["lagrangian.particle_steps"] = (c.get("particle_steps", 0), "count")
    return m


def _pct(xs, q):
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))] if xs else 0.0


def _traced_metrics(res: dict) -> dict:
    m = _layer_metrics(res["trace"])
    m["experiments.csv_bytes"] = (sum(size for _, size in res["csv"].values()), "bytes")
    return m


def traced(b: Bench, seconds: float, nproc: int) -> tuple[dict, dict]:
    tn = b.run(nproc, trace="tn")
    plain, t1 = [], []
    t_loop = perf_counter()
    rep = 0
    while b.another_rep(t_loop, rep, seconds):
        for trace in (("", f"t1-{rep}") if rep % 2 == 0 else (f"t1-{rep}", "")):
            res = b.run(1, trace=trace)
            if res is not None:
                (t1 if trace else plain).append(res)
        rep += 1
    if tn is None or not t1 or not plain:
        return {}, {}
    # times are medians over the traced threads=1 calls; counts repeat exactly
    per_call = [_traced_metrics(r) for r in t1]
    m = {k: (median([pc[k][0] for pc in per_call]) if unit == "s" else v, unit)
         for k, (v, unit) in per_call[0].items()}
    path_t1 = [d for r in t1 for d in r["trace"]["path_s"]]
    path_tn = tn["trace"]["path_s"]
    m["experiments.path_s.t1.p50"] = (_pct(path_t1, 0.5), "s")
    m["experiments.path_s.t1.p90"] = (_pct(path_t1, 0.9), "s")
    m["experiments.path_s.tn.p50"] = (_pct(path_tn, 0.5), "s")
    m["experiments.path_s.tn.p90"] = (_pct(path_tn, 0.9), "s")
    m["experiments.pool.overlap"] = (sum(path_tn) / tn["wall_s"], "ratio")
    traced_wall = median([r["wall_s"] for r in t1])
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - median([r["wall_s"] for r in plain]), "s")

    # self-checks: self times cover the traced wall time, counts repeat exactly
    for r in t1:
        gap = abs(r["trace"]["self_sum_s"] - r["wall_s"]) / r["wall_s"]
        if gap > SELF_SUM_TOL:
            b.fail(r["call"], f"self times sum to {r['trace']['self_sum_s']:.6f} s, "
                              f"traced wall {r['wall_s']:.6f} s")
    counts = {k: m[k][0] for k in EXACT_COUNTS}
    for r in t1[1:] + [tn]:
        other = _traced_metrics(r)
        for k in EXACT_COUNTS:
            if other[k][0] != counts[k]:
                b.fail(r["call"], f"{k}: {other[k][0]}, first traced call {counts[k]}")
    seen = OUT / "counts" / f"{b.name}-seed{b.cfg['seed']}-{source_sha256()[:16]}.json"
    if seen.is_file():
        before = json.loads(seen.read_text(encoding="utf-8"))
        for k in EXACT_COUNTS:
            if before.get(k) != counts[k]:
                b.fail(t1[0]["call"], f"{k}: {counts[k]} now, {before.get(k)} in an earlier run")
    else:
        seen.parent.mkdir(parents=True, exist_ok=True)
        seen.write_text(json.dumps(counts, indent=1), encoding="utf-8")
    detail = {"groups_t1": [r["trace"]["groups"] for r in t1],
              "groups_tn": tn["trace"]["groups"],
              "self_sum_s_t1": [r["trace"]["self_sum_s"] for r in t1],
              "traced_wall_s_t1": [r["wall_s"] for r in t1],
              "untraced_wall_s_t1": [r["wall_s"] for r in plain],
              "traced_wall_s_tn": tn["wall_s"], "spans_per_call": t1[0]["trace"]["n_spans"],
              "path_s_t1": path_t1, "path_s_tn": path_tn}
    return m, detail


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="stoflow benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "stoflow" / "__init__.py").is_file():
        print(f"bench: no stoflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    b = Bench(args.workload, args.seed)
    if args.trace:
        metrics, detail = traced(b, args.seconds, nproc)
    else:
        metrics, detail = timed(b, args.seconds, nproc)
    if not metrics:
        print("bench: no successful run:\n  " + "\n  ".join(b.failures), file=sys.stderr)
        return 1

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(nproc), "config": b.cfg,
              "calls": b.calls, "failures": b.failures,
              "checks_attempted": b.checks_attempted, "checks_failed": b.checks_failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "detail": detail}
    (OUT / f"BENCH_{args.workload}.json").write_text(json.dumps(record, indent=1),
                                                      encoding="utf-8")
    print("env " + json.dumps(record["environment"], sort_keys=True))
    print(f"checks_failed {b.checks_failed}/{b.checks_attempted}")
    for line in b.failures:
        print("FAIL " + line)
    for k, (v, u) in metrics.items():
        print(f"{k:40s} {v:>16.6g} {u}")
    print(json.dumps({"correct": not b.failures, "attempted": b.calls,
                      "failed": len(b.failed_calls),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
