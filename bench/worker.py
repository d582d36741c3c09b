"""One benchmark child process: a single stoflow call in a fresh interpreter.

    python3 bench/worker.py setup --config C
        time `import stoflow` plus parsing and validating C
    python3 bench/worker.py run --config C --out D --threads T [--trace RUN --spans F]
        time one `run_experiment` call; with --trace, wrap the layers,
        write the spans to F and report per-layer aggregates

The last line of standard output is one JSON object.  Nothing here sets a
thread-count environment variable: BLAS threads stay at their defaults.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_stoflow():
    sys.path.insert(0, str(SRC))
    import stoflow.config
    import stoflow.experiments
    where = Path(stoflow.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"worker: stoflow imported from {where}, not from {SRC}")
    return stoflow.config, stoflow.experiments


def _setup(args) -> dict:
    t0 = perf_counter()
    config, _ = _import_stoflow()
    config.parse_config(args.config)
    return {"setup_s": perf_counter() - t0}


def _csv_digests(out: Path) -> dict:
    return {p.name: [hashlib.sha256(p.read_bytes()).hexdigest(), p.stat().st_size]
            for p in sorted(out.glob("*.csv"))}


def _run(args) -> dict:
    config, experiments = _import_stoflow()
    cfg = config.parse_config(args.config)
    out = Path(args.out)
    tracer = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import spans
        tracer = spans.Tracer(args.trace)
        tracer.install()
    try:
        t0 = perf_counter()
        experiments.run_experiment(cfg, out_dir=out, threads=args.threads)
        wall = perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.restore()
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    result = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "acceptance": manifest["acceptance"],
        "csv": _csv_digests(out),
    }
    if tracer is not None:
        result["still_wrapped"] = tracer.still_wrapped()
        result["trace"] = spans.aggregate(tracer.spans)
        spans.write_spans(tracer.spans, args.spans)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "run"))
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--trace", default="", help="run id; enables span tracing")
    p.add_argument("--spans", help="where to write the spans of a traced run")
    args = p.parse_args(argv)
    result = _setup(args) if args.mode == "setup" else _run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
