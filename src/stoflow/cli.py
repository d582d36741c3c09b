"""Command-line experiment runner.

    lab <kind> --config <path> [--seed S] [--out DIR] [--threads T]

Exit status: 0 all embedded acceptance checks pass, 2 an acceptance check
failed, 1 operational error (bad config, I/O, numeric abort, out of
memory), reported in one line on standard error.
The environment variable STOFLOW_OUT overrides the default output dir.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import KINDS, ConfigError, parse_config
from .experiments import run_experiment
from .sde import SdePathError

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lab",
        description="Run a stochastic Euler desk experiment from a config file.")
    p.add_argument("kind", choices=KINDS, help="experiment kind (must match the config)")
    p.add_argument("--config", required=True, help="path to the key-value config file")
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument("--out", default=None, help="output directory (default: $STOFLOW_OUT, "
                                               "then output.dir of the config)")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted; changes neither results nor speed")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"lab: config error: {exc}", file=sys.stderr)
        return 1
    if cfg.kind != args.kind:
        print(f"lab: config kind {cfg.kind!r} does not match command {args.kind!r}",
              file=sys.stderr)
        return 1
    if args.seed is not None:
        cfg.seed = args.seed
    out = args.out or os.environ.get("STOFLOW_OUT") or cfg.out_dir
    try:
        # a diverging path overflows before the stepper's finiteness check
        # aborts it, which is then the one line the run prints
        with np.errstate(over="ignore", invalid="ignore"):
            manifest = run_experiment(cfg, out_dir=out, threads=args.threads)
    except SdePathError as exc:
        print(f"lab: numeric abort: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"lab: out of memory: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"lab: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"lab: i/o error: {exc}", file=sys.stderr)
        return 1
    for name, ok in manifest.acceptance.items():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    return 0 if manifest.all_passed else 2


if __name__ == "__main__":
    raise SystemExit(main())
