"""Span tracing of stoflow's layers from outside the package.

`Tracer.install()` wraps every public module-level function of the traced
stoflow modules and rebinds each wrapper wherever a stoflow module looks
the function up: its own module, every module that imported it by name
(`solve_path`, `evaluate_at`, `run_eulerian`, `sample_coefficients`,
`eigenmode_field`, ...) and the stepper table `sde._STEPPERS`.
`Tracer.restore()` puts every original back, and `still_wrapped()`
verifies that nothing wrapped is left behind.

A span is (id, name, start, end, parent, run id, info).  Spans are kept in
memory and written out once by `write_spans`.  Worker threads of the
trajectory pool start with an empty span stack; their spans are parented
to the outermost span of the run, so self time stays well defined.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import types
from time import perf_counter

import numpy as np

TRACED_MODULES = ("spectral", "qwiener", "sde", "eulerian", "lagrangian", "experiments")

# (module, function) -> layer group; functions not listed fall into <module>.other
GROUPS = {
    ("qwiener", "eigenmode_field"): "qwiener.eigenmode",
    ("qwiener", "sample_coefficients"): "qwiener.sample",
    ("qwiener", "sample_increment"): "qwiener.sample",
    ("qwiener", "increment_from_coefficients"): "qwiener.assemble",
    ("spectral", "advection_term"): "spectral.nonlinear",
    ("spectral", "directional_derivative"): "spectral.nonlinear",
    ("spectral", "grad_transpose_laplacian"): "spectral.nonlinear",
    ("spectral", "leray_project"): "spectral.project",
    ("spectral", "helmholtz_inverse"): "spectral.project",
    ("spectral", "helmholtz_apply"): "spectral.project",
    ("spectral", "sobolev_norm"): "spectral.norms",
    ("spectral", "l2_norm"): "spectral.norms",
    ("spectral", "l2_inner"): "spectral.norms",
    ("spectral", "enstrophy"): "spectral.norms",
    ("spectral", "divergence_residual"): "spectral.norms",
    ("spectral", "evaluate_at"): "spectral.evaluate",
    ("eulerian", "euler_drift"): "eulerian.drift",
    ("eulerian", "averaged_drift"): "eulerian.drift",
    ("eulerian", "make_eulerian_problem"): "eulerian.problem",
    ("eulerian", "noise_mode_multiplier"): "eulerian.problem",
    ("eulerian", "run_eulerian"): "eulerian.run",
    ("eulerian", "pack_field"): "eulerian.run",
    ("eulerian", "unpack_field"): "eulerian.run",
    ("lagrangian", "advect"): "lagrangian.advect",
    ("lagrangian", "material_acceleration_at"): "lagrangian.acceleration",
    ("lagrangian", "spray"): "lagrangian.acceleration",
    ("lagrangian", "equivalence_residual"): "lagrangian.residual",
}

# Every function of these modules is one layer.
WHOLE_MODULE_GROUPS = {"sde": "sde", "experiments": "experiments"}

# Noise applications `sigma @ dW` per step.  Heun applies the diffusion
# matrix twice when sigma is state-independent, as in every Eulerian
# problem stoflow builds.
NOISE_APPLICATIONS = {"euler-maruyama": 1, "heun": 2}


def _group_of(module: str, name: str) -> str:
    if module in WHOLE_MODULE_GROUPS:
        return WHOLE_MODULE_GROUPS[module]
    return GROUPS.get((module, name), f"{module}.other")


# ---------------------------------------------------------------------------
# per-function counters, computed from arguments and results

def _info_evaluate(args, kwargs, result):
    field, points = args[0], args[1] if len(args) > 1 else kwargs["points"]
    P = int(np.atleast_2d(np.asarray(points)).shape[0])
    return {"points": P, "bytes_computed": P * field.M * field.M * 16}


def _info_solve_path(args, kwargs, result):
    return {"paths": 1, "paths_exited": int(bool(result.exited))}


def _stepper_info(scheme):
    def info(args, kwargs, result):
        problem = args[0]
        n_noise = len(problem.noise_variances)
        return {"steps": 1, "sigma_bytes_computed":
                NOISE_APPLICATIONS[scheme] * problem.dim * n_noise * 8}
    return info


def _info_advect(args, kwargs, result):
    return {"particle_steps": int(args[0].n)}


INFO = {
    ("spectral", "evaluate_at"): _info_evaluate,
    ("sde", "solve_path"): _info_solve_path,
    ("lagrangian", "advect"): _info_advect,
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # (id, name, start, end, parent, run, info)
        self.root = None         # outermost span of the main thread
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._rebound = []       # (namespace dict, key, original)
        self._originals = {}     # id(original) -> original

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fn, name, info_fn):
        spans = self.spans
        ids = self._ids
        local = self._local
        run_id = self.run_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
            elif threading.current_thread() is self._main:
                parent = None
            else:
                parent = self.root
            sid = next(ids)
            if parent is None:
                self.root = sid
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, run_id, None))
                raise
            t1 = perf_counter()
            stack.pop()
            info = info_fn(args, kwargs, result) if info_fn is not None else None
            spans.append((sid, name, t0, t1, parent, run_id, info))
            return result

        wrapper.__bench_wrapped__ = fn
        return wrapper

    # -- install / restore ---------------------------------------------------

    def install(self) -> None:
        import stoflow.sde
        mods = {m: sys.modules[f"stoflow.{m}"] for m in TRACED_MODULES}
        wrappers = {}  # id(original) -> wrapper
        for scheme, step in stoflow.sde._STEPPERS.items():
            wrappers[id(step)] = self._wrap(step, f"sde.{step.__name__}",
                                            _stepper_info(scheme))
            self._originals[id(step)] = step
        for mname, mod in mods.items():
            for attr, val in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(val, types.FunctionType)
                        or val.__module__ != mod.__name__ or id(val) in wrappers):
                    continue
                wrappers[id(val)] = self._wrap(val, f"{mname}.{attr}",
                                               INFO.get((mname, attr)))
                self._originals[id(val)] = val
        namespaces = [vars(m) for n, m in sys.modules.items()
                      if n == "stoflow" or n.startswith("stoflow.")]
        namespaces.append(stoflow.sde._STEPPERS)
        for ns in namespaces:
            for key, val in list(ns.items()):
                w = wrappers.get(id(val))
                if w is not None and self._originals[id(val)] is val:
                    self._rebound.append((ns, key, val))
                    ns[key] = w

    def restore(self) -> None:
        for ns, key, original in reversed(self._rebound):
            ns[key] = original
        self._rebound.clear()

    def still_wrapped(self) -> list:
        """Names under stoflow that still hold a wrapper; empty when clean."""
        import stoflow.sde
        bad = []
        namespaces = [(n, vars(m)) for n, m in sys.modules.items()
                      if n == "stoflow" or n.startswith("stoflow.")]
        namespaces.append(("stoflow.sde._STEPPERS", stoflow.sde._STEPPERS))
        for nsname, ns in namespaces:
            for key, val in ns.items():
                if hasattr(val, "__bench_wrapped__"):
                    bad.append(f"{nsname}.{key}")
        return bad


# ---------------------------------------------------------------------------
# aggregation

def _union_length(intervals) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the part of it covered by child spans."""
    children = {}
    for sid, _, t0, t1, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _, t0, t1, _, _, _ in spans:
        kids = children.get(sid)
        if not kids:
            out[sid] = t1 - t0
        else:
            clipped = [(max(a, t0), min(b, t1)) for a, b in kids if b > t0 and a < t1]
            out[sid] = (t1 - t0) - _union_length(clipped)
    return out


def aggregate(spans) -> dict:
    """Per-group calls, self seconds and counters, plus per-path durations.

    A call is a span whose parent is not in the same group, so
    advection_term -> directional_derivative counts once.
    """
    selfs = self_times(spans)
    group_of_span = {}
    for sid, name, *_ in spans:
        mod, fn = name.split(".", 1)
        group_of_span[sid] = _group_of(mod, fn)
    groups = {}
    counters = {}
    path_s = []
    for sid, name, t0, t1, parent, _, info in spans:
        g = group_of_span[sid]
        entry = groups.setdefault(g, {"calls": 0, "self_s": 0.0})
        entry["self_s"] += selfs[sid]
        if group_of_span.get(parent) != g:
            entry["calls"] += 1
        if info:
            for k, v in info.items():
                counters[k] = counters.get(k, 0) + v
        if name == "eulerian.run_eulerian":
            path_s.append(t1 - t0)
    return {"groups": groups, "counters": counters, "path_s": path_s,
            "self_sum_s": sum(selfs.values()), "n_spans": len(spans)}


def write_spans(spans, path) -> None:
    """One line per span: id,name,start,end,parent,run."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,name,start,end,parent,run\n")
        for sid, name, t0, t1, parent, run_id, _ in spans:
            fh.write(f"{sid},{name},{t0:.9f},{t1:.9f},"
                     f"{'' if parent is None else parent},{run_id}\n")
