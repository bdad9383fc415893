"""Span recording around nfepm's cross-module calls, from outside the package.

`install` replaces every binding of a public function that one nfepm
module imports from another (for example `nfepm.cli.zzb_z` or
`nfepm.zzb.q_function`) with a wrapper that records a span: its name
`<layer>.<function>`, start, end, parent and whether it raised. Calls
inside one module do not cross a binding and stay in that module's self
time. The root span `main` (layer `cli`) wraps each `nfepm.cli.main`
call the benchmark makes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types

LAYERS = ("cli", "zzb", "ecrb", "mapest", "solver", "channel", "observation",
          "numerics", "geometry")

HOT = (("zzb.zzb_z", "self_s"), ("zzb.zzb_t", "self_s"),
       ("zzb.zzb_ao_t", "self_s"), ("numerics.q_function", "calls"),
       ("numerics.q_function", "busy_s"), ("channel.nf_channel_axis", "calls"),
       ("channel.nf_channel_axis", "busy_s"), ("observation.observe", "busy_s"),
       ("mapest.monte_carlo_mse", "self_s"), ("solver.rmse_grid", "self_s"),
       ("ecrb.ecrb", "self_s"))

# Work counts: span names counted per call, or a count read off the call's
# bound arguments.
POINTS = {"zzb.points": ("zzb.zzb_z", "zzb.zzb_t", "zzb.zzb_ao_t"),
          "ecrb.points": ("ecrb.ecrb", "ecrb.ecrb_ao")}
ARG_COUNTS = {"mapest.monte_carlo_mse": ("mapest.trials", lambda a: a["trials"]),
              "solver.rmse_grid": ("solver.grid_points",
                                   lambda a: a["u"] * a["v"])}


def metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    for layer in LAYERS:
        names += [(f"{layer}.calls", "count"), (f"{layer}.busy_s", "s"),
                  (f"{layer}.self_s", "s"), (f"{layer}.errors", "count")]
    names += [(f"{fn}.{kind}", "count" if kind == "calls" else "s")
              for fn, kind in HOT]
    names += [(n, "count") for n in POINTS]
    names += [(n, "count") for n, _ in ARG_COUNTS.values()]
    names += [("trace.overhead_s", "s"), ("trace.unattributed_s", "s")]
    return names


def layer_of(name: str) -> str:
    return "cli" if name == "main" else name.split(".", 1)[0]


class Recorder:
    """Spans of one process, kept in memory as
    [name, start, end, parent index, raised]."""

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys((n for n, _ in ARG_COUNTS.values()), 0)
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counted = ARG_COUNTS.get(name)
        sig = inspect.signature(fn) if counted else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counted:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts[counted[0]] += counted[1](bound.arguments)
            rec = [name, clock(), None, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[4] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
        return traced


def install(recorder: Recorder) -> None:
    """Wrap every cross-module binding of a public layer function in
    every loaded nfepm module."""
    owners = {f"nfepm.{layer}": layer for layer in LAYERS}
    for modname in sorted(m for m in sys.modules if m.startswith("nfepm.")):
        module = importlib.import_module(modname)
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                continue
            owner = owners.get(obj.__module__)
            if owner is None or obj.__module__ == modname:
                continue
            setattr(module, attr, recorder.wrap(f"{owner}.{obj.__name__}", obj))


def summarize(recorder: Recorder, wall_s: float) -> dict:
    """Per-layer metrics of one traced batch whose `main` calls took
    wall_s in total, as timed around them by the caller.

    A layer's busy time counts its outermost spans only; self time is a
    span's duration minus its direct children's.
    """
    spans = recorder.spans
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {f"{layer}.{kind}": 0 for layer in LAYERS
           for kind in ("calls", "busy_s", "self_s", "errors")}
    out.update(recorder.counts)
    per_fn = {}
    root_s = 0.0
    for i, (name, start, end, parent, raised) in enumerate(spans):
        layer = layer_of(name)
        dur = end - start
        self_s = dur - child[i]
        p = parent
        while p >= 0 and layer_of(spans[p][0]) != layer:
            p = spans[p][3]
        outermost = p < 0
        if parent < 0:
            root_s += dur
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += self_s
        out[f"{layer}.errors"] += int(raised)
        if outermost:
            out[f"{layer}.busy_s"] += dur
        fn = per_fn.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        fn["calls"] += 1
        fn["self_s"] += self_s
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            fn["busy_s"] += dur
    for fn, kind in HOT:
        out[f"{fn}.{kind}"] = per_fn.get(fn, {}).get(kind, 0)
    for n, fns in POINTS.items():
        out[n] = sum(per_fn.get(f, {}).get("calls", 0) for f in fns)
    out["trace.unattributed_s"] = wall_s - root_s
    return out


def self_check(metrics: dict, wall_s: float, layers) -> list:
    """Problems with one traced batch: an expected layer that recorded no
    call, or self times that do not account for the traced wall time."""
    problems = [f"layer {layer!r} recorded no call; a wrapped binding was "
                "probably renamed or rebound" for layer in layers
                if metrics[f"{layer}.calls"] == 0]
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    total += metrics["trace.unattributed_s"]
    if abs(total - wall_s) > 1e-6 * max(wall_s, 1.0):
        problems.append(f"self times plus unattributed sum to {total!r} s, "
                        f"traced wall is {wall_s!r} s")
    if not 0.0 <= metrics["trace.unattributed_s"] <= 0.05 * wall_s + 1e-3:
        problems.append("unattributed time "
                        f"{metrics['trace.unattributed_s']!r} s out of range")
    return problems
