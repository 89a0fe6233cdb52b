"""In-memory span tracing around the public calls of each flowfit layer.

The tracer wraps functions and methods from the outside: every flowfit
module that holds a reference to a traced function gets the wrapper in its
place, so calls are seen where the caller looks the name up (``distribute``
is looked up in ``flowfit.calibrate`` and ``flowfit.assignment``, not only
in ``flowfit.demand``). Methods are wrapped on their class. A target that
does not exist in the program under test is skipped and reports zero.

Spans are (name, start, end, parent, failed) tuples kept in a list; they are
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time

# Layer name -> (module, attribute path). The layer name's prefix is the
# module the code lives in.
TARGETS = {
    "network.shortest_path_tree": ("flowfit.network", "shortest_path_tree"),
    "network.volume_delay": ("flowfit.network", "volume_delay"),
    "assignment.PathSet": ("flowfit.assignment", "PathSet.__init__"),
    "assignment.flow_vector": ("flowfit.assignment", "PathSet.flow_vector"),
    "assignment.assign_iterative": ("flowfit.assignment", "assign_iterative"),
    "demand.distribute": ("flowfit.demand", "distribute"),
    "demand.seed_matrix": ("flowfit.demand", "seed_matrix"),
    "demand.furness_balance": ("flowfit.demand", "furness_balance"),
    "metrics.geh_from_daily": ("flowfit.metrics", "geh_from_daily"),
    "calibrate.ModelObjective": ("flowfit.calibrate", "ModelObjective.__call__"),
    "calibrate.optimizer": ("flowfit.calibrate", "nelder_mead"),
    "model_io.load_model": ("flowfit.model_io", "load_model"),
}

# Modules searched for references to a traced function: the program's, and
# the benchmark's own, whose calls into a layer are spans too.
MODULES = (
    "flowfit", "flowfit.network", "flowfit.demand", "flowfit.assignment",
    "flowfit.metrics", "flowfit.calibrate", "flowfit.model_io",
    "flowfit.sample_models", "flowfit.cli", "workloads", "__main__",
)

# Per-layer metrics reported by a traced run: (metric name, unit).
PER_LAYER = (
    ("network.shortest_path_tree.calls", "count"),
    ("network.shortest_path_tree.s", "s"),
    ("network.volume_delay.calls", "count"),
    ("assignment.PathSet.calls", "count"),
    ("assignment.PathSet.s", "s"),
    ("assignment.PathSet.self_s", "s"),
    ("assignment.flow_vector.calls", "count"),
    ("assignment.flow_vector.s", "s"),
    ("assignment.assign_iterative.s", "s"),
    ("demand.distribute.calls", "count"),
    ("demand.distribute.s", "s"),
    ("demand.distribute.self_s", "s"),
    ("demand.seed_matrix.s", "s"),
    ("demand.furness_balance.calls", "count"),
    ("demand.furness_balance.s", "s"),
    ("demand.furness_balance.failed", "count"),
    ("metrics.geh_from_daily.calls", "count"),
    ("metrics.geh_from_daily.s", "s"),
    ("calibrate.ModelObjective.calls", "count"),
    ("calibrate.ModelObjective.s", "s"),
    ("calibrate.ModelObjective.self_s", "s"),
    ("calibrate.ModelObjective.failed", "count"),
    ("calibrate.optimizer.self_s", "s"),
    ("model_io.load_model.s", "s"),
    ("trace.overhead_pct", "%"),
)


def _is_failure(result) -> bool:
    """A float result that is not finite counts as a failed call."""
    return isinstance(result, float) and not math.isfinite(result)


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError:
        return None


class Tracer:
    """Records spans while enabled; install() patches the program once."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.enabled = False
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(index)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = _is_failure(result)
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, failed)

        return traced

    def install(self) -> None:
        """Patch every target that exists in the program under test."""
        modules = [m for m in map(_module, MODULES) if m is not None]
        for name, (module_name, path) in TARGETS.items():
            owner = _module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            if outer:  # a method: patch it on its class
                setattr(owner, attr, wrapper)
            else:  # a function: patch every module-level reference to it
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def mark(self) -> int:
        """Index of the next span; spans from a mark on belong to one rep."""
        return len(self.spans)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, failed in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "failed": failed}) + "\n")


def layer_totals(spans, lo: int, hi: int) -> dict[str, dict[str, float]]:
    """Calls, inclusive time, self time and failures per layer for spans[lo:hi].

    Inclusive time sums only the outermost span of a name, so a layer that
    calls itself is not counted twice. Self time is a span's duration minus
    the durations of its direct children.
    """
    child_time = [0.0] * (hi - lo)
    for k in range(lo, hi):
        _, start, end, parent, _ = spans[k]
        if parent >= lo:
            child_time[parent - lo] += end - start
    totals: dict[str, dict[str, float]] = {}
    for k in range(lo, hi):
        name, start, end, parent, failed = spans[k]
        t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0})
        t["calls"] += 1
        t["failed"] += int(failed)
        t["self_s"] += (end - start) - child_time[k - lo]
        ancestor = parent
        while ancestor >= lo and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < lo:
            t["s"] += end - start
    return totals
