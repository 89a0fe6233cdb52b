"""Self-test of the benchmark itself, on tiny grids. Exits 0 when it passes.

    python3 perfbench/selftest.py

Checks that every workload, traced and untraced, emits exactly the metric
names and units listed in BENCHMARK.json; that a sweep point at beta = 1.0
on the 10 x 8 grid is counted as a failed operation instead of aborting the
run; that the tied toy star matches its reference; and the self-time
arithmetic of the span tracer.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

import run

sys.path.insert(0, str(run.ROOT / "src"))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from flowfit.model_io import load_model  # noqa: E402
from spans import layer_totals  # noqa: E402

TINY = (5, 4)  # grid size for the metric-name check


def check_metric_names(scratch: Path) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    nproc = len(os.sched_getaffinity(0))
    for name in wl.NAMES:
        model = wl.BUILDERS[name](scratch / name, 0, size=TINY, n_counts=20)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            args = argparse.Namespace(workload=name, seed=0, seconds=0.2, trace=trace)
            line, _ = run.summarize(run.run_worker(args, model, 0, nproc, no_refs=True),
                                    bool(trace))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            assert got == want, f"{name} trace {trace}: {got} != {want}"
            for k, v in line["metrics"].items():
                assert math.isfinite(v["value"]), f"{name}: {k} = {v['value']}"
            assert line["correct"] and line["failed"] == 0, (name, trace, line)
            print(f"ok  {name} trace {trace}: {len(got)} metrics with units")


def check_failing_point_is_counted(scratch: Path) -> None:
    model = load_model(wl.build_sweep(scratch / "sweep", 0))
    bench = wl.Sweep(model, 0)
    bench.points = np.array([[1.0, 0.1], [1.0, 1.0]])
    values = bench.call()
    assert math.isfinite(values[0]) and math.isnan(values[1]), values
    outcomes, _ = bench.check(values)
    assert outcomes == [wl.OK, wl.EXPECTED], outcomes
    bench.ref = {"j": np.array([values[0], 1.0])}  # a reference that converged
    assert bench.check(values)[0] == [wl.OK, wl.WRONG]
    print("ok  beta = 1.0 on grid 10 x 8 counted as failed, run continued")


def check_toy_star() -> None:
    assert wl.check_toy_star() == wl.OK
    print("ok  tied toy star matches its reference")


def check_self_time() -> None:
    # outer [0, 10] holds a [1, 4] and b [5, 9]; b holds a [6, 7]
    spans = [("outer", 0.0, 10.0, -1, False), ("a", 1.0, 4.0, 0, False),
             ("b", 5.0, 9.0, 0, True), ("a", 6.0, 7.0, 2, False)]
    t = layer_totals(spans, 0, len(spans))
    assert t["outer"] == {"calls": 1, "s": 10.0, "self_s": 3.0, "failed": 0}, t
    assert t["a"] == {"calls": 2, "s": 4.0, "self_s": 4.0, "failed": 0}, t
    assert t["b"] == {"calls": 1, "s": 4.0, "self_s": 3.0, "failed": 1}, t
    print("ok  span self time")


def main() -> None:
    scratch = run.CACHE / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        check_self_time()
        check_toy_star()
        check_failing_point_is_counted(scratch)
        check_metric_names(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
