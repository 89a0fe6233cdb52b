"""The timed process: one workload on one cached instance, in a fresh interpreter.

run.py starts this with the BLAS/OpenMP thread caps already in the
environment and prints what it reports. It writes one JSON object to stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from flowfit.model_io import load_model  # noqa: E402
from probe import PROBE_REF_S, probe  # noqa: E402
from spans import PER_LAYER, Tracer, layer_totals  # noqa: E402

# load_model calls before the first rep and between reps. Spread over the
# run, the set-up samples see the same machine conditions as the reps.
LOADS_PER_REP = 4


def scale(before: float, after: float) -> float:
    """Factor from wall time to time at the reference speed, from the probes
    run just before and just after a timed block."""
    return 2.0 * PROBE_REF_S / (before + after)


def load(spec: Path, tracer: Tracer | None, loads: list, before: float):
    """LOADS_PER_REP timed loads; returns the model and the closing probe."""
    times = []
    for _ in range(LOADS_PER_REP):
        if tracer:
            tracer.enabled = True
        t0 = time.perf_counter()
        model = load_model(spec)
        times.append(time.perf_counter() - t0)
        if tracer:
            tracer.enabled = False
    after = probe()
    loads.extend([t, scale(before, after)] for t in times)
    return model, after


def measure(spec: Path, make_bench, seconds: float, tracer: Tracer | None):
    """Repeat the workload's call until the next one would overrun `seconds`.

    Returns (workload, loads, reps); each load is [wall time, scale]. A
    probe runs between every two timed blocks. Without a tracer every rep
    is untraced. With one, reps alternate untraced / traced so both see the
    same machine conditions; a traced rep records the range of spans it
    produced.
    """
    loads: list = []
    model, before = load(spec, tracer, loads, probe())
    bench = make_bench(model)
    reps = []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(reps) % 2 == 1
        if traced:
            tracer.enabled, lo = True, tracer.mark()
        t0 = time.perf_counter()
        out = bench.call()
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.enabled = False
        after = probe()
        outcomes, j = bench.check(out)
        reps.append({"s": elapsed, "scale": scale(before, after), "outcomes": outcomes,
                     "j": j, "spans": (lo, tracer.mark()) if traced else None})
        used = time.perf_counter() - begin
        if len(reps) >= (2 if tracer else 1) and used + elapsed > seconds:
            return bench, loads, reps
        _, before = load(spec, tracer, loads, after)


def per_layer(tracer: Tracer, reps) -> dict[str, float]:
    """Per-rep layer figures: exact counts from the first traced rep, wall
    times as the median over traced reps, load_model as the median load."""
    traced = [layer_totals(tracer.spans, *r["spans"]) for r in reps if r["spans"]]
    t_on = statistics.median(r["s"] for r in reps if r["spans"])
    t_off = statistics.median(r["s"] for r in reps if not r["spans"])
    loads = [e - s for name, s, e, _, _ in tracer.spans if name == "model_io.load_model"]
    out = {}
    for metric, _unit in PER_LAYER:
        layer, _, field = metric.rpartition(".")
        if metric == "trace.overhead_pct":
            out[metric] = 100.0 * (t_on / t_off - 1.0)
        elif layer == "model_io.load_model":
            out[metric] = statistics.median(loads)
        elif field in ("calls", "failed"):
            out[metric] = traced[0].get(layer, {}).get(field, 0)
        else:
            out[metric] = statistics.median(t.get(layer, {}).get(field, 0.0) for t in traced)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--spec", required=True, type=Path)
    parser.add_argument("--index", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace-out", type=Path, help="write spans here; enables tracing")
    parser.add_argument("--no-refs", action="store_true", help="skip reference checks")
    args = parser.parse_args()

    tracer = Tracer() if args.trace_out else None
    if tracer:
        tracer.install()
    ref = None if args.no_refs else wl.load_refs(args.workload, args.index)
    bench, loads, reps = measure(
        args.spec, lambda model: wl.WORKLOADS[args.workload](model, args.index, ref),
        args.seconds, tracer)
    toy = wl.check_toy_star()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = [r for r in reps if not r["spans"]]
    result = {
        "reps": [[r["s"], r["scale"]] for r in plain],
        "ops_per_rep": [len(r["outcomes"]) for r in plain],
        "outcomes": [o for r in reps for o in r["outcomes"]] + [toy],
        "best_j": plain[0]["j"],
        "loads": loads,
        "peak_rss_mb": peak_rss_mb,
        "ops_label": bench.ops_label,
    }
    if tracer:
        result["per_layer"] = per_layer(tracer, reps)
        tracer.write(args.trace_out)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
