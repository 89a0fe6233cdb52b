"""flowfit benchmark: one workload, one seed, one fresh timed process.

    python3 perfbench/run.py --workload calib_grid20 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; flowfit is imported from src/. The
run builds the workload's instance for the seed (cached under
.perfbench_cache/), then starts perfbench/worker.py in a fresh interpreter
with BLAS/OpenMP threads capped at the CPU count. The worker loads the model
(setup_s), repeats the workload's call for --seconds, and checks every
output against the references in perfbench/refs/. A fixed probe kernel
between timed blocks converts their wall times to the reference speed
(probe.py). With --trace 1 the worker also wraps each layer's public calls
in spans and reports per-layer figures instead of the end-to-end ones.

Prints a readable summary, then one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"failed" counts operations whose outcome departs from the reference; the
operations that also fail in the reference implementation are counted in
success_ratio and fail_ratio, not in "failed".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench_cache"
OUT = ROOT / ".perfbench_out"
WORKER_TIMEOUT_S = 170

# End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "evals_per_s": "1/s",
    "best_j": "GEH",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def cached_instance(name: str, idx: int) -> Path:
    """The instance's model.yaml, written before any timed process starts."""
    import workloads as wl

    final = CACHE / wl.instance_key(name, idx)
    if not (final / "model.yaml").is_file():
        tmp = CACHE / f"{final.name}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        wl.BUILDERS[name](tmp, idx)
        shutil.rmtree(final, ignore_errors=True)
        tmp.rename(final)
    return final / "model.yaml"


def run_worker(args, spec: Path, idx: int, nproc: int, no_refs: bool = False) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--spec", str(spec), "--index", str(idx), "--seconds", str(args.seconds)]
    if args.trace:
        OUT.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")]
    if no_refs:
        cmd.append("--no-refs")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(res: dict, trace: bool) -> tuple[dict, dict]:
    """(result line, readable extras) from the worker's report."""
    outcomes = res["outcomes"]
    counts = {k: outcomes.count(k) for k in ("ok", "expected", "wrong")}
    attempted = len(outcomes)
    if trace:
        from spans import PER_LAYER

        metrics = {name: {"value": res["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        # wall times at the reference speed; NOTES.md, "Noise on this machine"
        reps = [s * k for s, k in res["reps"]]
        values = {
            "setup_s": statistics.median(s * k for s, k in res["loads"]),
            "run_s": statistics.median(reps),
            "evals_per_s": statistics.median(n / s for n, s in zip(res["ops_per_rep"], reps)),
            "best_j": res["best_j"],
            "peak_rss_mb": res["peak_rss_mb"],
            "success_ratio": counts["ok"] / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    line = {"correct": counts["wrong"] == 0, "attempted": attempted,
            "failed": counts["wrong"], "metrics": metrics}
    extras = {"fail_ratio": (counts["expected"] + counts["wrong"]) / attempted,
              "outcomes": counts,
              "wall_run_s": statistics.median(s for s, _ in res["reps"]),
              "wall_setup_s": statistics.median(s for s, _ in res["loads"]),
              "speed": statistics.median(1.0 / k for _, k in res["reps"])}
    return line, extras


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "flowfit" / "__init__.py").is_file():
        fail(f"no flowfit sources under {ROOT / 'src'}; run from a source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import flowfit
    import workloads as wl

    if Path(flowfit.__file__).resolve().parent != ROOT / "src" / "flowfit":
        fail(f"flowfit imported from {flowfit.__file__}, not from this checkout")
    if args.workload not in wl.NAMES:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(wl.NAMES)}")

    idx = args.seed % wl.POOL
    info = machine_info()
    spec = cached_instance(args.workload, idx)
    res = run_worker(args, spec, idx, info["nproc"])
    line, extras = summarize(res, bool(args.trace))

    print(f"workload {args.workload}  seed {args.seed} (pool entry {idx})  "
          f"trace {args.trace}")
    print("machine " + "  ".join(f"{k} {v}" for k, v in info.items()))
    print(f"{len(res['reps'])} untraced reps of {res['ops_per_rep'][0]} {res['ops_label']}, "
          f"{len(res['loads'])} loads; outcomes {extras['outcomes']}")
    print(f"wall medians: run {extras['wall_run_s']:.4g} s, setup {extras['wall_setup_s']:.4g} s; "
          f"machine at {extras['speed']:.3g}x the reference probe time")
    for name, m in line["metrics"].items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_ratio':<36} {extras['fail_ratio']:>14.6g} ratio")
    OUT.mkdir(exist_ok=True)
    record = {"args": vars(args), "machine": info, "worker": res, **line, **extras}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(line))


if __name__ == "__main__":
    main()
