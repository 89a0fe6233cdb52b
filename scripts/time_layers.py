#!/usr/bin/env python3
"""Time path building, Furness balancing, one objective evaluation, MSA-5
assignment, model loading and the criterion-7 split grid.

Builds grid_region(NX, NY, seed=0), then times with time.perf_counter, each
repeated and reported as the median:

  * the PathSet build at free-flow times (shortest-path trees and their
    loading order), shortest_path_tree alone on the same call, and its
    label rounds (network._frontier_distances) alone, so the tie pass and
    the rest of the build (hop depths, their sort and the split into
    levels) read as differences;
  * furness_balance of the population -> population gravity seed at
    mu = 0.8 and beta 0.08, 0.3 and 1.0 (exponential deterrence), with its
    outcome, its sweeps, whether it handed the balance to Newton, and the
    relaxation factor omega of its last sweep (1 for a plain sweep);
  * one Newton step (demand._newton_step on the beta 0.3 seed) against one
    Furness sweep, with their cost ratio beside the flop model's, which
    furness_balance prices a Newton step at;
  * at beta 0.3 and 1.0, the hand-off to Newton that furness_balance makes:
    the sweeps before it, its Newton steps, and demand._newton_balance
    timed from the scales it was handed, also counted in sweeps;
  * one one-off ModelObjective evaluation at (mu, beta) = (0.8, 0.08)
    against 250 counts generated there with GEH noise 1 (every
    positive-flow link, if the grid has fewer);
  * assign_iterative of that one stratum with n_outer = 5 and gap_tol = 0,
    so all five MSA iterations run;
  * load_model of the instance, its counts and that stratum, written once
    with write_model to a temporary directory;
  * split_test over the criterion-7 grid, 7 fractions x 10 seeds, on
    grid_region(10, 8, seed=0) whatever NXxNY is.

Each row also reports minor_faults: the median, over its timed runs, of
the minor page faults each run took (resource.getrusage of this process).
Fresh memory costs time that a layer's arithmetic does not show, so a
change that lowers a peak should report the faults beside it.

A network keeps its free-flow path set once built, so each repeat of the
MSA-5 and split-grid rows runs on its own copy of the network, made outside
the timing: MSA-5 times five path builds and the split grid one free-flow
build per repeat. A copy also builds its link arrays (Network.bpr and the
like) again inside the timing, a few milliseconds at 30x30.

Prints one JSON object, with the BLAS thread settings (OPENBLAS_NUM_THREADS
and OMP_NUM_THREADS, null when unset) and the CPU count. Wall times depend
on the machine; compare two versions of flowfit by running this script
against each, alternately.

    python scripts/time_layers.py --grid 30x30 --repeats 3
"""

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import tempfile
import time

import numpy as np

from flowfit import demand
from flowfit.assignment import assign_iterative
from flowfit.calibrate import ModelObjective, split_test
from flowfit.demand import (
    FURNESS_RATE_WINDOW,
    DemandStratum,
    FurnessConvergenceError,
    furness_balance,
    generate_trip_ends,
    seed_matrix,
)
from flowfit.model_io import load_model, write_model
from flowfit.network import PathSet, _frontier_distances, free_flow_times, shortest_path_tree
from flowfit.sample_models import grid_region, synthetic_counts

MU, J_BETA = 0.8, 0.08
FURNESS_BETAS = (0.08, 0.3, 1.0)
HANDOFF_BETAS = (0.3, 1.0)
SWEEP_CALLS = 10
GRID_SEED = 0
N_COUNTS = 250
# the criterion-7 split grid: its instance, count noise, start and cells
SPLIT_GRID = (10, 8)
SPLIT_NOISE = 0.10
SPLIT_START = (1.0, 0.1)
SPLIT_FRACTIONS = tuple(round(0.3 + 0.1 * k, 1) for k in range(7))
SPLIT_SEEDS = range(10)


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def timed(fn, repeats):
    """A row's timing fields: the median and every run's seconds, the outcome
    of the last run, and the median of each run's minor page faults."""
    runs, faults, outcome = [], [], "ok"
    for _ in range(repeats):
        f0, t0 = minor_faults(), time.perf_counter()
        try:
            fn()
            outcome = "ok"
        except Exception as exc:  # a failing run is timed and named, not hidden
            outcome = type(exc).__name__
        runs.append(time.perf_counter() - t0)
        faults.append(minor_faults() - f0)
    return {"median_s": statistics.median(runs), "runs_s": runs, "outcome": outcome,
            "minor_faults": statistics.median(faults)}


def copies(network, n):
    """n copies of network, each without its cached free-flow path set."""
    return [dataclasses.replace(network) for _ in range(n)]


def sweeps(seed, ends):
    """SWEEP_CALLS * FURNESS_RATE_WINDOW plain Furness sweeps: furness_balance
    calls that tol = 0 does not stop early and that end before their first
    projection could relax a sweep or hand the balance to Newton. Each
    call's setup (a seed check and one matrix-vector product) adds about a
    tenth to their time."""
    for _ in range(SWEEP_CALLS):
        try:
            furness_balance(seed, ends, tol=0.0, max_iter=FURNESS_RATE_WINDOW)
        except FurnessConvergenceError:
            pass


def traced(seed, ends):
    """(its sweeps, its last sweep's relaxation factor, its hand-off) for one
    furness_balance run. The hand-off to Newton, made at most once, is
    (sweeps before it, its Newton steps, whether it balanced, its
    arguments), or None when there is none. A sweep is two _scale calls."""
    originals = {name: getattr(demand, name)
                 for name in ("_scale", "_relaxed", "_newton_step", "_newton_balance")}
    calls, handed, omega = dict.fromkeys(originals, 0), [], [1.0]

    def spy(name):
        def counted(*args):
            calls[name] += 1
            if name == "_relaxed":
                omega[0] = args[2]
            swept = calls["_scale"] // 2
            out = originals[name](*args)
            if name == "_newton_balance":
                handed.append((swept, calls["_newton_step"], out is not None, args))
            return out
        return counted

    for name in originals:
        setattr(demand, name, spy(name))
    try:
        furness_balance(seed, ends)
    finally:
        for name, original in originals.items():
            setattr(demand, name, original)
    return calls["_scale"] // 2, omega[0], handed[0] if handed else None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--grid", default="30x30", help="NXxNY zones (default 30x30)")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    nx, ny = (int(v) for v in args.grid.lower().split("x"))

    zones, net = grid_region(nx, ny, seed=GRID_SEED)
    rows = [{"layer": "PathSet build (free flow)", "mu": None, "beta": None,
             **timed(lambda: PathSet(net, free_flow_times(net)), args.repeats)}]
    anchors = [net.zone_anchors[z] for z in sorted(net.zone_anchors)]
    rows.append({"layer": "shortest_path_tree (free flow)", "mu": None, "beta": None,
                 **timed(lambda: shortest_path_tree(net, free_flow_times(net), anchors),
                         args.repeats)})
    tail, head = net.link_ends  # every grid link joins two known nodes
    sources = np.array([net.node_index[a] for a in anchors])
    rows.append({"layer": "_frontier_distances (free flow)", "mu": None, "beta": None,
                 **timed(lambda: _frontier_distances(
                     len(net.node_ids), tail, head, free_flow_times(net), sources),
                     args.repeats)})

    costs = PathSet(net, free_flow_times(net)).cost_matrix()
    by_id = {z.zone_id: z for z in zones}
    stratum = DemandStratum("all", "population", "population", MU, J_BETA)
    ends = generate_trip_ends([by_id[z] for z in costs.zone_ids], stratum)

    for beta in FURNESS_BETAS:
        seed = seed_matrix(ends, costs, beta, "exponential")
        swept, omega, handed = traced(seed, ends)
        rows.append({"layer": "furness_balance", "mu": MU, "beta": beta,
                     **timed(lambda: furness_balance(seed, ends), args.repeats),
                     "sweeps": swept, "handed_off": handed is not None, "omega": omega})

    seed = seed_matrix(ends, costs, FURNESS_BETAS[1], "exponential")
    sweep_s = timed(lambda: sweeps(seed, ends), args.repeats)["median_s"]
    sweep_s /= SWEEP_CALLS * FURNESS_RATE_WINDOW
    live_o, live_d = ends.origins > 0, ends.destinations > 0
    P = seed.trips[np.ix_(live_o, live_d)]
    o, d = ends.origins[live_o], ends.destinations[live_d]
    step = timed(
        lambda: demand._newton_step(P, P.sum(axis=1), P.sum(axis=0), o, d), args.repeats)
    flop_model = demand.newton_step_sweeps(*seed.trips.shape)
    rows.append({"layer": "Newton step / sweep", "mu": MU, "beta": FURNESS_BETAS[1], **step,
                 "sweep_s": sweep_s, "ratio": step["median_s"] / sweep_s,
                 "flop_model": flop_model,
                 "price_sweeps": demand.NEWTON_SWITCH_STEPS * flop_model})

    for beta in HANDOFF_BETAS:
        seed = seed_matrix(ends, costs, beta, "exponential")
        row = {"layer": "Newton hand-off", "mu": MU, "beta": beta, "sweeps_before": None,
               "newton_steps": 0, "median_s": None, "runs_s": [], "outcome": "no hand-off",
               "minor_faults": None}
        handed = traced(seed, ends)[2]
        if handed is not None:
            swept, steps, balanced, newton_args = handed
            row.update(timed(lambda: demand._newton_balance(*newton_args), args.repeats))
            row.update(sweeps_before=swept, newton_steps=steps,
                       outcome="ok" if balanced else "failed",
                       cost_in_sweeps=row["median_s"] / sweep_s)
        rows.append(row)

    flows = assign_iterative(net, zones, [stratum], 1).flows
    n_counts = min(N_COUNTS, sum(q > 0 for q in flows.values()))
    counts = synthetic_counts(zones, net, [stratum], n_counts=n_counts, noise=1.0,
                              noise_kind="geh", seed=GRID_SEED + 1)
    objective = ModelObjective(zones, net, [stratum], counts, assignment_mode="oneoff")
    weights = np.array([MU, J_BETA])
    objective(weights)  # the free-flow path set is built once, outside the timing
    rows.append({"layer": "one J eval (one-off)", "mu": MU, "beta": J_BETA,
                 **timed(lambda: objective(weights), args.repeats),
                 "j": float(objective(weights))})

    nets = copies(net, args.repeats)
    rows.append({"layer": "MSA-5 assign_iterative", "mu": MU, "beta": J_BETA,
                 **timed(lambda: assign_iterative(nets.pop(), zones, [stratum], 5, gap_tol=0.0),
                         args.repeats)})

    with tempfile.TemporaryDirectory() as tmp:
        spec = write_model(tmp, zones, net, counts, [stratum])
        load = timed(lambda: load_model(spec), args.repeats)
    rows.append({"layer": "load_model", "mu": None, "beta": None, **load})

    split_zones, split_net = grid_region(*SPLIT_GRID, seed=GRID_SEED)
    split_truth = [DemandStratum("all", "population", "population", MU, J_BETA)]
    split_counts = synthetic_counts(split_zones, split_net, split_truth, n_counts=N_COUNTS,
                                    noise=SPLIT_NOISE, seed=GRID_SEED + 1)
    split_start = [DemandStratum("all", "population", "population", *SPLIT_START)]
    results, nets = [], copies(split_net, args.repeats)
    split = timed(lambda: results.append(split_test(
        split_zones, nets.pop(), split_start, split_counts,
        fractions=SPLIT_FRACTIONS, seeds=SPLIT_SEEDS)), args.repeats)
    test_geh = {f: [r.test_geh for r in results[-1] if r.split_fraction == f]
                for f in SPLIT_FRACTIONS} if results else {}
    rows.append({"layer": "criterion-7 split grid", "mu": None, "beta": None, **split,
                 "instance": f"grid_region({SPLIT_GRID[0]}, {SPLIT_GRID[1]}, seed={GRID_SEED})",
                 "calibrations": len(results[-1]) if results else 0,
                 "test_geh_std": {str(f): float(np.std(g)) for f, g in test_geh.items()}})

    print(json.dumps({
        "instance": f"grid_region({nx}, {ny}, seed={GRID_SEED})",
        "zones": len(zones), "links": len(net.links),
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "cpu": platform.processor() or platform.machine(),
                    "cpu_count": os.cpu_count(),
                    "blas_threads": {name: os.environ.get(name) for name in
                                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}},
        "rows": rows,
    }, indent=2))


if __name__ == "__main__":
    main()
