#!/usr/bin/env python3
"""Time path building, Furness balancing, one objective evaluation, MSA-5
assignment, model loading and the criterion-7 split grid.

Builds grid_region(NX, NY, seed=0), then times with time.perf_counter, each
repeated and reported as the median:

  * the PathSet build at free-flow times (shortest-path trees and their
    loading order), with held_bytes, the summed nbytes of the arrays the
    built path set holds; shortest_path_tree alone on the same call, and its
    label rounds (network._frontier_distances) alone, run in the same
    origin blocks as the engine runs them (network._row_blocks), so the tie
    pass and the rest of the build (hop depths, their sort and the split
    into levels) read as differences;
  * seed_matrix, the population -> population gravity seed over the
    free-flow skim, at mu = 0.8 and beta 0.08 (exponential deterrence);
  * furness_balance of that gravity seed at mu = 0.8 and beta 0.08, 0.3
    and 1.0 (exponential deterrence), with its
    outcome, its sweeps, whether it handed the balance to Newton, and the
    relaxation factor omega of its last sweep (1 for a plain sweep);
  * one Newton step (demand._newton_step on the beta 0.3 seed) against one
    Furness sweep, with their cost ratio beside the flop model's, which
    furness_balance prices a Newton step at;
  * at beta 0.3 and 1.0, the hand-off to Newton that furness_balance makes:
    the sweeps before it, its Newton steps, and demand._newton_balance
    timed from the scales it was handed, also counted in sweeps;
  * one PathSet.flow_vector load of the beta 0.08 balanced OD on the
    free-flow path set, with its tree levels and its loader's accumulator
    entries (origins x nodes);
  * one one-off ModelObjective evaluation at (mu, beta) = (0.8, 0.08)
    against 250 counts generated there with GEH noise 1 (every
    positive-flow link, if the grid has fewer);
  * the same on grid_region(10, 8, seed=0) whatever NXxNY is, against the
    criterion-7 grid's counts, at (0.8, 0.08) and at (0.8, 1.0), where the
    balance hands off to Newton: each row also gives that balance's sweeps,
    omega and hand-off, and the median seconds of the seed_matrix,
    furness_balance and PathSet.flow_vector calls the evaluation makes;
  * assign_iterative of that one stratum with n_outer = 5 and gap_tol = 0,
    so all five MSA iterations run;
  * load_model of the instance, its counts and that stratum, written once
    with write_model to a temporary directory, split into its parts as
    timed inside the same loads: the spec parse (model_io._parse_spec),
    each of the four table readers, the network check (network.findings,
    its generator drained) and the rest, load_model less those parts. The
    load_model row and each table's give the data rows read and rows read
    per second;
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
and OMP_NUM_THREADS, null when unset), the CPU count and the strands a path
build runs at once (network.path_workers). Wall times depend
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

from flowfit import demand, model_io
from flowfit.assignment import assign_iterative
from flowfit.calibrate import ModelObjective, split_test
from flowfit.demand import (
    FURNESS_RATE_WINDOW,
    DemandStratum,
    FurnessConvergenceError,
    ZoneAttributes,
    furness_balance,
    seed_matrix,
)
from flowfit.model_io import write_model
from flowfit.network import (
    PathSet,
    _frontier_distances,
    _row_blocks,
    free_flow_times,
    path_workers,
    shortest_path_tree,
)
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
# one-off J on the criterion-7 instance: the benchmark's generating weights
# and a point whose balance hands off to Newton
SMALL_J_BETAS = (J_BETA, 1.0)
# load_model's parts: each its model_io name, and the table it reads
LOAD_PARTS = {"spec parse": ("_parse_spec", None),
              "zones.csv": ("load_zone_rows", "zones.csv"),
              "nodes.csv": ("load_node_rows", "nodes.csv"),
              "links.csv": ("load_link_rows", "links.csv"),
              "counts.csv": ("load_count_rows", "counts.csv"),
              "network check": ("findings", None)}


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


def held_bytes(obj):
    """The summed nbytes of the numpy arrays obj holds: itself, or through
    its lists, tuples and attributes."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(held_bytes(item) for item in obj)
    return sum(held_bytes(value) for value in getattr(obj, "__dict__", {}).values())


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


def traced(run):
    """(its sweeps, its last sweep's relaxation factor, its hand-off) for the
    one furness_balance that run() makes. The hand-off to Newton, made at
    most once, is (sweeps before it, its Newton steps, whether it balanced,
    a copy of its arguments), or None when there is none. A sweep is two
    _scale calls."""
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
                # the sweeps that resume after a failed hand-off write into
                # the scales they handed over
                kept = tuple(np.copy(a) if isinstance(a, np.ndarray) else a for a in args)
                handed.append((swept, calls["_newton_step"], out is not None, kept))
            return out
        return counted

    for name in originals:
        setattr(demand, name, spy(name))
    try:
        run()
    finally:
        for name, original in originals.items():
            setattr(demand, name, original)
    return calls["_scale"] // 2, omega[0], handed[0] if handed else None


def sampled(samples):
    """A row's timing fields from each run's (seconds, minor faults)."""
    runs = [s for s, _ in samples]
    return {"median_s": statistics.median(runs), "runs_s": runs, "outcome": "ok",
            "minor_faults": statistics.median(f for _, f in samples)}


def load_model_rows(directory, spec, repeats):
    """The load_model row and one row per part of it (LOAD_PARTS), each part
    timed by a spy inside the loads that the load_model row times, and the
    rest: each load less its parts. A table's row also gives its data rows
    and rows read per second, and so does the load_model row for all four."""
    spied = {"load_model": ("load_model", None), **LOAD_PARTS}
    spent = {part: [] for part in spied}  # each call's (seconds, minor faults)
    originals = {name: getattr(model_io, name) for name, _ in spied.values()}

    def spy(part, fn):
        def counted(*args):
            f0, t0 = minor_faults(), time.perf_counter()
            out = fn(*args)
            if part == "network check":  # findings is a generator
                out = iter(list(out))
            spent[part].append((time.perf_counter() - t0, minor_faults() - f0))
            return out
        return counted

    for part, (name, _) in spied.items():
        setattr(model_io, name, spy(part, originals[name]))
    try:
        for _ in range(repeats):
            model_io.load_model(spec)
    finally:
        for name, original in originals.items():
            setattr(model_io, name, original)

    def table_rows(table):
        with open(os.path.join(directory, table)) as fh:
            return sum(1 for line in fh if line.strip()) - 1

    rows = {table: table_rows(table) for _, table in LOAD_PARTS.values() if table}
    total = sampled(spent["load_model"])
    out = [{"layer": "load_model", "mu": None, "beta": None, **total,
            "rows": sum(rows.values()), "rows_per_s": sum(rows.values()) / total["median_s"]}]
    for part, (_, table) in LOAD_PARTS.items():
        row = {"layer": f"load_model: {part}", "mu": None, "beta": None,
               **sampled(spent[part])}
        if table:
            row.update(rows=rows[table], rows_per_s=rows[table] / row["median_s"])
        out.append(row)
    rest = []
    for k, (seconds, faults) in enumerate(spent["load_model"]):
        parts = [spent[part][k] for part in LOAD_PARTS]
        rest.append((seconds - sum(s for s, _ in parts), faults - sum(f for _, f in parts)))
    out.append({"layer": "load_model: rest", "mu": None, "beta": None, **sampled(rest)})
    return out


def small_objective_rows(zones, net, counts, repeats):
    """The one-off J eval rows on the criterion-7 instance at each of
    SMALL_J_BETAS, with the sweeps, omega and hand-off of its balance and
    the median seconds of the seed, balance and load it makes."""
    objective = ModelObjective(zones, net, [DemandStratum(
        "all", "population", "population", MU, J_BETA)], counts, assignment_mode="oneoff")
    paths = net.free_flow_paths
    attributes = ZoneAttributes(zones, paths.zone_ids)
    rows = []
    for beta in SMALL_J_BETAS:
        weights = np.array([MU, beta])
        stratum = DemandStratum("all", "population", "population", MU, beta)
        ends = attributes.trip_ends(stratum)
        seed = seed_matrix(ends, paths.skim, beta, "exponential")
        od = furness_balance(seed, ends)
        swept, omega, handed = traced(lambda: objective(weights))
        rows.append({
            "layer": "one J eval (one-off, 10x8)", "mu": MU, "beta": beta,
            **timed(lambda: objective(weights), repeats), "j": float(objective(weights)),
            "sweeps": swept, "handed_off": handed is not None, "omega": omega,
            "seed_matrix_s": timed(
                lambda: seed_matrix(ends, paths.skim, beta, "exponential"), repeats)["median_s"],
            "furness_balance_s": timed(lambda: furness_balance(seed, ends), repeats)["median_s"],
            "flow_vector_s": timed(lambda: paths.flow_vector(od), repeats)["median_s"]})
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--grid", default="30x30", help="NXxNY zones (default 30x30)")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    nx, ny = (int(v) for v in args.grid.lower().split("x"))

    zones, net = grid_region(nx, ny, seed=GRID_SEED)
    paths = PathSet(net, free_flow_times(net))
    rows = [{"layer": "PathSet build (free flow)", "mu": None, "beta": None,
             **timed(lambda: PathSet(net, free_flow_times(net)), args.repeats),
             "held_bytes": held_bytes(paths)}]
    anchors = [net.zone_anchors[z] for z in sorted(net.zone_anchors)]
    rows.append({"layer": "shortest_path_tree (free flow)", "mu": None, "beta": None,
                 **timed(lambda: shortest_path_tree(net, free_flow_times(net), anchors),
                         args.repeats)})
    tail, head = net.link_ends  # every grid link joins two known nodes
    sources = np.array([net.node_index[a] for a in anchors])

    def rounds():
        times = free_flow_times(net)
        return _row_blocks(lambda lo, hi: _frontier_distances(
            len(net.node_ids), tail, head, times, sources[lo:hi]), sources.size, tail.size)

    rows.append({"layer": "_frontier_distances (free flow)", "mu": None, "beta": None,
                 **timed(rounds, args.repeats)})

    costs = paths.skim
    stratum = DemandStratum("all", "population", "population", MU, J_BETA)
    ends = ZoneAttributes(zones, costs.zone_ids).trip_ends(stratum)

    rows.append({"layer": "seed_matrix", "mu": MU, "beta": J_BETA,
                 **timed(lambda: seed_matrix(ends, costs, J_BETA, "exponential"),
                         args.repeats)})
    for beta in FURNESS_BETAS:
        seed = seed_matrix(ends, costs, beta, "exponential")
        swept, omega, handed = traced(lambda: furness_balance(seed, ends))
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
        handed = traced(lambda: furness_balance(seed, ends))[2]
        if handed is not None:
            swept, steps, balanced, newton_args = handed
            row.update(timed(lambda: demand._newton_balance(*newton_args), args.repeats))
            row.update(sweeps_before=swept, newton_steps=steps,
                       outcome="ok" if balanced else "failed",
                       cost_in_sweeps=row["median_s"] / sweep_s)
        rows.append(row)

    od = furness_balance(seed_matrix(ends, costs, J_BETA, "exponential"), ends)
    rows.append({"layer": "PathSet.flow_vector (free flow)", "mu": MU, "beta": J_BETA,
                 **timed(lambda: paths.flow_vector(od), args.repeats),
                 "levels": len(paths._levels), "entries": paths._entries})

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

    split_zones, split_net = grid_region(*SPLIT_GRID, seed=GRID_SEED)
    split_truth = [DemandStratum("all", "population", "population", MU, J_BETA)]
    split_counts = synthetic_counts(split_zones, split_net, split_truth, n_counts=N_COUNTS,
                                    noise=SPLIT_NOISE, seed=GRID_SEED + 1)
    rows.extend(small_objective_rows(split_zones, split_net, split_counts, args.repeats))

    nets = copies(net, args.repeats)
    rows.append({"layer": "MSA-5 assign_iterative", "mu": MU, "beta": J_BETA,
                 **timed(lambda: assign_iterative(nets.pop(), zones, [stratum], 5, gap_tol=0.0),
                         args.repeats)})

    with tempfile.TemporaryDirectory() as tmp:
        rows.extend(load_model_rows(tmp, write_model(tmp, zones, net, counts, [stratum]),
                                    args.repeats))

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
                    "cpu_count": os.cpu_count(), "path_workers": path_workers(),
                    "blas_threads": {name: os.environ.get(name) for name in
                                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}},
        "rows": rows,
    }, indent=2))


if __name__ == "__main__":
    main()
