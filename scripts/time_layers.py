#!/usr/bin/env python3
"""Time path building, Furness balancing, one objective evaluation, MSA-5
assignment and model loading on a grid instance.

Builds grid_region(NX, NY, seed=0), then times with time.perf_counter, each
repeated and reported as the median:

  * the PathSet build at free-flow times (shortest-path trees and their
    loading order);
  * furness_balance of the population -> population gravity seed at
    mu = 0.8 and beta 0.08, 0.3 and 1.0 (exponential deterrence), with its
    outcome;
  * one one-off ModelObjective evaluation at (mu, beta) = (0.8, 0.08)
    against 250 counts generated there with GEH noise 1 (every
    positive-flow link, if the grid has fewer);
  * assign_iterative of that one stratum with n_outer = 5 and gap_tol = 0,
    so all five MSA iterations run;
  * load_model of the instance, its counts and that stratum, written once
    with write_model to a temporary directory.

Prints one JSON object. Wall times depend on the machine; compare two
versions of flowfit by running this script against each, alternately.

    python scripts/time_layers.py --grid 30x30 --repeats 3
"""

import argparse
import json
import platform
import statistics
import tempfile
import time

import numpy as np

from flowfit.assignment import PathSet, assign_iterative
from flowfit.calibrate import ModelObjective
from flowfit.demand import DemandStratum, furness_balance, generate_trip_ends, seed_matrix
from flowfit.model_io import load_model, write_model
from flowfit.network import free_flow_times
from flowfit.sample_models import grid_region, synthetic_counts

MU, J_BETA = 0.8, 0.08
FURNESS_BETAS = (0.08, 0.3, 1.0)
GRID_SEED = 0
N_COUNTS = 250


def timed(fn, repeats):
    """(median seconds, every run's seconds, outcome of the last run)."""
    runs, outcome = [], "ok"
    for _ in range(repeats):
        t0 = time.perf_counter()
        try:
            fn()
            outcome = "ok"
        except Exception as exc:  # a failing run is timed and named, not hidden
            outcome = type(exc).__name__
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs), runs, outcome


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--grid", default="30x30", help="NXxNY zones (default 30x30)")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    nx, ny = (int(v) for v in args.grid.lower().split("x"))

    zones, net = grid_region(nx, ny, seed=GRID_SEED)
    median, runs, outcome = timed(lambda: PathSet(net, free_flow_times(net)), args.repeats)
    rows = [{"layer": "PathSet build (free flow)", "mu": None, "beta": None,
             "median_s": median, "runs_s": runs, "outcome": outcome}]

    costs = PathSet(net, free_flow_times(net)).cost_matrix()
    by_id = {z.zone_id: z for z in zones}
    stratum = DemandStratum("all", "population", "population", MU, J_BETA)
    ends = generate_trip_ends([by_id[z] for z in costs.zone_ids], stratum)

    for beta in FURNESS_BETAS:
        seed = seed_matrix(ends, costs, beta, "exponential")
        median, runs, outcome = timed(lambda: furness_balance(seed, ends), args.repeats)
        rows.append({"layer": "furness_balance", "mu": MU, "beta": beta,
                     "median_s": median, "runs_s": runs, "outcome": outcome})

    flows = assign_iterative(net, zones, [stratum], 1).flows
    n_counts = min(N_COUNTS, sum(q > 0 for q in flows.values()))
    counts = synthetic_counts(zones, net, [stratum], n_counts=n_counts, noise=1.0,
                              noise_kind="geh", seed=GRID_SEED + 1)
    objective = ModelObjective(zones, net, [stratum], counts, assignment_mode="oneoff")
    weights = np.array([MU, J_BETA])
    objective(weights)  # the free-flow path set is built once, outside the timing
    median, runs, outcome = timed(lambda: objective(weights), args.repeats)
    rows.append({"layer": "one J eval (one-off)", "mu": MU, "beta": J_BETA,
                 "median_s": median, "runs_s": runs, "outcome": outcome,
                 "j": float(objective(weights))})

    median, runs, outcome = timed(
        lambda: assign_iterative(net, zones, [stratum], 5, gap_tol=0.0), args.repeats)
    rows.append({"layer": "MSA-5 assign_iterative", "mu": MU, "beta": J_BETA,
                 "median_s": median, "runs_s": runs, "outcome": outcome})

    with tempfile.TemporaryDirectory() as tmp:
        spec = write_model(tmp, zones, net, counts, [stratum])
        median, runs, outcome = timed(lambda: load_model(spec), args.repeats)
    rows.append({"layer": "load_model", "mu": None, "beta": None,
                 "median_s": median, "runs_s": runs, "outcome": outcome})

    print(json.dumps({
        "instance": f"grid_region({nx}, {ny}, seed={GRID_SEED})",
        "zones": len(zones), "links": len(net.links),
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "cpu": platform.processor() or platform.machine()},
        "rows": rows,
    }, indent=2))


if __name__ == "__main__":
    main()
