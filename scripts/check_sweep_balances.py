#!/usr/bin/env python3
"""Check J at the benchmark's sweep points against long in-place Furness runs.

Builds the sweep_grid10 instance of perfbench (grid_region(10, 8, 0), 250
counts with 10% flow noise, one population stratum) and, for each seed,
its 120 stratified points over the default box. At every point it
evaluates the one-off ModelObjective twice:

  * as it is, recording the largest relative margin deviation of every
    furness_balance result;
  * with furness_balance replaced by the plain in-place Furness loop
    (rows, then columns, summing the whole matrix) run for up to
    --max-iter sweeps.

Prints one JSON line per seed: the points with a finite J, the worst margin
deviation, the points where the long run converged, the largest relative J
difference over those points, and the balances that failed; exits 1 if any
point's J is not finite.

    PYTHONPATH=src python scripts/check_sweep_balances.py --seeds 0 1 2
"""

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from flowfit import demand
from flowfit.calibrate import ModelObjective
from flowfit.model_io import load_model

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def in_place_furness(max_iter, tol=demand.DEFAULT_FURNESS_TOL):
    def balance(seed, ends):
        T = np.array(seed.trips, dtype=float)
        O, D = ends.origins, ends.destinations
        for _ in range(max_iter):
            T *= (O / T.sum(axis=1))[:, None]
            T *= D / T.sum(axis=0)
            deviation = max(np.abs(T.sum(axis=1) / O - 1.0).max(),
                            np.abs(T.sum(axis=0) / D - 1.0).max())
            if deviation <= tol:
                return demand.ODMatrix(seed.zone_ids, T)
        raise demand.FurnessConvergenceError(float(deviation), max_iter)
    return balance


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--max-iter", type=int, default=100_000)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        model = load_model(workloads.build_sweep(Path(tmp), 0))
    objective = ModelObjective(model.zones, model.network, model.strata, model.counts)
    balance = demand.furness_balance
    margins = []

    def recorded(seed, ends):
        trips = balance(seed, ends).trips
        margins.append(max(np.abs(trips.sum(axis=1) / ends.origins - 1.0).max(),
                           np.abs(trips.sum(axis=0) / ends.destinations - 1.0).max()))
        return demand.ODMatrix(seed.zone_ids, trips)

    for seed in args.seeds:
        points = workloads.sweep_points(seed)
        margins.clear()
        objective.furness_failures = 0
        demand.furness_balance = recorded
        j = np.array([objective(x) for x in points])
        failures = objective.furness_failures
        demand.furness_balance = in_place_furness(args.max_iter)
        j_long = np.array([objective(x) for x in points])
        demand.furness_balance = balance
        both = np.isfinite(j_long)
        print(json.dumps({
            "seed": seed, "points": len(points),
            "finite": int(np.isfinite(j).sum()),
            "worst_margin_deviation": max(margins),
            "long_run_converged": int(both.sum()),
            "worst_rel_j_difference": float(
                np.max(np.abs(j[both] - j_long[both]) / np.abs(j_long[both]))),
            "furness_failures": failures,
        }), flush=True)
        if not math.isfinite(j.sum()):
            sys.exit(1)


if __name__ == "__main__":
    main()
