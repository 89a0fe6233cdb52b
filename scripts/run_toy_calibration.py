#!/usr/bin/env python3
"""Calibration demo on the bundled 8-zone instance.

Generates counts at the documented ground-truth weights, starts from a
deliberately bad guess, and prints the GEH error before and after learning
with both optimizers.
"""

import argparse
import time

from flowfit.calibrate import calibrate
from flowfit.sample_models import (
    TOY_TRUE_BETA,
    TOY_TRUE_MU,
    eight_zone_star,
    synthetic_counts,
    toy_strata,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--noise", type=float, default=0.05,
                        help="multiplicative count noise sigma (default 0.05)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    zones, network = eight_zone_star()
    truth = toy_strata(TOY_TRUE_MU, TOY_TRUE_BETA)
    counts = synthetic_counts(zones, network, truth,
                              noise=args.noise, seed=args.seed)
    print(f"ground truth: mu={TOY_TRUE_MU}, beta={TOY_TRUE_BETA}, "
          f"{len(counts)} counts, noise {args.noise:.0%}")

    for method in ("nelder_mead", "simulated_annealing"):
        start = time.perf_counter()
        res = calibrate(zones, network, toy_strata(), counts,
                        method=method, seed=args.seed,
                        sa={"n_sweeps": 50, "steps_per_sweep": 10})
        weights = {f"{e.stratum}.{e.param}": e.value
                   for e in res.best_weights.entries}
        print(f"\n{method}: J {res.history[0][1]:.3f} -> {res.best_objective:.3f} "
              f"in {res.n_evaluations} evaluations "
              f"({time.perf_counter() - start:.2f}s)")
        for name, value in weights.items():
            print(f"  {name} = {value:.4f}")


if __name__ == "__main__":
    main()
