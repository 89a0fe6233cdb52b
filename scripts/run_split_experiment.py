#!/usr/bin/env python3
"""Train/test robustness experiment on a synthetic regional grid.

Calibrates a single stratum on train fractions 0.3..0.9 of 250 noisy
counts, 10 seeds each, and writes the per-cell results as CSV (fraction,
seed, train_geh, test_geh) plus a per-fraction summary to stdout.
"""

import argparse
import time
from pathlib import Path

from flowfit.calibrate import split_test
from flowfit.demand import DemandStratum
from flowfit.metrics import split_summary_text
from flowfit.model_io import write_split_csv
from flowfit.sample_models import grid_region, synthetic_counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out", nargs="?", default="out/split_experiment.csv")
    parser.add_argument("--noise", type=float, default=0.10)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--instance-seed", type=int, default=0)
    args = parser.parse_args()

    zones, network = grid_region(10, 8, seed=args.instance_seed)
    truth = [DemandStratum("all", "population", "population", 0.8, 0.08)]
    counts = synthetic_counts(zones, network, truth, n_counts=250,
                              noise=args.noise, seed=args.instance_seed + 1)
    print(f"{len(zones)} zones, {len(network.links)} links, "
          f"{len(counts)} counts, noise {args.noise:.0%}")

    fractions = [round(0.3 + 0.1 * k, 1) for k in range(7)]
    start = time.perf_counter()
    results = split_test(
        zones, network,
        [DemandStratum("all", "population", "population", 1.0, 0.1)],
        counts, fractions=fractions, seeds=range(args.seeds),
    )
    print(f"{len(results)} calibrations in {time.perf_counter() - start:.1f}s\n")

    print(split_summary_text(results))

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_split_csv(out, results)
    print(f"\nwrote {out}")


if __name__ == "__main__":
    main()
