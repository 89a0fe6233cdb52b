"""Compute the stored references in refs/ with the flowfit under src/.

The references were made with flowfit as of the commit that added this
benchmark. Regenerate them only when the benchmark's inputs change, never
to absorb a change in results.

    python3 perfbench/make_refs.py [workload ...]   # default: all, plus toy_star
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from flowfit.model_io import load_model  # noqa: E402


def run(name: str, idx: int, tmp: Path):
    model = load_model(wl.BUILDERS[name](tmp / f"{name}-{idx}", idx))
    bench = wl.WORKLOADS[name](model, idx)
    return bench, bench.call()


def make(name: str) -> dict:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for idx in range(wl.POOL):
            bench, out = run(name, idx, Path(tmp))
            if isinstance(out, Exception):
                raise out
            if name == "calib_grid20":
                rows.append({"best_j": out.best_objective,
                             "best_x": out.best_weights.values(),
                             "n_evals": out.n_evaluations})
            elif name == "msa_grid20":
                ids = sorted(out.flows)
                rows.append({"link_ids": ids, "flows": [out.flows[k] for k in ids],
                             "j": bench.check(out)[1]})
            else:
                rows.append({"points": bench.points, "j": out})
            print(name, idx, {k: v for k, v in rows[-1].items()
                              if np.ndim(v) == 0}, flush=True)
    arrays = {k: np.array([r[k] for r in rows]) for k in rows[0]}
    if "link_ids" in arrays:
        if not (arrays["link_ids"] == arrays["link_ids"][0]).all():
            raise RuntimeError("link ids differ across the pool")
        arrays["link_ids"] = arrays["link_ids"][0]
    return arrays


def main(names) -> None:
    wl.REFS.mkdir(exist_ok=True)
    for name in names:
        if name == "toy_star":
            flows = wl.toy_star_flows()
            ids = sorted(flows)
            arrays = {"link_ids": np.array(ids), "flows": np.array([flows[k] for k in ids])}
        else:
            arrays = make(name)
        np.savez_compressed(wl.REFS / f"{name}.npz", **arrays)


if __name__ == "__main__":
    main(sys.argv[1:] or [*wl.NAMES, "toy_star"])
