"""The benchmark's library calls: perfbench/workloads.py calls flowfit with
pinned keywords and imports, so each workload is built small and run once
here; none of its operations may come out wrong."""

import importlib.util
import math
from pathlib import Path

import pytest

from flowfit.model_io import load_model

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# builder keywords per workload: calib and msa shrunk, the sweep as it is
SMALL = {"calib_grid20": {"size": (8, 6), "n_counts": 100},
         "msa_grid20": {"size": (8, 6), "n_counts": 100},
         "sweep_grid10": {}}


@pytest.mark.parametrize("name", SMALL)
def test_workload_runs_without_a_wrong_outcome(workloads, tmp_path, name):
    spec = workloads.BUILDERS[name](tmp_path, 0, **SMALL[name])
    bench = workloads.WORKLOADS[name](load_model(spec), 0, ref=None)
    outcomes, j = bench.check(bench.call())
    assert outcomes
    assert workloads.WRONG not in outcomes
    assert math.isfinite(j)


def test_toy_star_ties_match_the_stored_flows(workloads):
    assert workloads.check_toy_star() == workloads.OK
