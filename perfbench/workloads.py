"""Workload instances, their timed calls, and the checks against references.

Every workload draws its inputs from a pool of POOL input sets; the run's
seed picks set ``seed % POOL``. The references in ``refs/`` were computed
by flowfit as of the commit that added the benchmark, for every set in the
pool (see ``make_refs.py``), so any seed can be checked.

An operation ends in one of three outcomes:

- OK: a finite result within tolerance of the reference, or a finite result
  where the reference implementation raised (nothing to compare against);
- EXPECTED: the operation raised or returned a non-finite value where the
  reference implementation did the same;
- WRONG: the operation raised, returned a non-finite value, or left the
  reference tolerance where the reference has a finite value.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np

from flowfit.assignment import assign_iterative
from flowfit.calibrate import ModelObjective, calibrate
from flowfit.demand import DemandStratum, derive_jobs
from flowfit.metrics import evaluate
from flowfit.model_io import AssignmentOptions, CalibrationOptions, write_model
from flowfit.network import Network
from flowfit.sample_models import eight_zone_star, grid_region, synthetic_counts, toy_strata

NAMES = ("calib_grid20", "msa_grid20", "sweep_grid10")
POOL = 16

OK, EXPECTED, WRONG = "ok", "expected", "wrong"

# Nelder-Mead evaluation budget on calib_grid20. Without it the evaluation
# count ranges from 107 to 164 across the pool, and run_s would measure the
# instance rather than the code. At 80 evaluations the best J is within
# 4e-6 (relative) and the weights within 1.3e-4 of the converged optimum on
# every instance in the pool, which the tolerances below allow for.
CALIB_MAX_EVALS = 80

# Count noise on the grid20 instances: every count sits near GEH 1 from the
# model that generated it (MSA-5 for msa_grid20), so J's noise floor, and
# with it best_j, is the same on every instance. With 10% flow noise best_j
# ranged from 2.56 to 3.05 across the pool on calib_grid20.
COUNT_GEH = 1.0

# The default calibration box that simulated annealing samples.
BOX_LO = np.array([0.0, 0.0])
BOX_HI = np.array([5.0, 1.0])
# The sweep's 120 points: one uniform point in each cell of a 12 x 10 grid
# over the box. Stratifying keeps the share of the box where Furness fails
# from swinging between draws; each point is still uniform in its cell.
SWEEP_CELLS = (12, 10)

CALIB_J_RTOL = 1e-5
CALIB_X_ATOL = 1e-3
FLOW_RTOL = 1e-6  # relative to max(|reference flow|, 1 veh/24h)
J_RTOL = 1e-6

REFS = Path(__file__).resolve().parent / "refs"


def _counts_truth():
    return [DemandStratum("all", "population", "population", 0.8, 0.08)]


def build_calib(directory, idx: int, size=(20, 20), n_counts=250) -> Path:
    zones, net = grid_region(*size, seed=idx)
    counts = synthetic_counts(zones, net, _counts_truth(), n_counts=n_counts,
                              noise=COUNT_GEH, noise_kind="geh", seed=idx + 1)
    strata = [DemandStratum("all", "population", "population", 1.0, 0.1)]
    return write_model(directory, zones, net, counts, strata,
                       AssignmentOptions(mode="oneoff"),
                       CalibrationOptions(method="nelder_mead",
                                          max_evals=CALIB_MAX_EVALS,
                                          assignment_mode="oneoff"))


def build_msa(directory, idx: int, size=(20, 20), n_counts=250) -> Path:
    zones, net = grid_region(*size, seed=idx)
    zones = [
        dataclasses.replace(z, attributes={
            **z.attributes, "jobs": derive_jobs(z.attributes["population"], 20000.0)})
        for z in zones
    ]
    strata = [
        DemandStratum("home", "population", "population", 0.5, 0.08),
        DemandStratum("work", "population", "jobs", 0.3, 0.12),
    ]
    counts = synthetic_counts(zones, net, strata, n_counts=n_counts, noise=COUNT_GEH,
                              noise_kind="geh", seed=idx + 1, n_outer=5)
    return write_model(directory, zones, net, counts, strata,
                       AssignmentOptions(mode="iterative", n_outer=5, gap_tol=0.0))


def build_sweep(directory, idx: int, size=(10, 8), n_counts=250) -> Path:
    """The criterion-7 instance: the same network for every seed."""
    zones, net = grid_region(*size, seed=0)
    counts = synthetic_counts(zones, net, _counts_truth(), n_counts=n_counts,
                              noise=0.10, seed=1)
    strata = [DemandStratum("all", "population", "population", 1.0, 0.1)]
    return write_model(directory, zones, net, counts, strata,
                       AssignmentOptions(mode="oneoff"))


BUILDERS = {"calib_grid20": build_calib, "msa_grid20": build_msa,
            "sweep_grid10": build_sweep}


def instance_key(name: str, idx: int) -> str:
    """Cache directory name; the sweep shares one instance across seeds."""
    return name if name == "sweep_grid10" else f"{name}-{idx}"


def sweep_points(idx: int) -> np.ndarray:
    nx, ny = SWEEP_CELLS
    rng = np.random.default_rng(idx)
    cells = np.stack(np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij"), -1)
    unit = (cells.reshape(-1, 2) + rng.uniform(size=(nx * ny, 2))) / (nx, ny)
    return BOX_LO + unit * (BOX_HI - BOX_LO)


def load_refs(name: str, idx: int):
    """The stored reference for one pool entry, as a dict of arrays."""
    with np.load(REFS / f"{name}.npz") as data:
        return {k: (data[k] if k == "link_ids" else data[k][idx]) for k in data.files}


def _within(value: float, ref: float, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= rtol * abs(ref)


class Workload:
    """One workload bound to a loaded model: call() is timed, check() is not.

    check() returns (outcomes, j): one outcome per operation, and the J the
    workload reports as best_j.
    """

    ops_label = "evaluations"

    def __init__(self, model, idx: int, ref=None):
        self.model = model
        self.ref = ref


class Calib(Workload):
    def call(self):
        opts = self.model.calibration
        m = self.model
        try:
            return calibrate(m.zones, m.network, m.strata, m.counts,
                             method=opts.method, seed=opts.seed,
                             assignment_mode=opts.assignment_mode,
                             xatol=opts.xatol, fatol=opts.fatol,
                             max_evals=opts.max_evals)
        except Exception as exc:  # a failed operation, counted by check()
            return exc

    def check(self, res):
        if isinstance(res, Exception):
            return [WRONG], math.nan
        values = np.array([h[1] for h in res.history])
        outcomes = [OK if math.isfinite(v) else WRONG for v in values]
        j = float(res.best_objective)
        if self.ref is not None:
            x = res.best_weights.values()
            if not (_within(j, float(self.ref["best_j"]), CALIB_J_RTOL)
                    and np.all(np.abs(x - self.ref["best_x"]) <= CALIB_X_ATOL)):
                outcomes = [WRONG] * len(outcomes)
        return outcomes, j


class Msa(Workload):
    ops_label = "assignments"

    def call(self):
        m = self.model
        try:
            return assign_iterative(m.network, m.zones, m.strata, m.assignment.n_outer,
                                    gap_tol=m.assignment.gap_tol)
        except Exception as exc:  # a failed operation, counted by check()
            return exc

    def check(self, res):
        if isinstance(res, Exception):
            return [WRONG], math.nan
        j = evaluate(res.flows, self.model.counts).objective_j
        flows = np.array(list(res.flows.values()))
        ok = bool(np.isfinite(flows).all())
        if self.ref is not None:
            ok = ok and flows_match(res.flows, self.ref)
        return [OK if ok else WRONG], j


def flows_match(flows: dict, ref) -> bool:
    """Every reference link present, with a flow within FLOW_RTOL."""
    ids = [str(lid) for lid in ref["link_ids"]]
    if set(ids) != set(flows):
        return False
    got = np.array([flows[lid] for lid in ids])
    want = ref["flows"]
    return bool(np.all(np.abs(got - want) <= FLOW_RTOL * np.maximum(np.abs(want), 1.0)))


class Sweep(Workload):
    def __init__(self, model, idx: int, ref=None):
        super().__init__(model, idx, ref)
        self.points = sweep_points(idx)
        if ref is not None and not np.array_equal(self.points, ref["points"]):
            raise RuntimeError("sweep points differ from the stored reference points")
        m = model
        self.objective = ModelObjective(m.zones, m.network, m.strata, m.counts,
                                        assignment_mode="oneoff")

    def call(self):
        values = []
        for x in self.points:
            try:
                values.append(float(self.objective(x)))
            except Exception:  # a failed operation, counted by check()
                values.append(math.nan)
        return np.array(values)

    def check(self, values):
        ref = self.ref["j"] if self.ref is not None else np.full(len(values), math.nan)
        outcomes = []
        for v, r in zip(values, ref):
            if math.isfinite(r):
                outcomes.append(OK if _within(v, r, J_RTOL) else WRONG)
            else:
                outcomes.append(OK if math.isfinite(v) else EXPECTED)
        # the median over the points where the reference is finite does not
        # move when a fix makes more points finite
        scored = values[np.isfinite(ref)] if self.ref is not None else values
        scored = scored[np.isfinite(scored)]
        return outcomes, float(np.median(scored)) if scored.size else math.nan


WORKLOADS = {"calib_grid20": Calib, "msa_grid20": Msa, "sweep_grid10": Sweep}


def toy_star_flows() -> dict:
    """One-off assignment on the eight-zone star with every link at 10 min.

    The equal times make ring and spoke routes tie (satellite k to k+2 costs
    20 min either way), so the flows depend on the (node_id, link_id) tie
    rule. The star's own times have no ties.
    """
    zones, net = eight_zone_star()
    links = [dataclasses.replace(link, t0=10.0) for link in net.links.values()]
    net = Network.from_parts(list(net.nodes.values()), links, net.zone_anchors)
    return assign_iterative(net, zones, toy_strata(), 1).flows


def check_toy_star() -> str:
    try:
        flows = toy_star_flows()
    except Exception:  # a failed operation
        return WRONG
    with np.load(REFS / "toy_star.npz") as data:
        ref = {k: data[k] for k in data.files}
    return OK if flows_match(flows, ref) else WRONG
