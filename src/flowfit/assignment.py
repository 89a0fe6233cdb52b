"""Network assignment: all-or-nothing loading and MSA congestion feedback.

AssignmentOptions declares each assignment setting's default and range once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .demand import (
    ODMatrix,
    ZoneAttributes,
    check_fields,
    distribute,
    ranged,
    require_unique_names,
    require_zone_order,
)
from .network import FlowMap, Network, PathSet, volume_delay

ASSIGNMENT_MODES = ("oneoff", "iterative")


@dataclass
class AssignmentOptions:
    """assign()'s settings, model.yaml's assignment section; the defaults
    and ranges, declared on the fields, that assign_iterative,
    ModelObjective, calibrate and split_test use too."""

    mode: str = ranged(ASSIGNMENT_MODES, "iterative")
    n_outer: int = ranged(">= 1", 5)
    gap_tol: float = ranged("finite and >= 0", 1e-3)

    def __post_init__(self):
        check_fields(self)


def load_strata(paths: PathSet, zones: ZoneAttributes, strata) -> list[np.ndarray]:
    """Link flow vector of each stratum, in strata order: the one step from
    strata to link flows, which assign_iterative takes once per MSA iteration.
    zones is a demand.ZoneAttributes in the path set's zone order. Each
    stratum is distributed over the skim the path set computes once and
    holds, then loaded by its flow_vector; one with mu == 0 makes no trips
    and gets zeros without a distribution."""
    require_zone_order(zones, paths.zone_ids)
    return [
        np.zeros(len(paths.link_ids)) if s.mu == 0.0
        else paths.flow_vector(distribute(zones, s, paths.skim))
        for s in strata
    ]


def assign_all_or_nothing(network: Network, link_times: np.ndarray, od: ODMatrix) -> FlowMap:
    """Load each OD pair's trips entirely onto its single shortest path.

    Intrazonal trips never touch the network. Among equal-cost paths, every
    node is entered on its tight link with the smallest (node_id, link_id),
    the tie pass of shortest_path_tree.
    """
    paths = PathSet(network, link_times)
    return dict(zip(paths.link_ids, paths.flow_vector(od).tolist()))


@dataclass
class AssignmentResult:
    """Flow arrays aligned to link_ids: total, and per_stratum by stratum
    name. flows, the total keyed by link id, is built on first read."""

    link_ids: tuple[str, ...]
    total: np.ndarray
    per_stratum: dict[str, np.ndarray]
    iterations: int
    converged: bool
    relative_gap: float

    @cached_property
    def flows(self) -> FlowMap:
        return dict(zip(self.link_ids, self.total.tolist()))


def assign_iterative(
    network: Network,
    zones,
    strata,
    n_outer: int = AssignmentOptions.n_outer,
    *,
    gap_tol: float = AssignmentOptions.gap_tol,
) -> AssignmentResult:
    """Cycle skim -> distribution -> all-or-nothing -> MSA flow averaging.

    Iteration 1 loads on network.free_flow_paths. Iteration k >= 2 takes
    link times from the volume-delay curves at the running mean and averages
    its fresh all-or-nothing flows into that mean with weight 1/k;
    redistribution lets demand react to congestion. Stops after n_outer
    iterations (n_outer=1 is the one-off mode), or earlier, converged, once
    the relative L1 change of total link flows drops below gap_tol. n_outer
    and gap_tol take AssignmentOptions' defaults and ranges. Per-stratum
    flows are keyed by stratum name, so names must be distinct. zones is a
    list of Zone or a demand.ZoneAttributes in the path sets' zone order;
    each stratum's attribute vectors are read once per call.
    """
    AssignmentOptions(n_outer=n_outer, gap_tol=gap_tol)  # the ranges
    require_unique_names(strata)

    paths = network.free_flow_paths
    zones = zones if isinstance(zones, ZoneAttributes) else ZoneAttributes(zones, paths.zone_ids)
    first = load_strata(paths, zones, strata)
    avg = {s.name: vec for s, vec in zip(strata, first)}
    total = sum(avg.values(), np.zeros(len(network.link_ids)))
    gap = math.inf
    iterations = 1
    while iterations < n_outer and not gap < gap_tol:
        iterations += 1
        times = volume_delay(network.bpr, total)
        if not np.isfinite(times).all():
            raise ArithmeticError("volume-delay produced non-finite link times")
        fresh = load_strata(PathSet(network, times), zones, strata)
        avg = {name: q + (f - q) / iterations for (name, q), f in zip(avg.items(), fresh)}
        prev_total, total = total, sum(avg.values(), np.zeros(len(network.link_ids)))
        gap = float(np.abs(total - prev_total).sum() / max(prev_total.sum(), 1e-12))
    return AssignmentResult(network.link_ids, total, avg, iterations, gap < gap_tol, gap)


def assign(network: Network, zones, strata, **settings) -> AssignmentResult:
    """Assignment under settings, AssignmentOptions' fields: mode "oneoff" is
    assign_iterative with n_outer=1, "iterative" runs it for up to n_outer
    iterations."""
    opts = AssignmentOptions(**settings)
    outer = 1 if opts.mode == "oneoff" else opts.n_outer
    return assign_iterative(network, zones, strata, outer, gap_tol=opts.gap_tol)
