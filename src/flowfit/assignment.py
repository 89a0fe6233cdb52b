"""Network assignment: all-or-nothing loading and MSA congestion feedback.

AssignmentOptions declares each assignment setting's default and range once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .demand import ODMatrix, check_field_types, distribute, require_unique_names
from .network import (
    CostMatrix,
    DisconnectedZonesError,
    FlowMap,
    Network,
    fill_intrazonal,
    shortest_path_tree,
    volume_delay,
)

ASSIGNMENT_MODES = ("oneoff", "iterative")


@dataclass
class AssignmentOptions:
    """assign()'s settings, model.yaml's assignment section; the defaults
    and ranges that assign_iterative, ModelObjective, calibrate and
    split_test use too. Each range check fails NaN."""

    mode: str = "iterative"  # | "oneoff"
    n_outer: int = 5
    gap_tol: float = 1e-3

    def __post_init__(self):
        check_field_types(self)
        if self.mode not in ASSIGNMENT_MODES:
            raise ValueError(f"mode must be one of {ASSIGNMENT_MODES}, got {self.mode!r}")
        if not self.n_outer >= 1:
            raise ValueError(f"n_outer must be >= 1, got {self.n_outer!r}")
        if not 0 <= self.gap_tol < math.inf:
            raise ValueError(f"gap_tol must be finite and >= 0, got {self.gap_tol!r}")


class PathSet:
    """Anchor-to-anchor shortest paths under one fixed set of link times.

    One shortest_path_tree call covers all zone anchors; the path set keeps
    its (dist, pred) and every tree edge (node, parent, entering link),
    grouped by hop depth (pointer jumping to the roots, then one stable
    sort). flow_vector adds trips at their destination nodes, pushes them up
    the trees a depth level at a time, deepest first and all origins in
    step, and sums each link's flow over the nodes it enters.

    load() is the one step from strata to link flows, over the skim the
    path set computes once and holds. assign_iterative calls it once per MSA
    iteration.

    The constructor is the one connectivity check (DisconnectedZonesError,
    after the cycle check); zone_ids orders the skim and flow_vector's ODs.
    """

    def __init__(self, network: Network, link_times: np.ndarray):
        self.zone_ids = tuple(sorted(network.zone_anchors))
        self.link_ids = network.link_ids
        anchors = [network.zone_anchors[z] for z in self.zone_ids]
        self.dist, self.pred = shortest_path_tree(network, link_times, anchors)
        self._anchor_pos = np.array([network.node_index[a] for a in anchors], dtype=np.intp)

        # flat over (origin, node): OD pairs' destinations, and tree edges
        n_nodes = self.pred.shape[1]
        self._od_cell = (np.arange(len(anchors))[:, None] * n_nodes + self._anchor_pos).ravel()
        tail, _ = network.link_ends
        child = np.flatnonzero(self.pred >= 0)
        link = self.pred.ravel()[child]
        parent = child - child % n_nodes + tail[link]
        # hop depth by pointer jumping: pass k reaches 2**k up; trees are < n_nodes deep
        up, depth = np.arange(self.pred.size), np.zeros(self.pred.size, dtype=np.intp)
        up[child], depth[child] = parent, 1
        root, passes = self.pred.ravel() < 0, n_nodes.bit_length()
        while not root[up].all():
            if not passes:  # only a cycle stops short of a root
                raise ArithmeticError("predecessor cycle: link times lost in rounding path lengths")
            depth, up, passes = depth + depth[up], up[up], passes - 1
        unreachable = np.flatnonzero(np.isinf(self.dist[:, self._anchor_pos]))
        if unreachable.size:
            i, j = divmod(unreachable[0], len(self.zone_ids))
            raise DisconnectedZonesError(self.zone_ids[i], self.zone_ids[j])
        # deepest level first; a stable sort of keys of 16 bits or fewer is a radix sort
        max_depth = depth.max(initial=0)
        key = (max_depth - depth[child]).astype(np.min_scalar_type(max_depth))
        order = np.argsort(key, kind="stable")
        self._child, self._link, parent = child[order], link[order], parent[order]
        cuts = np.flatnonzero(np.diff(key[order])) + 1
        self._levels = list(zip(np.split(self._child, cuts), np.split(parent, cuts)))
        self._skim: CostMatrix | None = None

    def cost_matrix(self) -> CostMatrix:
        """Skim matrix over zone_ids, finite, intrazonal diagonal filled; built
        on the first call, then held (its values are read-only)."""
        if self._skim is None:
            values = self.dist[:, self._anchor_pos]  # a copy
            fill_intrazonal(values)
            values.setflags(write=False)
            self._skim = CostMatrix(self.zone_ids, values)
        return self._skim

    def flow_vector(self, od: ODMatrix) -> np.ndarray:
        """Link flows (ordered by link_ids) from loading every OD pair's path.
        The OD matrix must hold zone_ids in this path set's order."""
        if od.zone_ids != self.zone_ids:
            raise ValueError("OD matrix zones do not match the path set's zones in order")
        # bincount sums zones that share an anchor; intrazonal trips stay at roots
        acc = np.bincount(self._od_cell, np.ravel(od.trips), self.pred.size)
        for child, parent in self._levels:
            np.add.at(acc, parent, acc[child])
        return np.bincount(self._link, acc[self._child], len(self.link_ids))

    def load(self, zones, strata) -> list[np.ndarray]:
        """Link flow vector of each stratum, in strata order: distribute over
        the skim, then flow_vector. A stratum with mu == 0 makes no trips and
        gets zeros without a distribution."""
        costs = self.cost_matrix()
        return [
            np.zeros(len(self.link_ids)) if s.mu == 0.0
            else self.flow_vector(distribute(zones, s, costs))
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
    flows are keyed by stratum name, so names must be distinct.
    """
    AssignmentOptions(n_outer=n_outer, gap_tol=gap_tol)  # the ranges
    require_unique_names(strata)

    avg = {s.name: vec for s, vec in zip(strata, network.free_flow_paths.load(zones, strata))}
    total = sum(avg.values(), np.zeros(len(network.link_ids)))
    gap = math.inf
    iterations = 1
    while iterations < n_outer and not gap < gap_tol:
        iterations += 1
        times = volume_delay(network.bpr, total)
        if not np.isfinite(times).all():
            raise ArithmeticError("volume-delay produced non-finite link times")
        fresh = PathSet(network, times).load(zones, strata)
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
