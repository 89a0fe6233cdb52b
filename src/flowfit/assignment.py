"""Network assignment: all-or-nothing loading and MSA congestion feedback."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .demand import ODMatrix, distribute, require_unique_names
from .network import (
    CostMatrix,
    DisconnectedZonesError,
    FlowMap,
    LinkTimes,
    Network,
    fill_intrazonal,
    free_flow_times,
    shortest_path_tree,
    volume_delay,
)

DEFAULT_N_OUTER = 5
DEFAULT_GAP_TOL = 1e-3
ASSIGNMENT_MODES = ("oneoff", "iterative")


class UnreachableODError(RuntimeError):
    """An OD pair demands trips but has no connecting path."""

    def __init__(self, origin_zone: str, destination_zone: str, trips: float):
        self.origin_zone = origin_zone
        self.destination_zone = destination_zone
        super().__init__(
            f"{trips:g} trips from zone {origin_zone!r} to zone "
            f"{destination_zone!r}, but no path connects them"
        )


class PathSet:
    """Anchor-to-anchor shortest paths under one fixed set of link times.

    One shortest_path_tree call covers all zone anchors. Walking every OD
    pair back from its destination along the predecessor links, all pairs
    in step, gives the link x OD-pair incidence, so repeated OD matrices
    (e.g. inside a calibration loop) load as a single matrix product.

    load() is the one step from strata to link flows, over the skim the
    path set computes once and holds. assign_iterative calls it once per MSA
    iteration; ModelObjective's one-off mode, on one free-flow path set.
    """

    def __init__(self, network: Network, link_times: LinkTimes):
        self.network = network
        self.zone_ids = tuple(sorted(network.zone_anchors))
        self.link_ids = network.link_ids
        self.link_index = {lid: k for k, lid in enumerate(self.link_ids)}
        n = len(self.zone_ids)
        anchors = [network.zone_anchors[z] for z in self.zone_ids]
        dist, pred = shortest_path_tree(network, link_times, anchors)
        anchor_pos = np.array([network.node_index[a] for a in anchors], dtype=np.intp)
        self._costs = dist[:, anchor_pos]

        tail, _ = network.link_ends
        rows, cols = np.nonzero(np.isfinite(self._costs))
        pair, node = rows * n + cols, anchor_pos[cols]
        link_rows = [np.empty(0, dtype=np.intp)]
        pair_cols = [np.empty(0, dtype=np.intp)]
        walking = node != anchor_pos[rows]
        while walking.any():
            rows, pair, node = rows[walking], pair[walking], node[walking]
            link = pred[rows, node]
            link_rows.append(link)
            pair_cols.append(pair)
            node = tail[link]
            walking = node != anchor_pos[rows]
        link_rows, pair_cols = np.concatenate(link_rows), np.concatenate(pair_cols)
        # links x OD-pairs incidence; loading an OD matrix is one matvec
        self._incidence = sparse.csr_matrix(
            (np.ones(link_rows.size), (link_rows, pair_cols)),
            shape=(len(self.link_ids), n * n),
        )
        self._skim: CostMatrix | None = None

    def cost_matrix(self) -> CostMatrix:
        """Skim matrix over the same zones, intrazonal diagonal filled; built
        on the first call, then held (its values are read-only)."""
        if self._skim is None:
            unreachable = np.argwhere(np.isinf(self._costs))
            if unreachable.size:
                i, j = unreachable[0]
                raise DisconnectedZonesError(self.zone_ids[i], self.zone_ids[j])
            values = self._costs.copy()
            fill_intrazonal(values)
            values.setflags(write=False)
            self._skim = CostMatrix(self.zone_ids, values)
        return self._skim

    def _aligned_trips(self, od: ODMatrix) -> np.ndarray:
        if od.zone_ids == self.zone_ids:
            return od.trips
        if set(od.zone_ids) != set(self.zone_ids):
            raise ValueError("OD matrix zones do not match network zones")
        perm = [od.index[z] for z in self.zone_ids]
        return od.trips[np.ix_(perm, perm)]

    def flow_vector(self, od: ODMatrix) -> np.ndarray:
        """Link flows (ordered by link_ids) from loading every OD pair's path."""
        T = self._aligned_trips(od)
        stranded = np.argwhere(np.isinf(self._costs) & (T > 0))
        if stranded.size:
            i, j = stranded[0]
            raise UnreachableODError(self.zone_ids[i], self.zone_ids[j], T[i, j])
        interzonal = np.array(T, dtype=float)
        np.fill_diagonal(interzonal, 0.0)
        return self._incidence @ interzonal.ravel()

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

    def flow_map(self, vec: np.ndarray) -> FlowMap:
        return {lid: float(vec[k]) for k, lid in enumerate(self.link_ids)}


def assign_all_or_nothing(network: Network, link_times: LinkTimes, od: ODMatrix) -> FlowMap:
    """Load each OD pair's trips entirely onto its single shortest path.

    Intrazonal trips never touch the network. Among equal-cost paths, every
    node is entered on its tight link with the smallest (node_id, link_id),
    the tie pass of shortest_path_tree.
    """
    paths = PathSet(network, link_times)
    return paths.flow_map(paths.flow_vector(od))


@dataclass
class AssignmentResult:
    flows: FlowMap
    per_stratum_flows: dict[str, FlowMap]
    link_times: LinkTimes
    iterations: int
    converged: bool
    relative_gap: float


def assign_iterative(
    network: Network,
    zones,
    strata,
    n_outer: int = DEFAULT_N_OUTER,
    *,
    gap_tol: float = DEFAULT_GAP_TOL,
) -> AssignmentResult:
    """Cycle skim -> distribution -> all-or-nothing -> MSA flow averaging.

    Iteration k averages the fresh all-or-nothing flows into the running
    mean with weight 1/k, then refreshes link times through the volume-delay
    curves. Redistribution inside the loop lets demand react to congestion.
    Stops after n_outer iterations, or earlier once the relative L1 change
    of total link flows drops below gap_tol. n_outer=1 is the one-off mode.
    Per-stratum flows are keyed by stratum name, so names must be distinct.
    """
    if n_outer < 1:
        raise ValueError("n_outer must be >= 1")
    require_unique_names(strata)

    times = free_flow_times(network)
    link_ids = network.link_ids
    links = [network.links[lid] for lid in link_ids]
    avg: dict[str, np.ndarray] = {}
    total = np.zeros(len(link_ids))
    gap = math.inf
    converged = False
    iterations = 0
    for k in range(1, n_outer + 1):
        paths = PathSet(network, times)
        fresh = {s.name: vec for s, vec in zip(strata, paths.load(zones, strata))}
        if k == 1:
            avg = fresh
        else:
            avg = {name: avg[name] + (fresh[name] - avg[name]) / k for name in avg}
        prev_total = total
        total = sum(avg.values(), np.zeros(len(link_ids)))
        if k >= 2:
            gap = float(np.abs(total - prev_total).sum() / max(prev_total.sum(), 1e-12))
        times = {
            lid: volume_delay(link, float(total[idx]))
            for idx, (lid, link) in enumerate(zip(link_ids, links))
        }
        if not all(math.isfinite(t) for t in times.values()):
            raise ArithmeticError("volume-delay produced non-finite link times")
        iterations = k
        if k >= 2 and gap < gap_tol:
            converged = True
            break

    per_stratum = {name: paths.flow_map(vec) for name, vec in avg.items()}
    return AssignmentResult(
        paths.flow_map(total), per_stratum, times, iterations, converged, gap
    )


def assign(
    network: Network,
    zones,
    strata,
    mode: str = "oneoff",
    n_outer: int = DEFAULT_N_OUTER,
    *,
    gap_tol: float = DEFAULT_GAP_TOL,
) -> AssignmentResult:
    """Assignment in the named mode: "oneoff" is a single free-flow pass
    (n_outer=1); "iterative" runs the MSA loop for up to n_outer iterations."""
    if mode not in ASSIGNMENT_MODES:
        raise ValueError(f"unknown assignment mode {mode!r}")
    outer = 1 if mode == "oneoff" else n_outer
    return assign_iterative(network, zones, strata, outer, gap_tol=gap_tol)
