"""Directed road network: volume-delay link times and shortest paths.

Link times and flows are float arrays aligned to Network.link_ids, and
volume_delay takes the per-link BPR arrays that Network.bpr caches.

shortest_path_tree is the package's one shortest-path engine: distances for
all origins at once by label-correcting rounds over numpy arrays
(Bellman-Ford-Moore with a FIFO frontier), followed by one exact array pass
that applies the (node_id, link_id) tie rule. Origins are independent, so
the engine and PathSet's hop depths run in origin blocks on every CPU.
PathSet decodes the trees from every zone anchor into the skim and the
loader from trips to link flows, and keeps only those two;
Network.free_flow_paths keeps the one at free-flow times.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# A label-correcting round and the tie pass each form up to origins x links
# candidates; shortest_path_tree runs the origins in row blocks that together
# keep this across all blocks in flight, whatever the CPU count.
ROUND_CANDIDATES = 1 << 22

# Rule-of-thumb BPR constants, used when the input does not set its own.
DEFAULT_ALPHA1 = 0.15
DEFAULT_ALPHA2 = 4.0

#: link_id -> traffic flow (veh/24h)
FlowMap = dict[str, float]


class DisconnectedZonesError(ValueError):
    """Raised when a PathSet is built over zones with no connecting path."""

    def __init__(self, origin_zone: str, destination_zone: str):
        self.origin_zone = origin_zone
        self.destination_zone = destination_zone
        super().__init__(
            f"no path from zone {origin_zone!r} to zone {destination_zone!r}"
        )


@dataclass(frozen=True)
class Node:
    node_id: str
    x: float = 0.0
    y: float = 0.0


@dataclass(frozen=True)
class Link:
    """Directed road section with a BPR congestion curve.

    t0 is the free-flow travel time in minutes, q_max the one-direction
    capacity in veh/24h. length (km) is carried for reporting only.
    """

    link_id: str
    from_node: str
    to_node: str
    t0: float
    q_max: float
    alpha1: float = DEFAULT_ALPHA1
    alpha2: float = DEFAULT_ALPHA2
    length: float | None = None


@dataclass(frozen=True, eq=False)
class BPRParameters:
    """Every link's volume-delay fields, read-only arrays aligned to link_id."""

    link_id: tuple[str, ...]
    t0: np.ndarray
    q_max: np.ndarray
    alpha1: np.ndarray
    alpha2: np.ndarray


def volume_delay(link: Link | BPRParameters, flow):
    """Travel time (minutes) at the given daily flow, elementwise.

    t(Q) = t0 * (1 + alpha1 * (Q / q_max) ** alpha2); non-decreasing in Q
    and equal to t0 at zero flow. Takes one Link and a scalar flow, or
    Network.bpr and a flow array aligned to link_ids.
    """
    negative = np.flatnonzero(np.asarray(flow) < 0)
    if negative.size:
        k = negative[0]
        raise ValueError(f"negative flow {float(np.ravel(flow)[k])!r} "
                         f"on link {str(np.ravel(link.link_id)[k])!r}")
    return link.t0 * (1.0 + link.alpha1 * (flow / link.q_max) ** link.alpha2)


@dataclass(frozen=True)
class Network:
    """Immutable road graph plus the anchor node of every zone."""

    nodes: dict[str, Node]
    links: dict[str, Link]
    zone_anchors: dict[str, str]

    @classmethod
    def from_parts(cls, nodes, links, zone_anchors: dict[str, str]) -> "Network":
        node_map: dict[str, Node] = {}
        for n in nodes:
            if n.node_id in node_map:
                raise ValueError(f"duplicate node_id {n.node_id!r}")
            node_map[n.node_id] = n
        link_map: dict[str, Link] = {}
        for l in links:
            if l.link_id in link_map:
                raise ValueError(f"duplicate link_id {l.link_id!r}")
            link_map[l.link_id] = l
        return cls(node_map, link_map, dict(zone_anchors))

    @cached_property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.nodes))

    @cached_property
    def link_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.links))

    @cached_property
    def node_index(self) -> dict[str, int]:
        return {nid: k for k, nid in enumerate(self.node_ids)}

    @cached_property
    def link_index(self) -> dict[str, int]:
        return {lid: k for k, lid in enumerate(self.link_ids)}

    @cached_property
    def link_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """(tail, head) positions in node_ids of every link, ordered by
        link_ids; -1 where a link names an unknown node."""
        links = [self.links[lid] for lid in self.link_ids]
        tail = np.array([self.node_index.get(l.from_node, -1) for l in links], dtype=np.intp)
        head = np.array([self.node_index.get(l.to_node, -1) for l in links], dtype=np.intp)
        return tail, head

    @cached_property
    def bpr(self) -> BPRParameters:
        links = [self.links[lid] for lid in self.link_ids]
        fields = [np.array([getattr(l, f) for l in links], dtype=float)
                  for f in ("t0", "q_max", "alpha1", "alpha2")]
        for values in fields:
            values.setflags(write=False)
        return BPRParameters(self.link_ids, *fields)

    @cached_property
    def free_flow_paths(self):
        """The free-flow PathSet every assignment starts from; a failed build keeps nothing."""
        return PathSet(self, free_flow_times(self))


def free_flow_times(network: Network) -> np.ndarray:
    """Free-flow time t0 of every link (minutes), aligned to link_ids."""
    return network.bpr.t0.copy()


def path_workers() -> int:
    """The CPUs this process may run on: the strands a path build runs at once."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _row_blocks(fn, rows: int, width: int) -> list:
    """[fn(lo, hi) for each row block lo:hi of range(rows)], in row order.

    A row holds width candidates (or entries). The rows are split into up
    to path_workers() contiguous strands that run at once: the first on the
    calling thread, the others on a pool that lives only for this call
    (numpy releases the GIL in its array loops). Each strand runs its rows
    in blocks small enough that the blocks in flight hold ROUND_CANDIDATES
    together at most, so the memory peak does not grow with the CPU count.
    A strand needs ROUND_CANDIDATES >> 6 (64Ki) of them to repay its thread,
    so smaller calls run inline. On 2 vCPUs two strands broke even with one
    between 52k and 80k entries each for the hop depths (grids 18x18 and
    20x20) and at about 120k candidates each for the label rounds and tie
    pass (16x16), and cost under 3% more at 71k (14x14). A block's
    exception is raised as a serial run raises it: the first one.
    """
    width = max(width, 1)
    workers = max(1, min(path_workers(), rows,
                         rows * width // max(ROUND_CANDIDATES >> 6, 1)))
    size = max(1, ROUND_CANDIDATES // (width * workers))
    cuts = [rows * k // workers for k in range(workers + 1)]

    def strand(lo, hi):
        return [fn(k, min(k + size, hi)) for k in range(lo, hi, size)]

    if workers == 1:
        return strand(0, rows)
    with ThreadPoolExecutor(workers - 1) as pool:
        rest = [pool.submit(strand, lo, hi) for lo, hi in zip(cuts[1:-1], cuts[2:])]
        return strand(cuts[0], cuts[1]) + [out for f in rest for out in f.result()]


def _frontier_distances(n_nodes: int, tail, head, times, sources) -> np.ndarray:
    """Shortest distances from each source over the links tail -> head, one
    row per source: Bellman-Ford-Moore in FIFO rounds, all sources at once.

    Labels are flat over (source, node). Each round relaxes the out-links
    of the labels that improved in the previous round and keeps the strictly
    better candidates. With positive times every label is final after
    n_nodes - 1 rounds, so a frontier left after n_nodes rounds is an
    internal error.
    """
    by_tail = np.argsort(tail, kind="stable")
    out_head, out_time = head[by_tail], times[by_tail]
    degree = np.bincount(tail, minlength=n_nodes)
    first_out = np.concatenate(([0], np.cumsum(degree)[:-1]))
    dist = np.full(sources.size * n_nodes, np.inf)
    frontier = np.arange(sources.size) * n_nodes + sources
    dist[frontier] = 0.0
    improved = np.zeros(dist.size, dtype=bool)
    for _ in range(n_nodes):
        node = frontier % n_nodes
        deg = degree[node]
        ends = np.cumsum(deg)
        # the CSR position of every out-link of every frontier label
        pos = np.arange(ends[-1]) + np.repeat(first_out[node] - ends + deg, deg)
        cand = np.repeat(dist[frontier], deg) + out_time[pos]
        target = np.repeat(frontier - node, deg) + out_head[pos]
        better = cand < dist[target]
        target = target[better]
        np.minimum.at(dist, target, cand[better])
        improved[target] = True
        frontier = np.flatnonzero(improved)
        if not frontier.size:
            return dist.reshape(sources.size, n_nodes)
        improved[frontier] = False
    raise RuntimeError(f"labels still improving after {n_nodes} rounds")


def shortest_path_tree(
    network: Network, link_times: np.ndarray, origins
) -> tuple[np.ndarray, np.ndarray]:
    """Shortest paths from every origin node in one call.

    link_times holds one positive time per link, aligned to link_ids.
    Returns (dist, pred), both shaped (origins, nodes) with nodes ordered by
    network.node_ids. dist is +inf on unreachable nodes. pred holds, per
    node, the position in network.link_ids of the link on which the path
    enters it, and -1 at the origin and at unreachable nodes.

    The origins run in row blocks (_row_blocks), one strand per CPU, each
    block writing only its own rows of dist and pred, so both are bitwise
    equal for any CPU count. In each block, label-correcting rounds
    (_frontier_distances) compute distances only, and one flat pass over
    (origin, link) picks predecessors: a link is tight when dist[tail] + t
    == dist[head], and each reached node takes the tight link with the
    smallest (node_id, link_id) pair, so the tree depends only on the
    network content, never on input ordering. The pass is exact
    because both steps form dist[tail] + t with the same double addition,
    and when the rounds stop each reached node's label is the smallest such
    sum over the links into it.
    """
    index = network.node_index
    for origin in origins:
        if origin not in index:
            raise ValueError(f"unknown origin node {origin!r}")
    times = np.asarray(link_times, dtype=float)
    if times.shape != (len(network.link_ids),):
        raise ValueError(f"link times have shape {times.shape}, "
                         f"expected ({len(network.link_ids)},)")
    bad = [network.link_ids[k] for k in np.flatnonzero(~(times > 0))]
    if bad:
        raise ValueError(f"nonpositive travel time on link(s) {bad[:5]}")

    tail, head = network.link_ends
    routable = np.flatnonzero((tail >= 0) & (head >= 0))
    # links sorted by (head, tail rank, link rank): among the tight links
    # into a node, the first has the smallest (node_id, link_id)
    order = routable[np.lexsort((routable, tail[routable], head[routable]))]
    tail, head, times = tail[order], head[order], times[order]
    sources = np.array([index[o] for o in origins], dtype=np.intp)
    n = len(index)
    dist = np.empty((sources.size, n))
    pred = np.full(dist.shape, -1, dtype=np.intp)

    def block(lo, hi):
        d = dist[lo:hi]
        d[:] = _frontier_distances(n, tail, head, times, sources[lo:hi])
        # tie pass: flat positions run row-major over (origin, sorted link),
        # so each (origin, head) cell's tight links come in one run, best first
        tight = np.flatnonzero(np.take(d, tail, 1) + times == np.take(d, head, 1))
        o, j = np.divmod(tight, order.size)
        cell = o * n + head[j]
        first = np.flatnonzero(np.diff(cell, prepend=-1))
        keep = first[np.isfinite(d.ravel()[cell[first]])]
        pred[lo:hi].ravel()[cell[keep]] = order[j[keep]]

    _row_blocks(block, sources.size, order.size)
    return dist, pred


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Interzonal travel times (minutes), ordered by zone_ids."""

    zone_ids: tuple[str, ...]
    values: np.ndarray


def fill_intrazonal(values: np.ndarray) -> None:
    """Set each diagonal entry, in place, to half the smallest off-diagonal cost
    in its row.

    A 1x1 matrix has no off-diagonal information; its intrazonal cost is 0.
    """
    np.fill_diagonal(values, np.inf)
    np.fill_diagonal(values, 0.5 * values.min(axis=1) if values.shape[0] > 1 else 0.0)


class PathSet:
    """Anchor-to-anchor shortest paths under one fixed set of link times.

    One shortest_path_tree call covers all zone anchors. The path set reads
    its (dist, pred) once and keeps only the skim, a finite, read-only,
    row-major CostMatrix with the intrazonal diagonal filled, and the
    loader: a slot in its accumulator for every (origin, node) entry. Tree
    edges come first, grouped by hop depth (pointer jumping to the roots, in
    origin blocks as in the engine, then one global stable sort), deepest
    level first; the roots (origins and unreached nodes) follow. So each
    level is one contiguous slice of slots, kept with its parents' slots,
    and the entering links are kept in slot order. flow_vector adds trips at
    their destinations' slots, pushes them up the trees a level at a time,
    all origins in step, and sums each link's flow over the slots it enters.

    The constructor is the one connectivity check (DisconnectedZonesError,
    after the cycle check, on the skim before its diagonal is filled);
    zone_ids orders the skim and flow_vector's ODs.
    """

    def __init__(self, network: Network, link_times: np.ndarray):
        self.zone_ids = tuple(sorted(network.zone_anchors))
        self.link_ids = network.link_ids
        anchors = [network.zone_anchors[z] for z in self.zone_ids]
        dist, pred = shortest_path_tree(network, link_times, anchors)
        anchor_pos = np.array([network.node_index[a] for a in anchors], dtype=np.intp)
        # the skim is a row-major copy of dist's anchor columns, so the seed's
        # n x n passes run in the memory order of its row-major trip ends
        values = np.take(dist, anchor_pos, axis=1)
        n_nodes, self._entries = pred.shape[1], pred.size
        tail, _ = network.link_ends
        root = pred.ravel() < 0
        child = np.flatnonzero(~root)
        link = pred.ravel()[child]
        del dist, pred
        parent = child - child % n_nodes + tail[link]
        depth = np.empty(child.size, dtype=np.min_scalar_type(n_nodes))

        def hop_depths(lo, hi):
            """Write the hop depth of each tree edge of origins lo:hi into depth."""
            offset, size = lo * n_nodes, (hi - lo) * n_nodes
            first, last = np.searchsorted(child, (offset, offset + size))
            edge = child[first:last] - offset
            # pointer jumping: pass k reaches 2**k up; trees are < n_nodes deep.
            # Each pass writes into buffers made once: fresh pages cost a
            # block as much as its gathers, and more on a second thread.
            at_root, passes = root[offset:offset + size], n_nodes.bit_length()
            up, hops = np.arange(size), np.zeros(size, dtype=np.intp)
            gather, done = np.empty_like(up), np.empty_like(at_root)
            up[edge] = np.subtract(parent[first:last], offset, out=gather[:edge.size])
            hops[edge] = 1
            while not np.take(at_root, up, out=done, mode="clip").all():
                if not passes:  # only a cycle stops short of a root
                    raise ArithmeticError(
                        "predecessor cycle: link times lost in rounding path lengths")
                hops += np.take(hops, up, out=gather, mode="clip")
                up, gather, passes = np.take(up, up, out=gather, mode="clip"), up, passes - 1
            del up, gather
            depth[first:last] = hops[edge]

        # each block's origins x nodes temporaries are its own rows'
        _row_blocks(hop_depths, len(anchors), n_nodes)
        # deepest level first; a stable sort of keys of 16 bits or fewer is a radix sort
        max_depth = depth.max(initial=0)
        key = (max_depth - depth).astype(np.min_scalar_type(max_depth))
        del depth
        order = np.argsort(key, kind="stable")
        child, self._link, parent = child[order], link[order], parent[order]
        slot = np.empty(self._entries, dtype=np.intp)
        slot[child] = np.arange(child.size)
        slot[root] = np.arange(child.size, slot.size)
        del child, link
        self._od_slot = slot[(np.arange(len(anchors))[:, None] * n_nodes
                              + anchor_pos).ravel()]
        cuts = np.flatnonzero(np.diff(key[order])) + 1
        bounds = [0, *cuts.tolist(), self._link.size]
        self._levels = list(zip(bounds[:-1], bounds[1:], np.split(slot[parent], cuts)))
        del slot, parent
        unreachable = np.isinf(values)
        if unreachable.any():
            i, j = divmod(int(unreachable.argmax()), len(self.zone_ids))
            raise DisconnectedZonesError(self.zone_ids[i], self.zone_ids[j])
        fill_intrazonal(values)
        values.setflags(write=False)
        self.skim = CostMatrix(self.zone_ids, values)

    def flow_vector(self, od) -> np.ndarray:
        """Link flows (ordered by link_ids) from loading every OD pair's path.
        od, a demand.ODMatrix, must hold zone_ids in this path set's order
        and trips shaped (zones, zones).

        Each level adds a copy of its slice to its parents' slots (np.add.at
        with the slice itself, which overlaps its target, runs several times
        slower). Within a level the slots keep flat (origin, node) order, so
        each parent and each link sums in an order fixed by the trees alone."""
        if od.zone_ids != self.zone_ids:
            raise ValueError("OD matrix zones do not match the path set's zones in order")
        n = len(self.zone_ids)
        if np.shape(od.trips) != (n, n):
            raise ValueError(f"OD trips have shape {np.shape(od.trips)}, expected ({n}, {n})")
        # bincount sums zones that share an anchor; intrazonal trips stay at roots
        acc = np.bincount(self._od_slot, np.ravel(od.trips), self._entries)
        for lo, hi, parent in self._levels:
            np.add.at(acc, parent, acc[lo:hi].copy())
        return np.bincount(self._link, acc[:self._link.size], len(self.link_ids))


def _reached(start: np.ndarray, tail: np.ndarray, head: np.ndarray) -> np.ndarray:
    """The node mask start grown along tail -> head links until it is closed."""
    seen = start.copy()
    while (frontier := seen[tail] & ~seen[head]).any():
        seen[head[frontier]] = True
    return seen


def findings(network: Network):
    """Every violated network invariant as (table, id, message), where table
    is "links" or "zones" and id the link or zone it concerns."""
    refs_ok = True
    for lid in sorted(network.links):
        link = network.links[lid]
        for attr in ("from_node", "to_node"):
            nid = getattr(link, attr)
            if nid not in network.nodes:
                yield "links", lid, f"link {lid!r}: {attr} {nid!r} is not a known node"
                refs_ok = False
        if link.from_node == link.to_node:
            yield "links", lid, f"link {lid!r}: from_node equals to_node ({link.from_node!r})"
        if not link.t0 > 0:
            yield "links", lid, f"link {lid!r}: t0 must be > 0, got {link.t0!r}"
        if not link.q_max > 0:
            yield "links", lid, f"link {lid!r}: q_max must be > 0, got {link.q_max!r}"
        if not 0 <= link.alpha1 < math.inf:
            yield "links", lid, f"link {lid!r}: alpha1 must be finite and >= 0, got {link.alpha1!r}"
        if not 1 <= link.alpha2 < math.inf:
            yield "links", lid, f"link {lid!r}: alpha2 must be finite and >= 1, got {link.alpha2!r}"
    for zid in sorted(network.zone_anchors):
        anchor = network.zone_anchors[zid]
        if anchor not in network.nodes:
            yield "zones", zid, f"zone {zid!r}: anchor node {anchor!r} is not a known node"
            refs_ok = False

    if refs_ok and network.zone_anchors:
        zone_ids = sorted(network.zone_anchors)
        root_zone = zone_ids[0]
        root = network.zone_anchors[root_zone]
        tail, head = network.link_ends
        start = np.arange(len(network.node_ids)) == network.node_index[root]
        forward, backward = _reached(start, tail, head), _reached(start, head, tail)
        for zid in zone_ids:
            anchor = network.zone_anchors[zid]
            if not forward[network.node_index[anchor]]:
                yield "zones", zid, (
                    f"zone {zid!r}: anchor {anchor!r} unreachable from zone {root_zone!r}")
            if not backward[network.node_index[anchor]]:
                yield "zones", zid, (
                    f"zone {zid!r}: anchor {anchor!r} cannot reach zone {root_zone!r}")


def validate(network: Network) -> list[str]:
    """Diagnostics for every violated network invariant; empty when clean."""
    return [message for _, _, message in findings(network)]
