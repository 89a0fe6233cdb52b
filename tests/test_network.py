import ast
import dataclasses
import graphlib
import math
import sys
import threading
import time
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowfit import assignment, network
from flowfit.assignment import assign_iterative
from flowfit.demand import DemandStratum, ODMatrix
from flowfit.network import (
    DisconnectedZonesError,
    Link,
    Network,
    Node,
    PathSet,
    _frontier_distances,
    fill_intrazonal,
    free_flow_times,
    shortest_path_tree,
    validate,
    volume_delay,
)
from flowfit.sample_models import grid_region

from conftest import (
    adjacency,
    brute_force_shortest,
    make_network,
    random_strongly_connected,
    random_tied_network,
)

BPR = dict(t0=10.0, q_max=1000.0, alpha1=0.15, alpha2=4.0)


def bpr_link(**kw):
    args = {**BPR, **kw}
    return Link("l", "a", "b", args["t0"], args["q_max"], args["alpha1"], args["alpha2"])


class TestVolumeDelay:
    def test_zero_flow_is_free_flow(self):
        assert volume_delay(bpr_link(), 0.0) == 10.0

    def test_at_capacity(self):
        # t0 * (1 + alpha1) at Q = q_max
        assert volume_delay(bpr_link(), 1000.0) == pytest.approx(11.5, abs=1e-12)

    def test_double_capacity(self):
        # 10 * (1 + 0.15 * 2**4)
        assert volume_delay(bpr_link(), 2000.0) == pytest.approx(34.0, abs=1e-12)

    def test_negative_flow_rejected(self):
        with pytest.raises(ValueError, match="negative flow -1.0 on link 'l'"):
            volume_delay(bpr_link(), -1.0)

    def test_network_arrays_match_each_link(self, rng):
        net = random_strongly_connected(rng)
        flows = rng.uniform(0.0, 30000.0, len(net.link_ids))
        times = volume_delay(net.bpr, flows)
        assert times.tolist() == [volume_delay(net.links[lid], float(q))
                                  for lid, q in zip(net.link_ids, flows)]

    def test_negative_flow_in_an_array_names_its_link(self):
        net = make_network(["a", "b"], [("ab", "a", "b", 1.0), ("ba", "b", "a", 1.0)], {})
        with pytest.raises(ValueError, match="negative flow -2.0 on link 'ba'"):
            volume_delay(net.bpr, np.array([0.0, -2.0]))

    @given(
        t0=st.floats(0.1, 100.0),
        q_max=st.floats(100.0, 50000.0),
        alpha1=st.floats(0.0, 2.0),
        alpha2=st.floats(1.0, 8.0),
        f1=st.floats(0.0, 1e5),
        f2=st.floats(0.0, 1e5),
    )
    def test_non_decreasing_in_flow(self, t0, q_max, alpha1, alpha2, f1, f2):
        link = Link("l", "a", "b", t0, q_max, alpha1, alpha2)
        lo, hi = sorted((f1, f2))
        assert volume_delay(link, lo) <= volume_delay(link, hi)
        assert volume_delay(link, 0.0) == t0


def tree_from(net, origin):
    """(dist, pred) from one origin as dicts: node -> time, node -> link_id."""
    dist, pred = shortest_path_tree(net, free_flow_times(net), [origin])
    return (
        dict(zip(net.node_ids, dist[0].tolist())),
        {nid: net.link_ids[k] for nid, k in zip(net.node_ids, pred[0]) if k >= 0},
    )


def path_to(net, pred, origin, node):
    """Link ids from origin to node by walking the predecessor links back."""
    out = []
    while node != origin:
        lid = pred[node]
        out.append(lid)
        node = net.links[lid].from_node
    return out[::-1]


def skim(net):
    return PathSet(net, free_flow_times(net)).skim


class TestShortestPathTree:
    def test_single_link(self):
        net = make_network(["a", "b"], [("l1", "a", "b", 5.0)], {})
        dist, pred = tree_from(net, "a")
        assert dist["b"] == 5.0
        assert path_to(net, pred, "a", "b") == ["l1"]

    def test_origin_to_itself(self):
        net = make_network(["a", "b"], [("l1", "a", "b", 5.0)], {})
        dist, pred = tree_from(net, "a")
        assert dist["a"] == 0.0
        assert "a" not in pred

    def test_diamond_picks_cheaper_branch(self):
        # a->b->d costs 2+2=4, a->c->d costs 1+4=5
        net = make_network(
            ["a", "b", "c", "d"],
            [("ab", "a", "b", 2.0), ("bd", "b", "d", 2.0),
             ("ac", "a", "c", 1.0), ("cd", "c", "d", 4.0)],
            {},
        )
        dist, pred = tree_from(net, "a")
        assert dist["d"] == 4.0
        assert path_to(net, pred, "a", "d") == ["ab", "bd"]

    def test_unreachable_flagged_with_inf(self):
        net = make_network(["a", "b", "c"], [("ab", "a", "b", 1.0)], {})
        dist, pred = tree_from(net, "a")
        assert math.isinf(dist["c"])
        assert "c" not in pred

    def test_nonpositive_time_rejected(self):
        net = make_network(["a", "b"], [("ab", "a", "b", 1.0)], {})
        with pytest.raises(ValueError, match=r"nonpositive travel time on link\(s\) \['ab'\]"):
            shortest_path_tree(net, np.array([0.0]), ["a"])

    def test_link_times_must_have_one_entry_per_link(self):
        net = make_network(["a", "b"], [("ab", "a", "b", 1.0)], {})
        with pytest.raises(ValueError, match=r"shape \(2,\), expected \(1,\)"):
            shortest_path_tree(net, np.array([1.0, 1.0]), ["a"])

    def test_matches_brute_force_on_random_networks(self, rng):
        for _ in range(25):
            net = random_strongly_connected(rng)
            origin = sorted(net.nodes)[0]
            dist, _ = tree_from(net, origin)
            for dst in sorted(net.nodes):
                if dst == origin:
                    continue
                expected = brute_force_shortest(net, origin, dst)
                assert dist[dst] == pytest.approx(expected[0], rel=1e-12)

    def test_invariant_under_input_ordering(self, rng):
        for _ in range(10):
            net = random_strongly_connected(rng)
            nodes = list(net.nodes.values())
            links = list(net.links.values())
            perm_n = rng.permutation(len(nodes))
            perm_l = rng.permutation(len(links))
            shuffled = Network.from_parts(
                [nodes[i] for i in perm_n],
                [links[i] for i in perm_l],
                dict(net.zone_anchors),
            )
            origin = sorted(net.nodes)[0]
            assert tree_from(net, origin) == tree_from(shuffled, origin)


def networkx_dist(net, times, origins):
    """Distances by networkx's Dijkstra, shaped (origins, nodes) in node_ids
    order; links that name an unknown node are left out."""
    graph = nx.MultiDiGraph()
    graph.add_nodes_from(net.node_ids)
    for lid, t in zip(net.link_ids, times.tolist()):
        link = net.links[lid]
        if link.from_node in net.nodes and link.to_node in net.nodes:
            graph.add_edge(link.from_node, link.to_node, weight=t)
    out = np.full((len(origins), len(net.node_ids)), np.inf)
    for row, origin in enumerate(origins):
        for node, d in nx.single_source_dijkstra_path_length(graph, origin).items():
            out[row, net.node_index[node]] = d
    return out


def convex_chain(k):
    """Nodes v00..vk with a link vi -> vj for every i < j at time (j - i)**2.

    The cheapest path to vj takes j hops of time 1, yet vj is reached in one
    hop, and each further hop allowed lowers its label: label-correcting
    rounds re-relax vj in each of rounds 1..j, so vk needs k rounds plus one
    that finds nothing, the node count in all, against a hop diameter of 1.
    """
    ids = [f"v{i:02d}" for i in range(k + 1)]
    rows = [(f"{u}_{v}", u, v, float((j - i) ** 2))
            for i, u in enumerate(ids) for j, v in enumerate(ids) if i < j]
    return make_network(ids, rows, {})


class TestFrontierEngine:
    """shortest_path_tree's distances against networkx's Dijkstra, bit for bit."""

    def test_grids_with_scaled_random_times(self, rng):
        for size in ((10, 8), (6, 5)):
            _, net = grid_region(*size, seed=0)
            times = free_flow_times(net) * rng.uniform(1.0, 4.0, len(net.links))
            dist, _ = shortest_path_tree(net, times, net.node_ids)
            assert np.array_equal(dist, networkx_dist(net, times, net.node_ids))

    @pytest.mark.parametrize("make", [random_strongly_connected, random_tied_network])
    def test_random_networks(self, rng, make):
        for _ in range(50):
            net = make(rng)
            times = free_flow_times(net)
            dist, _ = shortest_path_tree(net, times, net.node_ids)
            assert np.array_equal(dist, networkx_dist(net, times, net.node_ids))

    def test_unreachable_nodes_unknown_link_ends_and_repeated_origins(self, rng):
        base = random_strongly_connected(rng)
        first = base.node_ids[0]
        rows = [(lid, l.from_node, l.to_node, l.t0) for lid, l in base.links.items()]
        # sink is entered and never left, island has no link, ghost is no node
        rows += [("to_sink", first, "sink", 2.5), ("to_ghost", first, "ghost", 1.0),
                 ("from_ghost", "ghost", first, 1.0)]
        net = make_network([*base.node_ids, "sink", "island"], rows, {})
        origins = [first, "sink", first, "island", "sink"]
        times = free_flow_times(net)
        dist, pred = shortest_path_tree(net, times, origins)
        assert np.array_equal(dist, networkx_dist(net, times, origins))
        for row in (1, 3):  # sink and island reach only themselves
            assert np.isinf(dist[row]).sum() == len(net.node_ids) - 1
            assert (pred[row] == -1).all()
        assert np.isinf(dist[0, net.node_index["island"]])
        assert net.link_index["to_ghost"] not in pred and net.link_index["from_ghost"] not in pred
        assert np.array_equal(dist[0], dist[2]) and np.array_equal(pred[0], pred[2])
        assert np.array_equal(dist[1], dist[4]) and np.array_equal(pred[1], pred[4])

    def test_labels_re_relaxed_in_every_round(self):
        net = convex_chain(11)  # 12 nodes: all 12 rounds the bound allows
        times = free_flow_times(net)
        assert np.array_equal(shortest_path_tree(net, times, net.node_ids)[0],
                              networkx_dist(net, times, net.node_ids))
        origin = net.node_ids[0]
        dist, pred = tree_from(net, origin)
        for dst in net.node_ids[1:]:
            cost, links = brute_force_shortest(net, origin, dst)
            assert dist[dst] == cost
            assert path_to(net, pred, origin, dst) == links

    def test_labels_still_improving_after_node_count_rounds_is_an_internal_error(self):
        # only a negative cycle, which the positive-time check keeps out, does it
        # padded link tables a -> b at 1 min, b -> a at -2 min
        with pytest.raises(RuntimeError, match="still improving after 2 rounds"):
            _frontier_distances(np.array([[1], [0]]), np.array([[1.0], [-2.0]]),
                                np.array([0]))

    @pytest.mark.parametrize("limit", [1, 1000, 5000])
    def test_origins_in_chunks_give_the_same_trees(self, rng, monkeypatch, limit):
        # scaled times, and every link at 1 min, where most nodes have tied links
        _, net = grid_region(10, 8, seed=0)
        for times in (free_flow_times(net) * rng.uniform(1.0, 4.0, len(net.links)),
                      np.ones(len(net.links))):
            whole = shortest_path_tree(net, times, net.node_ids)
            with monkeypatch.context() as patched:
                patched.setattr(network, "ROUND_CANDIDATES", limit)
                chunked = shortest_path_tree(net, times, net.node_ids)
            assert [a.tobytes() for a in whole] == [a.tobytes() for a in chunked]

    def test_times_lost_in_rounding_end_in_a_predecessor_cycle(self):
        # 1 + 1e-20 == 1: no round improves a or b, so the rounds stop, and
        # ab and ba are both tight; building a PathSet on this network raises
        # ArithmeticError (test_assignment)
        net = make_network(["z", "a", "b"],
                           [("za", "z", "a", 1.0), ("zb", "z", "b", 1.0),
                            ("ab", "a", "b", 1e-20), ("ba", "b", "a", 1e-20)], {})
        assert tree_from(net, "z") == ({"a": 1.0, "b": 1.0, "z": 0.0}, {"a": "ba", "b": "ab"})


def build_bytes(zones, net, times):
    """Every array a path build and its loads produce, as bytes: the
    engine's dist and pred from the zone anchors, the loader's slots, links
    and levels, the skim, one load of a fixed OD, and the total flows of
    MSA-5 on a copy of the network."""
    paths = PathSet(net, times)
    dist, pred = shortest_path_tree(net, times, [net.zone_anchors[z] for z in paths.zone_ids])
    od = ODMatrix(paths.zone_ids, np.random.default_rng(0).random((len(paths.zone_ids),) * 2))
    msa = assign_iterative(dataclasses.replace(net), zones,
                           [DemandStratum("all", "population", "population", 0.8, 0.08)],
                           5, gap_tol=0.0)
    arrays = [dist, pred, paths._link, paths._od_slot,
              paths.skim.values, paths.flow_vector(od), msa.total]
    arrays += [np.array([lo, hi]) for lo, hi, _ in paths._levels]
    arrays += [parent for *_, parent in paths._levels]
    return [a.tobytes() for a in arrays]


def with_blocks(monkeypatch, workers, limit, fn, *args):
    """fn(*args) with path_workers() patched to workers and ROUND_CANDIDATES to limit."""
    with monkeypatch.context() as patched:
        patched.setattr(network, "path_workers", lambda: workers)
        patched.setattr(network, "ROUND_CANDIDATES", limit)
        return fn(*args)


class TestOriginBlocks:
    """Path builds run their origins in row blocks on every CPU
    (network._row_blocks); no output depends on the CPU count."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("limit", [1000, 1 << 15])
    def test_any_worker_count_gives_the_same_bytes(self, rng, monkeypatch, workers, limit):
        # 1000: blocks of one or a few origins; 1 << 15: one block per strand.
        # Scaled times, and every link at 1 min, where most nodes have tied links
        # Threads switch as often as the interpreter allows, so a block that
        # wrote outside its own rows would show.
        zones, net = grid_region(10, 8, seed=0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for times in (free_flow_times(net) * rng.uniform(1.0, 4.0, len(net.links)),
                          np.ones(len(net.links))):
                serial = with_blocks(monkeypatch, 1, 1 << 22, build_bytes, zones, net, times)
                assert with_blocks(monkeypatch, workers, limit, build_bytes,
                                   zones, net, times) == serial
        finally:
            sys.setswitchinterval(interval)

    def test_more_workers_than_origins(self, monkeypatch):
        net = make_network(["a", "b"], [("ab", "a", "b", 3.0), ("ba", "b", "a", 3.0)],
                           {"z1": "a"})
        times = free_flow_times(net)
        paths = with_blocks(monkeypatch, 3, 1, PathSet, net, times)
        dist, pred = with_blocks(monkeypatch, 3, 1, shortest_path_tree, net, times, ["a"])
        assert paths.skim.values.tolist() == [[0.0]]
        assert dist.tolist() == [[0.0, 3.0]]
        assert pred.tolist() == [[-1, net.link_index["ab"]]]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("rows, width, limit", [(10, 1, 1 << 22), (10, 3, 64),
                                                     (7, 5, 20), (400, 1520, 1 << 22)])
    def test_blocks_cover_every_row_once_in_order_within_the_limit(
            self, monkeypatch, workers, rows, width, limit):
        lock, live, peak = threading.Lock(), [0], [0]

        def block(lo, hi):
            with lock:
                live[0] += (hi - lo) * width
                peak[0] = max(peak[0], live[0])
            time.sleep(0.002)  # long enough for the strands' blocks to overlap
            with lock:
                live[0] -= (hi - lo) * width
            return lo, hi

        blocks = with_blocks(monkeypatch, workers, limit, network._row_blocks,
                             block, rows, width, limit >> 6)
        assert [lo for lo, _ in blocks] == [0, *(hi for _, hi in blocks[:-1])]
        assert blocks[-1][1] == rows and all(lo < hi for lo, hi in blocks)
        # a block of one row may exceed the limit alone, never with others
        assert peak[0] <= limit or max(hi - lo for lo, hi in blocks) == 1

    def test_the_first_block_error_is_raised(self, monkeypatch):
        def block(lo, hi):
            raise ValueError(f"block {lo}")

        for workers in (1, 2, 3):
            with pytest.raises(ValueError, match="^block 0$"):
                with_blocks(monkeypatch, workers, 64, network._row_blocks, block, 12, 1, 1)

    def test_labels_still_improving_in_a_worker_block(self, monkeypatch):
        # a negative cycle, which the positive-time check keeps out of the
        # engine; the second strand's origin reaches it, the first's does not
        # padded link tables: node 0 has no out-link, 1 -> 2 at 1 min, 2 -> 1 at -2 min
        out_head, out_time = np.array([[0], [2], [1]]), np.array([[np.inf], [1.0], [-2.0]])

        def rounds(lo, hi):
            return network._frontier_distances(out_head, out_time, np.array([0, 1])[lo:hi])

        assert with_blocks(monkeypatch, 2, 64, network._row_blocks, rounds, 1, 2, 1)[0].size == 3
        with pytest.raises(RuntimeError, match="^labels still improving after 3 rounds$"):
            with_blocks(monkeypatch, 2, 64, network._row_blocks, rounds, 2, 2, 1)

    def test_predecessor_cycle_in_a_worker_block(self, monkeypatch):
        # zone z2's tree, the second strand's, holds the cycle a <-> b at 1e-20
        rows = [("za", "z", "a", 1.0), ("zb", "z", "b", 1.0),
                ("ab", "a", "b", 1e-20), ("ba", "b", "a", 1e-20)]
        net = make_network(["z", "a", "b"], rows, {"z1": "a", "z2": "z"})
        for workers in (1, 2):
            with pytest.raises(ArithmeticError, match="^predecessor cycle: link times lost "
                                                      "in rounding path lengths$"):
                with_blocks(monkeypatch, workers, 64, PathSet, net, free_flow_times(net))

    def test_disconnected_zones_after_blocks(self, monkeypatch):
        # zone z3's anchor c has no out-link: its whole row is unreachable;
        # the check reads the skim on the calling thread once the blocks end
        rows = [("ab", "a", "b", 1.0), ("ba", "b", "a", 1.0), ("ac", "a", "c", 1.0)]
        net = make_network(["a", "b", "c"], rows, {"z1": "a", "z2": "b", "z3": "c"})
        for workers in (1, 2, 3):
            with pytest.raises(DisconnectedZonesError,
                               match="^no path from zone 'z3' to zone 'z1'$"):
                with_blocks(monkeypatch, workers, 64, PathSet, net, free_flow_times(net))

    def test_a_traced_engine_runs_once_on_the_calling_thread(self, monkeypatch):
        # perfbench/spans.py keeps one span stack, so a function it wraps must
        # never run on a worker thread; the blocks themselves do
        _, net = grid_region(10, 8, seed=0)
        engine, rounds = network.shortest_path_tree, network._frontier_distances
        calls, block_threads = [], set()

        def traced(*args):
            calls.append(threading.get_ident())
            return engine(*args)

        def spied(*args):
            block_threads.add(threading.get_ident())
            return rounds(*args)

        monkeypatch.setattr(network, "shortest_path_tree", traced)
        monkeypatch.setattr(network, "_frontier_distances", spied)
        with_blocks(monkeypatch, 2, 1 << 15, PathSet, net, free_flow_times(net))
        assert calls == [threading.get_ident()]
        assert len(block_threads) == 2 and threading.get_ident() in block_threads


# Links around every shape the padded link tables pad: hub has 10 out-links
# and 10 in-links at equal times; sink has no out-link; src has no in-link
# and is no origin; pq_b and pq_a join p to q at equal times; island has no
# link. a0_a1 and a4_a5 tie with the path through hub, which the tail's
# node_id decides ("a0" < "hub").
SPOKES = [f"a{i}" for i in range(9)]
EDGE_ROWS = ([(f"in_{s}", s, "hub", 1.0) for s in SPOKES]
             + [(f"out_{s}", "hub", s, 1.0) for s in SPOKES]
             + [("a0_a1", "a0", "a1", 2.0), ("a4_a5", "a4", "a5", 2.0),
                ("hub_sink", "hub", "sink", 1.0), ("src_hub", "src", "hub", 1.0),
                ("a2_p", "a2", "p", 1.0), ("pq_b", "p", "q", 2.0), ("pq_a", "p", "q", 2.0),
                ("q_a3", "q", "a3", 1.0)])
EDGE_NODES = [*SPOKES, "hub", "sink", "src", "p", "q", "island"]
# links that name the unknown node ghost
GHOST_ROWS = [("to_ghost", "a6", "ghost", 1.0), ("from_ghost", "ghost", "a7", 1.0)]


def tie_rule_tree(net, origin):
    """(dist, pred) from origin as dicts over reached nodes by enumeration:
    brute-force distances (exact at these integer times), and each node but
    the origin entered on its tight link with the smallest (node_id, link_id)."""
    dist = {origin: 0.0}
    for v in net.node_ids:
        best = brute_force_shortest(net, origin, v) if v != origin else None
        if best is not None:
            dist[v] = best[0]
    pred = {v: min((l.from_node, l.link_id) for l in net.links.values()
                   if l.to_node == v and dist.get(l.from_node, math.inf) + l.t0 == dist[v])[1]
            for v in dist if v != origin}
    return dist, pred


class TestPaddedTables:
    """shortest_path_tree reads each node's links as one row of a padded
    table; the padding must never route, whatever the degrees."""

    def test_tables_pad_each_node_to_the_most_links(self):
        net = make_network(EDGE_NODES, EDGE_ROWS + GHOST_ROWS, {})
        out_head, out_time, in_tail, in_time, in_link = network._link_tables(
            net, free_flow_times(net))
        assert out_head.shape == in_tail.shape == (len(EDGE_NODES), 10)
        ix = net.node_index
        assert np.isinf(out_time[ix["sink"]]).all() and (in_link[ix["src"]] == -1).all()
        assert [net.link_ids[k] for k in in_link[ix["q"]] if k >= 0] == ["pq_a", "pq_b"]
        ghosts = {net.link_index[lid] for lid, *_ in GHOST_ROWS}
        assert ghosts.isdisjoint(in_link.ravel().tolist())
        assert (out_time[ix["a6"]] < np.inf).sum() == 1  # in_a6 only, not to_ghost

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("limit", [1, 1000])
    def test_trees_match_the_oracles_for_any_blocks(self, monkeypatch, workers, limit):
        net = make_network(EDGE_NODES, EDGE_ROWS + GHOST_ROWS, {})
        routable = make_network(EDGE_NODES, EDGE_ROWS, {})  # what the oracles read
        origins = [v for v in EDGE_NODES if v != "src"]
        times = free_flow_times(net)
        dist, pred = with_blocks(monkeypatch, workers, limit, shortest_path_tree,
                                 net, times, origins)
        serial = with_blocks(monkeypatch, 1, 1 << 22, shortest_path_tree, net, times, origins)
        assert [dist.tobytes(), pred.tobytes()] == [a.tobytes() for a in serial]
        assert np.array_equal(dist, networkx_dist(net, times, origins))
        for row, origin in enumerate(origins):
            assert pred[row, net.node_index[origin]] == -1
            expected_dist, expected_pred = tie_rule_tree(routable, origin)
            assert {v: d for v, d in zip(net.node_ids, dist[row].tolist())
                    if d < math.inf} == expected_dist
            assert {v: net.link_ids[k] for v, k in zip(net.node_ids, pred[row])
                    if k >= 0} == expected_pred
        # src has no in-link, island no link, sink no out-link
        assert np.isinf(dist[:, net.node_index["src"]]).all()
        assert (pred[:, net.node_index["src"]] == -1).all()
        for lonely in ("sink", "island"):
            row = origins.index(lonely)
            assert np.isinf(dist[row]).sum() == len(EDGE_NODES) - 1
            assert (pred[row] == -1).all()
        hub = origins.index("hub")
        assert net.link_ids[pred[hub, net.node_index["q"]]] == "pq_a"
        assert net.link_ids[pred[origins.index("a0"), net.node_index["a1"]]] == "a0_a1"


class TestSkimMatrix:
    def test_single_zone_intrazonal(self):
        net = make_network(["a", "b"], [("ab", "a", "b", 3.0), ("ba", "b", "a", 3.0)],
                           {"z1": "a"})
        costs = skim(net)
        assert costs.zone_ids == ("z1",)
        assert costs.values[0, 0] == 0.0

    def test_two_zones_single_link_each_way(self):
        net = make_network(["a", "b"], [("ab", "a", "b", 12.0), ("ba", "b", "a", 12.0)],
                           {"z1": "a", "z2": "b"})
        costs = skim(net)
        assert costs.values[0, 1] == 12.0
        assert costs.values[1, 0] == 12.0
        # intrazonal: half the row's minimum off-diagonal cost
        assert costs.values[0, 0] == 6.0

    def test_three_zones_on_a_line(self):
        rows = [("ab", "a", "b", 5.0), ("ba", "b", "a", 5.0),
                ("bc", "b", "c", 7.0), ("cb", "c", "b", 7.0)]
        net = make_network(["a", "b", "c"], rows, {"z1": "a", "z2": "b", "z3": "c"})
        costs = skim(net)
        assert costs.values[0, 2] == 12.0

    def test_disconnected_pair_names_both_zones(self):
        net = make_network(["a", "b"], [("ab", "a", "b", 1.0)], {"z1": "a", "z2": "b"})
        with pytest.raises(DisconnectedZonesError, match="'z2'.*'z1'"):
            skim(net)

    def test_a_whole_unreachable_row_names_its_first_pair(self):
        # z1's anchor b has no out-link, so its row is unreachable but for the
        # diagonal, which is tested before it is filled (with 0.5 * inf)
        rows = [("ab", "a", "b", 1.0), ("ac", "a", "c", 1.0), ("ca", "c", "a", 1.0)]
        net = make_network(["a", "b", "c"], rows, {"z1": "b", "z2": "a", "z3": "c"})
        with pytest.raises(DisconnectedZonesError, match="^no path from zone 'z1' to zone 'z2'$"):
            skim(net)

    def test_triangle_inequality(self, rng):
        for _ in range(20):
            net = random_strongly_connected(rng)
            costs = skim(net)
            n = len(costs.zone_ids)
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        if len({i, j, k}) < 3:
                            continue
                        assert costs.values[i, k] <= (
                            costs.values[i, j] + costs.values[j, k] + 1e-9
                        )

    def test_matches_brute_force_enumeration(self, rng):
        for _ in range(15):
            net = random_strongly_connected(rng)
            costs = skim(net)
            for i, zi in enumerate(costs.zone_ids):
                for j, zj in enumerate(costs.zone_ids):
                    if i == j:
                        continue
                    expected = brute_force_shortest(
                        net, net.zone_anchors[zi], net.zone_anchors[zj]
                    )
                    assert costs.values[i, j] == pytest.approx(expected[0], rel=1e-12)


    def test_fill_intrazonal_matches_the_row_loop(self, rng):
        for n in (1, 2, 3, 17):
            values = rng.uniform(1.0, 50.0, size=(n, n))
            expected = values.copy()
            for i in range(n):
                off = np.delete(expected[i], i)
                expected[i, i] = 0.5 * off.min() if off.size else 0.0
            fill_intrazonal(values)
            assert values.tobytes() == expected.tobytes()

    def test_skim_is_a_read_only_row_major_copy_of_the_anchor_columns(self):
        zones, net = grid_region(5, 4, seed=0)
        paths = PathSet(net, free_flow_times(net))
        values = paths.skim.values
        dist, _ = shortest_path_tree(net, free_flow_times(net),
                                     [net.zone_anchors[z] for z in paths.zone_ids])
        assert values.flags.c_contiguous and not values.flags.writeable
        assert not np.shares_memory(values, dist)
        anchors = [net.node_index[net.zone_anchors[z]] for z in paths.zone_ids]
        expected = dist[:, anchors]
        fill_intrazonal(expected)
        assert np.array_equal(values, expected)


class TestFreeFlowPaths:
    def test_built_on_first_use_and_kept(self):
        net = make_network(["a", "b"], [("ab", "a", "b", 2.0), ("ba", "b", "a", 3.0)],
                           {"z1": "a", "z2": "b"})
        paths = net.free_flow_paths
        assert paths is net.free_flow_paths
        assert np.array_equal(paths.skim.values, skim(net).values)

    def test_a_failed_build_keeps_nothing(self):
        net = make_network(["a", "b"], [("ab", "a", "b", 1.0)], {"z1": "a", "z2": "b"})
        for _ in range(2):
            with pytest.raises(DisconnectedZonesError):
                net.free_flow_paths
        assert "free_flow_paths" not in vars(net)

    def test_link_index_is_the_position_in_link_ids(self, rng):
        net = random_strongly_connected(rng)
        assert [net.link_index[lid] for lid in net.link_ids] == list(range(len(net.links)))


def held_arrays(obj):
    """Every numpy array obj holds: itself, or through its lists, tuples and
    attributes."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in held_arrays(item)]
    return [a for value in getattr(obj, "__dict__", {}).values() for a in held_arrays(value)]


class TestPathSetHolds:
    """A path set keeps its skim and its loader; shortest_path_tree gives
    dist and pred."""

    def test_only_its_skim_and_its_loader(self):
        # two zone anchors on a five-node ring: origins x nodes is 2 x 5, the skim 2 x 2
        ring = ["a", "b", "c", "d", "e"]
        rows = [(u + v, u, v, 1.0) for u, v in zip(ring, ring[1:] + ring[:1])]
        net = make_network(ring, rows, {"z1": "a", "z2": "c"})
        paths = PathSet(net, free_flow_times(net))
        assert [name for name in dir(paths) if not name.startswith("_")] == [
            "flow_vector", "link_ids", "skim", "zone_ids"]
        for name in ("dist", "pred", "cost_matrix"):
            assert not hasattr(paths, name), name
        shapes = [a.shape for a in held_arrays(paths)]
        assert (2, 2) in shapes
        assert (2, 5) not in shapes and (10,) not in shapes, shapes
        assert paths.skim.values.tolist() == [[1.0, 2.0], [3.0, 1.5]]


def package_imports(path: Path):
    """(imports at module level, imports anywhere) of one module's source."""
    tree = ast.parse(path.read_text())
    kinds = (ast.Import, ast.ImportFrom)
    return ([node for node in tree.body if isinstance(node, kinds)],
            [node for node in ast.walk(tree) if isinstance(node, kinds)])


class TestPathSetHome:
    """The path set lives beside the engine whose trees it decodes."""

    def test_assignment_binds_the_network_path_set(self):
        assert assignment.PathSet is network.PathSet
        net = make_network(["a", "b"], [("ab", "a", "b", 2.0), ("ba", "b", "a", 3.0)],
                           {"z1": "a", "z2": "b"})
        assert type(net.free_flow_paths) is network.PathSet

    def test_network_imports_only_the_standard_library_and_numpy(self):
        _, nodes = package_imports(Path(network.__file__))
        roots = set()
        for node in nodes:
            assert isinstance(node, ast.Import) or node.level == 0, ast.unparse(node)
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            roots.update(name.split(".")[0] for name in names)
        assert roots - set(sys.stdlib_module_names) == {"numpy"}

    def test_package_imports_only_at_module_level_and_without_a_cycle(self):
        graph = {}
        for path in Path(network.__file__).parent.glob("*.py"):
            top, every = package_imports(path)
            assert every == top, f"{path.name}: an import inside a function or class"
            graph[path.stem] = {node.module for node in top
                                if isinstance(node, ast.ImportFrom) and node.level == 1}
        assert graph["network"] == set()
        tuple(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError


class TestValidate:
    def well_formed(self):
        return make_network(
            ["a", "b", "c"],
            [("ab", "a", "b", 1.0), ("ba", "b", "a", 1.0),
             ("bc", "b", "c", 1.0), ("cb", "c", "b", 1.0)],
            {"z1": "a", "z2": "c"},
        )

    def test_clean_network_has_no_diagnostics(self):
        assert validate(self.well_formed()) == []

    def test_link_with_missing_node(self):
        net = Network.from_parts(
            [Node("a")], [Link("ab", "a", "ghost", 1.0, 100.0)], {}
        )
        issues = validate(net)
        assert len(issues) == 1
        assert "'ab'" in issues[0] and "ghost" in issues[0]

    def test_bad_link_parameters(self):
        net = Network.from_parts(
            [Node("a"), Node("b")],
            [Link("ab", "a", "b", -1.0, 0.0, -0.5, 0.5), Link("aa", "a", "a", 1.0, 1.0)],
            {},
        )
        issues = validate(net)
        assert any("t0" in m for m in issues)
        assert any("q_max" in m for m in issues)
        assert any("alpha1" in m for m in issues)
        assert any("alpha2" in m for m in issues)
        assert any("from_node equals to_node" in m for m in issues)

    def test_anchor_without_outgoing_links_is_a_connectivity_issue(self):
        # c has an incoming link only: z2's anchor can never reach z1
        net = make_network(
            ["a", "b", "c"],
            [("ab", "a", "b", 1.0), ("ba", "b", "a", 1.0), ("bc", "b", "c", 1.0)],
            {"z1": "a", "z2": "c"},
        )
        issues = validate(net)
        assert any("cannot reach" in m and "'z2'" in m for m in issues)

    def test_reachability_matches_a_depth_first_search(self, rng):
        def reached(adj, start):
            seen, stack = {start}, [start]
            while stack:
                for v, _ in adj[stack.pop()]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            return seen

        for _ in range(30):
            node_ids = [f"n{i}" for i in range(6)]
            rows = [(f"{u}{v}", u, v, 1.0) for u in node_ids for v in node_ids
                    if u != v and rng.random() < 0.2]
            net = make_network(node_ids, rows, {f"z{i}": n for i, n in enumerate(node_ids)})
            reverse = make_network(node_ids, [(l, v, u, t) for l, u, v, t in rows], {})
            forward, backward = reached(adjacency(net), "n0"), reached(adjacency(reverse), "n0")
            expected = []
            for i, nid in enumerate(node_ids):
                if nid not in forward:
                    expected.append(f"zone 'z{i}': anchor {nid!r} unreachable from zone 'z0'")
                if nid not in backward:
                    expected.append(f"zone 'z{i}': anchor {nid!r} cannot reach zone 'z0'")
            assert validate(net) == expected

    def test_unknown_anchor_node(self):
        net = make_network(["a", "b"],
                           [("ab", "a", "b", 1.0), ("ba", "b", "a", 1.0)],
                           {"z1": "nowhere"})
        issues = validate(net)
        assert any("anchor node 'nowhere'" in m for m in issues)

    def test_duplicate_ids_rejected_at_construction(self):
        with pytest.raises(ValueError, match="duplicate node_id"):
            Network.from_parts([Node("a"), Node("a")], [], {})
        with pytest.raises(ValueError, match="duplicate link_id"):
            Network.from_parts(
                [Node("a"), Node("b")],
                [Link("l", "a", "b", 1.0, 1.0), Link("l", "b", "a", 1.0, 1.0)],
                {},
            )
