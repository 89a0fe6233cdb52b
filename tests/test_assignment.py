import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flowfit

from flowfit.assignment import (
    AssignmentOptions,
    PathSet,
    assign,
    assign_all_or_nothing,
    assign_iterative,
    load_strata,
)
from flowfit.demand import (
    DemandStratum,
    ODMatrix,
    Zone,
    ZoneAttributes,
    derive_jobs,
    distribute,
)
from flowfit.model_io import load_model
from flowfit.network import (
    DisconnectedZonesError,
    Link,
    Network,
    Node,
    free_flow_times,
    shortest_path_tree,
    volume_delay,
)
from flowfit.sample_models import eight_zone_star, grid_region, toy_strata

from conftest import (
    all_simple_link_paths,
    brute_force_shortest,
    make_network,
    random_strongly_connected,
    random_tied_network,
)


def od_of(zone_ids, trips):
    return ODMatrix(tuple(zone_ids), np.asarray(trips, dtype=float))


def brute_force_flows(network, od):
    """Independent oracle: route every OD pair on its enumerated cheapest path."""
    flows = {lid: 0.0 for lid in network.links}
    anchors = network.zone_anchors
    for i, zi in enumerate(od.zone_ids):
        for j, zj in enumerate(od.zone_ids):
            if i == j or od.trips[i, j] == 0.0:
                continue
            best = brute_force_shortest(network, anchors[zi], anchors[zj])
            assert best is not None
            for lid in best[1]:
                flows[lid] += od.trips[i, j]
    return flows


def tie_rule_flows(network, od):
    """Oracle for the tie rule: enumerated distances (exact for integer times),
    then every node is entered on its tight link with the smallest
    (node_id, link_id)."""
    flows = {lid: 0.0 for lid in network.links}
    anchors = network.zone_anchors
    for i, zi in enumerate(od.zone_ids):
        src = anchors[zi]
        dist = {src: 0.0}
        for v in network.nodes:
            if v != src:
                dist[v] = min(t for t, _ in all_simple_link_paths(network, src, v))
        for j, zj in enumerate(od.zone_ids):
            if i == j or od.trips[i, j] == 0.0:
                continue
            node = anchors[zj]
            while node != src:
                node, lid = min(
                    (l.from_node, l.link_id) for l in network.links.values()
                    if l.to_node == node and dist[l.from_node] + l.t0 == dist[node]
                )
                flows[lid] += od.trips[i, j]
    return flows


def node_balance_residuals(network, od, flows):
    """inflow + originating - outflow - terminating, per node."""
    residual = {nid: 0.0 for nid in network.nodes}
    for lid, q in flows.items():
        link = network.links[lid]
        residual[link.to_node] += q
        residual[link.from_node] -= q
    for i, zi in enumerate(od.zone_ids):
        for j, zj in enumerate(od.zone_ids):
            if i == j:
                continue
            t = od.trips[i, j]
            residual[network.zone_anchors[zi]] += t
            residual[network.zone_anchors[zj]] -= t
    return residual


class TestAllOrNothing:
    def test_single_connecting_link(self):
        net = make_network(["a", "b"], [("ab", "a", "b", 5.0), ("ba", "b", "a", 5.0)],
                           {"z1": "a", "z2": "b"})
        flows = assign_all_or_nothing(net, free_flow_times(net),
                                      od_of(["z1", "z2"], [[0, 100], [0, 0]]))
        assert flows == {"ab": 100.0, "ba": 0.0}

    def test_zero_matrix_gives_zero_flows(self):
        net = make_network(["a", "b"], [("ab", "a", "b", 5.0), ("ba", "b", "a", 5.0)],
                           {"z1": "a", "z2": "b"})
        flows = assign_all_or_nothing(net, free_flow_times(net),
                                      od_of(["z1", "z2"], np.zeros((2, 2))))
        assert set(flows.values()) == {0.0}

    def test_three_zone_line_loads_both_segments(self):
        rows = [("ab", "a", "b", 5.0), ("ba", "b", "a", 5.0),
                ("bc", "b", "c", 7.0), ("cb", "c", "b", 7.0)]
        net = make_network(["a", "b", "c"], rows, {"z1": "a", "z2": "b", "z3": "c"})
        trips = np.zeros((3, 3))
        trips[0, 2] = 50.0
        flows = assign_all_or_nothing(net, free_flow_times(net),
                                      od_of(["z1", "z2", "z3"], trips))
        assert flows["ab"] == 50.0
        assert flows["bc"] == 50.0
        assert flows["ba"] == 0.0 and flows["cb"] == 0.0

    def test_intrazonal_trips_never_touch_the_network(self):
        net = make_network(["a", "b"], [("ab", "a", "b", 5.0), ("ba", "b", "a", 5.0)],
                           {"z1": "a", "z2": "b"})
        flows = assign_all_or_nothing(net, free_flow_times(net),
                                      od_of(["z1", "z2"], [[1000, 0], [0, 1000]]))
        assert set(flows.values()) == {0.0}

    def test_unreachable_pair_names_the_pair_even_without_trips(self):
        net = make_network(["a", "b"], [("ab", "a", "b", 5.0)],
                           {"z1": "a", "z2": "b"})
        with pytest.raises(DisconnectedZonesError, match="'z2'.*'z1'"):
            assign_all_or_nothing(net, free_flow_times(net),
                                  od_of(["z1", "z2"], [[0, 10], [0, 0]]))

    def test_matches_brute_force_exactly_on_random_networks(self, rng):
        # integer trip counts keep float sums exact, so equality is exact
        for _ in range(50):
            net = random_strongly_connected(rng)
            zone_ids = sorted(net.zone_anchors)
            n = len(zone_ids)
            trips = rng.integers(0, 50, size=(n, n)).astype(float)
            od = od_of(zone_ids, trips)
            flows = assign_all_or_nothing(net, free_flow_times(net), od)
            assert flows == brute_force_flows(net, od)

    def test_node_flow_balance(self, rng):
        for _ in range(20):
            net = random_strongly_connected(rng)
            zone_ids = sorted(net.zone_anchors)
            n = len(zone_ids)
            trips = rng.integers(0, 50, size=(n, n)).astype(float)
            od = od_of(zone_ids, trips)
            flows = assign_all_or_nothing(net, free_flow_times(net), od)
            for nid, res in node_balance_residuals(net, od, flows).items():
                assert abs(res) <= 1e-9

    def test_deterministic_across_runs(self, rng):
        net = random_strongly_connected(rng)
        zone_ids = sorted(net.zone_anchors)
        n = len(zone_ids)
        od = od_of(zone_ids, rng.uniform(0.0, 100.0, (n, n)))
        first = assign_all_or_nothing(net, free_flow_times(net), od)
        second = assign_all_or_nothing(net, free_flow_times(net), od)
        assert first == second

    def test_equal_cost_ties_follow_the_smallest_node_and_link_id(self, rng):
        for _ in range(60):
            net = random_tied_network(rng)
            zone_ids = sorted(net.zone_anchors)
            n = len(zone_ids)
            od = od_of(zone_ids, rng.integers(0, 50, size=(n, n)).astype(float))
            flows = assign_all_or_nothing(net, free_flow_times(net), od)
            assert flows == tie_rule_flows(net, od)

    def test_star_with_equal_link_times_follows_the_tie_rule(self, rng):
        zones, star = eight_zone_star()
        net = Network.from_parts(
            star.nodes.values(),
            [Link(l.link_id, l.from_node, l.to_node, 10.0, l.q_max)
             for l in star.links.values()],
            star.zone_anchors,
        )
        zone_ids = sorted(net.zone_anchors)
        od = od_of(zone_ids, rng.integers(1, 50, size=(8, 8)).astype(float))
        flows = assign_all_or_nothing(net, free_flow_times(net), od)
        assert flows == tie_rule_flows(net, od)

    def test_flow_equals_trips_times_path_length(self):
        rows = [("ab", "a", "b", 5.0), ("ba", "b", "a", 5.0),
                ("bc", "b", "c", 7.0), ("cb", "c", "b", 7.0)]
        net = make_network(["a", "b", "c"], rows, {"z1": "a", "z3": "c"})
        trips = np.array([[0.0, 30.0], [0.0, 0.0]])
        flows = assign_all_or_nothing(net, free_flow_times(net),
                                      od_of(["z1", "z3"], trips))
        assert sum(flows.values()) == 30.0 * 2  # two links on the path


def parallel_route_network():
    """One OD pair, two parallel links with equal t0 but unequal capacity."""
    nodes = [Node("a"), Node("b")]
    links = [
        Link("r1", "a", "b", 10.0, 1000.0),
        Link("r2", "a", "b", 10.0, 2000.0),
        Link("back", "b", "a", 10.0, 10000.0),
    ]
    net = Network.from_parts(nodes, links, {"z1": "a", "z2": "b"})
    zones = [Zone("z1", attributes={"population": 1500.0}),
             Zone("z2", attributes={"population": 1500.0})]
    strata = [DemandStratum("s", "population", "population", 1.0, 0.01)]
    return net, zones, strata


def incidence_flow_vector(network, od):
    """Reference loader at free flow: walks every OD pair back from its
    destination along the predecessor links, all pairs in step, into a
    link x OD-pair incidence, and multiplies it by the trips (written here
    as a bincount). PathSet.flow_vector pushes the trips up each origin's
    tree instead. od must be ordered by sorted zone id."""
    zone_ids = tuple(sorted(network.zone_anchors))
    assert od.zone_ids == zone_ids
    n = len(zone_ids)
    anchors = [network.zone_anchors[z] for z in zone_ids]
    dist, pred = shortest_path_tree(network, free_flow_times(network), anchors)
    anchor_pos = np.array([network.node_index[a] for a in anchors], dtype=np.intp)
    tail, _ = network.link_ends
    rows, cols = np.nonzero(np.isfinite(dist[:, anchor_pos]))
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
    trips = np.array(od.trips, dtype=float)
    np.fill_diagonal(trips, 0.0)
    return np.bincount(np.concatenate(link_rows),
                       weights=trips.ravel()[np.concatenate(pair_cols)],
                       minlength=len(network.link_ids))


def with_shared_anchor(network):
    """The same network plus zone 'zz', anchored where the first zone is."""
    first = sorted(network.zone_anchors)[0]
    return Network.from_parts(network.nodes.values(), network.links.values(),
                              {**network.zone_anchors, "zz": network.zone_anchors[first]})


class TestTreeLoader:
    """PathSet.flow_vector against the walk-and-incidence reference. Every
    network has two zones on one anchor, whose trips must add up."""

    def test_matches_the_incidence_exactly_with_integer_trips(self, rng):
        for _ in range(40):
            net = with_shared_anchor(random_tied_network(rng))
            zone_ids = sorted(net.zone_anchors)
            n = len(zone_ids)
            od = od_of(zone_ids, rng.integers(0, 50, size=(n, n)).astype(float))
            got = PathSet(net, free_flow_times(net)).flow_vector(od)
            assert np.array_equal(got, incidence_flow_vector(net, od))

    def test_matches_the_incidence_on_a_grid_with_float_trips(self, rng):
        _, net = grid_region(10, 8, 0)
        net = with_shared_anchor(net)
        zone_ids = sorted(net.zone_anchors)
        n = len(zone_ids)
        od = od_of(zone_ids, rng.uniform(0.0, 100.0, (n, n)))
        got = PathSet(net, free_flow_times(net)).flow_vector(od)
        ref = incidence_flow_vector(net, od)
        assert np.abs(got - ref).max() <= 1e-12 * ref.max()

    def test_zones_sharing_an_anchor_add_their_trips(self):
        net = make_network(["a", "b"], [("ab", "a", "b", 5.0), ("ba", "b", "a", 5.0)],
                           {"z1": "a", "z2": "a", "z3": "b"})
        flows = assign_all_or_nothing(
            net, free_flow_times(net),
            od_of(["z1", "z2", "z3"], [[0, 7, 1], [3, 0, 2], [4, 5, 0]]))
        assert flows == {"ab": 3.0, "ba": 9.0}

    def test_link_times_lost_in_rounding_raise_instead_of_looping(self):
        # 1 + 1e-20 == 1, so the cycle links look tight both ways; with two
        # and with three nodes on the cycle
        for ring in (["a", "b"], ["a", "b", "c"]):
            rows = [(f"z{u}", "z", u, 1.0) for u in ring]
            rows += [(u + v, u, v, 1e-20) for u, v in zip(ring, ring[1:] + ring[:1])]
            net = make_network(["z", *ring], rows, {"z1": "z", "z2": "a"})
            with pytest.raises(ArithmeticError, match="predecessor cycle"):
                PathSet(net, free_flow_times(net))


def anchor_pred(network, times):
    """shortest_path_tree's pred from the zone anchors in zone id order,
    the trees a PathSet at these times decodes."""
    anchors = [network.zone_anchors[z] for z in sorted(network.zone_anchors)]
    return shortest_path_tree(network, times, anchors)[1]


def pointer_jumping_levels(network, pred):
    """Reference level split: the hop depth of every tree edge of pred by
    all bit_length(nodes) passes of pointer jumping, then the edges in a
    stable argsort of -depth, cut where the depth changes. Returns (child,
    parent) flat (origin, node) indices per level."""
    n_nodes = pred.shape[1]
    tail, _ = network.link_ends
    child = np.flatnonzero(pred >= 0)
    parent = child - child % n_nodes + tail[pred.ravel()[child]]
    up, depth = np.arange(pred.size), np.zeros(pred.size, dtype=np.intp)
    up[child], depth[child] = parent, 1
    for _ in range(n_nodes.bit_length()):
        depth, up = depth + depth[up], up[up]
    assert (pred.ravel()[up] < 0).all()
    order = np.argsort(-depth[child], kind="stable")
    child, parent = child[order], parent[order]
    cuts = np.flatnonzero(np.diff(depth[child])) + 1
    return list(zip(np.split(child, cuts), np.split(parent, cuts)))


def flat_index_flow_vector(network, times, od):
    """Reference loader over flat (origin, node) indices of the trees at
    times: trips added at their destinations, each level's children
    gathered and added to their parents, deepest first, then each link
    summed over the entries it enters."""
    pred = anchor_pred(network, times)
    levels = pointer_jumping_levels(network, pred)
    n_nodes = pred.shape[1]
    anchor_pos = np.array([network.node_index[network.zone_anchors[z]]
                           for z in sorted(network.zone_anchors)], dtype=np.intp)
    od_cell = (np.arange(anchor_pos.size)[:, None] * n_nodes + anchor_pos).ravel()
    acc = np.bincount(od_cell, np.ravel(od.trips), pred.size)
    for child, parent in levels:
        np.add.at(acc, parent, acc[child])
    child = np.concatenate([child for child, _ in levels])
    return np.bincount(pred.ravel()[child], acc[child], len(network.link_ids))


def assert_same_levels(network, times, paths):
    """The slot layout of paths, built at times: the reference levels'
    edges take slots 0, 1, ... in order, the roots (pred -1) the rest in
    flat order; each level is a (lo, hi) slice with its edges' parents'
    slots."""
    pred = anchor_pred(network, times)
    expected = pointer_jumping_levels(network, pred)
    flat_pred = pred.ravel()
    edges = np.concatenate([child for child, _ in expected])
    slot = np.empty(flat_pred.size, dtype=np.intp)
    slot[edges] = np.arange(edges.size)
    slot[flat_pred < 0] = np.arange(edges.size, flat_pred.size)
    assert len(paths._levels) == len(expected)
    lo = 0
    for (got_lo, got_hi, parent), (child, ref_parent) in zip(paths._levels, expected):
        assert (got_lo, got_hi) == (lo, lo + child.size)
        lo = got_hi
        assert parent.dtype == np.intp and np.array_equal(parent, slot[ref_parent])
    assert np.array_equal(paths._link, flat_pred[edges])
    assert paths._link.dtype == flat_pred.dtype


def scaled_grid(rng, nx, ny):
    _, net = grid_region(nx, ny, seed=0)
    return net, free_flow_times(net) * rng.uniform(1.0, 4.0, len(net.links))


def equal_time_star():
    _, star = eight_zone_star()
    return star, np.full(len(star.links), 10.0)


def at_free_flow(network):
    return network, free_flow_times(network)


def network_with_unreached_node():
    """Two zones on a and b, and a node c that no link enters."""
    rows = [("ab", "a", "b", 5.0), ("ba", "b", "a", 5.0), ("ca", "c", "a", 1.0)]
    return make_network(["a", "b", "c"], rows, {"z1": "a", "z2": "b"})


class TestLevels:
    """PathSet's slot layout against the full pointer jumping and argsort split."""

    @pytest.mark.parametrize("grid", [(10, 8), (20, 20)])
    def test_grid_with_scaled_times(self, rng, grid):
        net, times = scaled_grid(rng, *grid)
        assert_same_levels(net, times, PathSet(net, times))

    def test_star_with_equal_link_times(self):
        star, times = equal_time_star()
        assert_same_levels(star, times, PathSet(star, times))

    def test_chain_deeper_than_255_levels_carries_the_end_to_end_trips(self):
        # 299 levels, so the sort key needs 16 bits
        nodes = [f"v{i:03d}" for i in range(300)]
        rows = [(f"f{i:03d}", u, v, 1.0) for i, (u, v) in enumerate(zip(nodes, nodes[1:]))]
        rows += [(f"b{i:03d}", v, u, 1.0) for i, (u, v) in enumerate(zip(nodes, nodes[1:]))]
        net = make_network(nodes, rows, {"z1": nodes[0], "z2": nodes[-1]})
        paths = PathSet(net, free_flow_times(net))
        assert len(paths._levels) == 299
        assert_same_levels(net, free_flow_times(net), paths)
        flows = paths.flow_vector(od_of(["z1", "z2"], [[0, 5], [7, 0]]))
        assert dict(zip(paths.link_ids, flows.tolist())) == {
            lid: 5.0 if lid[0] == "f" else 7.0 for lid, *_ in rows}

    def test_cycle_below_a_long_chain_raises(self):
        # z -> c000 -> ... -> c099 -> {a, b}, and a <-> b at 1e-20, tight both
        # ways: the chain's pointers reach z, the ring's never reach a root
        chain = [f"c{i:03d}" for i in range(100)]
        rows = [(f"e{i:03d}", u, v, 1.0) for i, (u, v) in enumerate(zip(["z", *chain], chain))]
        rows += [("ta", chain[-1], "a", 1.0), ("tb", chain[-1], "b", 1.0),
                 ("ab", "a", "b", 1e-20), ("ba", "b", "a", 1e-20)]
        net = make_network(["z", *chain, "a", "b"], rows, {"z1": "z", "z2": "a"})
        with pytest.raises(ArithmeticError, match="predecessor cycle"):
            PathSet(net, free_flow_times(net))


LOADER_CASES = {
    "grid10x8": lambda rng: scaled_grid(rng, 10, 8),
    "grid20x20": lambda rng: scaled_grid(rng, 20, 20),
    "star-ties": lambda rng: equal_time_star(),
    "shared-anchor": lambda rng: at_free_flow(with_shared_anchor(grid_region(10, 8, seed=0)[1])),
    "unreached-node": lambda rng: at_free_flow(network_with_unreached_node()),
}


class TestLevelMajorLoader:
    """flow_vector bitwise against the flat-index reference loader, with
    float trips, the diagonal included."""

    @pytest.mark.parametrize("case", LOADER_CASES)
    def test_flows_bitwise_equal_to_the_flat_index_loader(self, rng, case):
        net, times = LOADER_CASES[case](rng)
        paths = PathSet(net, times)
        n = len(paths.zone_ids)
        od = od_of(paths.zone_ids, rng.uniform(0.0, 100.0, (n, n)))
        assert np.array_equal(paths.flow_vector(od), flat_index_flow_vector(net, times, od))


class TestPathSetChecks:
    def test_disconnected_zones_fail_when_the_path_set_is_built(self):
        net = make_network(["a", "b"], [("ab", "a", "b", 5.0)], {"z1": "a", "z2": "b"})
        with pytest.raises(DisconnectedZonesError, match="'z2'.*'z1'"):
            PathSet(net, free_flow_times(net))

    @pytest.mark.parametrize("zone_ids", [["z2", "z1"], ["z1", "z3"]],
                             ids=["reversed", "other-zone"])
    def test_od_outside_the_path_set_zone_order_rejected(self, zone_ids):
        net = make_network(["a", "b"], [("ab", "a", "b", 5.0), ("ba", "b", "a", 5.0)],
                           {"z1": "a", "z2": "b"})
        paths = PathSet(net, free_flow_times(net))
        with pytest.raises(ValueError, match="zones do not match"):
            paths.flow_vector(od_of(zone_ids, [[0, 10], [20, 0]]))

    @pytest.mark.parametrize("shape", [(4,), (4, 1), (2, 3), (3, 3)],
                             ids=["flat", "column", "wide", "too-many-zones"])
    def test_trips_of_another_shape_rejected(self, shape):
        net = make_network(["a", "b"], [("ab", "a", "b", 5.0), ("ba", "b", "a", 5.0)],
                           {"z1": "a", "z2": "b"})
        paths = PathSet(net, free_flow_times(net))
        with pytest.raises(ValueError, match=r"shape .*expected \(2, 2\)"):
            paths.flow_vector(od_of(["z1", "z2"], np.ones(shape)))


def test_import_leaves_scipy_out():
    src = str(Path(flowfit.__file__).resolve().parents[1])
    code = "import sys, flowfit; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


class TestLoad:
    def test_matches_distribute_then_flow_vector_per_stratum(self):
        zones, net = eight_zone_star(jobs_cutoff=5000.0)
        strata = [DemandStratum("home", "population", "population", 0.6, 0.06),
                  DemandStratum("work", "population", "jobs", 0.4, 0.11)]
        paths = PathSet(net, free_flow_times(net))
        zones = ZoneAttributes(zones, paths.zone_ids)
        loaded = load_strata(paths, zones, strata)
        assert len(loaded) == 2
        for s, vec in zip(strata, loaded):
            od = distribute(zones, s, paths.skim)
            assert np.array_equal(vec, paths.flow_vector(od))

    def test_mu_zero_stratum_loads_zeros_without_distributing(self, monkeypatch):
        import flowfit.assignment as assignment
        zones, net = eight_zone_star()
        strata = [DemandStratum("idle", "population", "population", 0.0, 0.1),
                  DemandStratum("busy", "population", "population", 0.7, 0.07)]
        calls = []
        monkeypatch.setattr(assignment, "distribute",
                            lambda z, s, c: calls.append(s.name) or distribute(z, s, c))
        paths = PathSet(net, free_flow_times(net))
        idle, busy = load_strata(paths, ZoneAttributes(zones, paths.zone_ids), strata)
        assert calls == ["busy"]
        assert not idle.any() and busy.sum() > 0

    def test_zones_must_be_zone_attributes_in_the_path_set_order(self):
        zones, net = eight_zone_star()
        strata = [DemandStratum("idle", "population", "population", 0.0, 0.1)]
        paths = PathSet(net, free_flow_times(net))
        with pytest.raises(TypeError, match="expected a ZoneAttributes, got list"):
            load_strata(paths, zones, strata)
        with pytest.raises(ValueError, match="zone order does not match the cost matrix"):
            load_strata(paths, ZoneAttributes(zones, paths.zone_ids[::-1]), strata)

    def test_skim_is_computed_once_and_read_only(self):
        zones, net = eight_zone_star()
        paths = PathSet(net, free_flow_times(net))
        skim = paths.skim
        assert paths.skim is skim
        assert not skim.values.flags.writeable


class TestIterativeAssignment:
    def test_strata_sharing_a_name_rejected(self):
        zones, net = eight_zone_star()
        (s,) = toy_strata(0.7, 0.074)
        with pytest.raises(ValueError, match="strata share a name"):
            assign_iterative(net, zones, [s, s], n_outer=1)

    def test_single_iteration_equals_free_flow_pipeline(self):
        zones, net = eight_zone_star()
        strata = toy_strata(0.7, 0.074)
        result = assign_iterative(net, zones, strata, n_outer=1)
        assert result.iterations == 1
        assert not result.converged
        costs = PathSet(net, free_flow_times(net)).skim
        od = distribute(ZoneAttributes(zones, costs.zone_ids), strata[0], costs)
        expected = assign_all_or_nothing(net, free_flow_times(net), od)
        assert result.flows == pytest.approx(expected, rel=1e-12)

    def test_uncongested_network_is_an_immediate_fixed_point(self):
        zones, net = eight_zone_star()
        flat = Network.from_parts(
            net.nodes.values(),
            [Link(l.link_id, l.from_node, l.to_node, l.t0, l.q_max, 0.0, l.alpha2)
             for l in net.links.values()],
            net.zone_anchors,
        )
        strata = toy_strata(0.7, 0.074)
        one = assign_iterative(flat, zones, strata, n_outer=1)
        ten = assign_iterative(flat, zones, strata, n_outer=10)
        assert ten.converged
        assert ten.iterations == 2
        assert ten.relative_gap == pytest.approx(0.0, abs=1e-15)
        assert ten.flows == pytest.approx(one.flows, rel=1e-12)

    def test_parallel_routes_approach_equal_times(self):
        net, zones, strata = parallel_route_network()
        result = assign_iterative(net, zones, strata, n_outer=20, gap_tol=0.0)
        q1, q2 = result.flows["r1"], result.flows["r2"]
        assert q1 > 0 and q2 > 0
        t1 = volume_delay(net.links["r1"], q1)
        t2 = volume_delay(net.links["r2"], q2)
        assert abs(t1 - t2) / min(t1, t2) < 0.05
        # hand equilibrium from the congestion curves: q1/1000 = q2/2000
        assert q2 / q1 == pytest.approx(2.0, rel=0.15)

    def test_msa_flows_stay_inside_per_iteration_hull(self):
        net, zones, strata = parallel_route_network()
        # recompute the raw all-or-nothing flows of every iteration
        times = free_flow_times(net)
        raw = []
        avg = None
        for k in range(1, 16):
            paths = PathSet(net, times)
            od = distribute(ZoneAttributes(zones, paths.zone_ids), strata[0], paths.skim)
            fresh = paths.flow_vector(od)
            raw.append(fresh)
            avg = fresh if avg is None else avg + (fresh - avg) / k
            times = volume_delay(net.bpr, avg)
        result = assign_iterative(net, zones, strata, n_outer=15, gap_tol=0.0)
        raw = np.array(raw)
        final = np.array([result.flows[lid] for lid in sorted(result.flows)])
        assert np.all(final <= raw.max(axis=0) + 1e-9)
        assert np.all(final >= raw.min(axis=0) - 1e-9)

    def test_total_equals_sum_over_strata(self):
        zones, net = eight_zone_star(jobs_cutoff=5000.0)
        strata = [
            DemandStratum("home", "population", "population", 0.6, 0.06),
            DemandStratum("work", "population", "jobs", 0.4, 0.11),
        ]
        result = assign_iterative(net, zones, strata, n_outer=3)
        by_hand = result.per_stratum["home"] + result.per_stratum["work"]
        assert list(result.per_stratum) == ["home", "work"]
        np.testing.assert_array_equal(result.total, by_hand)

    def test_single_stratum_total_is_that_stratum(self):
        zones, net = eight_zone_star()
        result = assign_iterative(net, zones, toy_strata(0.7, 0.074), n_outer=1)
        assert list(result.per_stratum) == ["everyone"]
        np.testing.assert_array_equal(result.total, result.per_stratum["everyone"])

    def test_msa5_on_grid20_at_weights_whose_sweeps_stall(self):
        # at these weights the sweeps alone ended in FurnessConvergenceError
        # (residual 5.6e-7 after 1000 sweeps); Newton finishes the balance
        zones, net = grid_region(20, 20, seed=0)
        zones = [dataclasses.replace(z, attributes={
            **z.attributes, "jobs": derive_jobs(z.attributes["population"], 20000.0)})
            for z in zones]
        strata = [DemandStratum("home", "population", "population", 0.8, 0.08),
                  DemandStratum("work", "population", "jobs", 0.4, 0.12)]
        result = assign_iterative(net, zones, strata, n_outer=5, gap_tol=0.0)
        assert result.iterations == 5
        assert np.isfinite(list(result.flows.values())).all()

    def test_n_outer_must_be_positive(self):
        zones, net = eight_zone_star()
        with pytest.raises(ValueError, match="n_outer"):
            assign_iterative(net, zones, toy_strata(), n_outer=0)

    @pytest.mark.parametrize("setting, error, message", [
        ({"n_outer": float("nan")}, TypeError, "n_outer: expected int, got nan"),
        ({"gap_tol": float("nan")}, ValueError, "gap_tol must be finite and >= 0, got nan"),
        ({"gap_tol": -1.0}, ValueError, "gap_tol must be finite and >= 0, got -1.0"),
    ])
    def test_setting_outside_its_range_rejected(self, setting, error, message):
        zones, net = eight_zone_star()
        with pytest.raises(error, match=message):
            assign_iterative(net, zones, toy_strata(), **setting)


class TestAssign:
    def test_infinite_n_outer_rejected_on_the_toy_model(self):
        model = load_model(Path(__file__).resolve().parents[1] / "data" / "toy" / "model.yaml")
        with pytest.raises(TypeError, match="n_outer: expected int, got inf"):
            assign(model.network, model.zones, model.strata, n_outer=math.inf)

    def test_no_settings_run_the_assignment_options_defaults(self):
        zones, net = eight_zone_star()
        strata = toy_strata(0.7, 0.074)
        default = assign(net, zones, strata)
        spelled = assign(net, zones, strata, **dataclasses.asdict(AssignmentOptions()))
        np.testing.assert_array_equal(default.total, spelled.total)
        assert default.iterations == spelled.iterations > 1  # iterative, not one-off

    @pytest.mark.parametrize("setting, message", [
        ({"mode": "msa"}, "mode must be one of"),
        ({"n_outer": 0}, "n_outer must be >= 1, got 0"),
        ({"gap_tol": float("inf")}, "gap_tol must be finite and >= 0, got inf"),
    ])
    def test_setting_outside_its_range_rejected(self, setting, message):
        zones, net = eight_zone_star()
        with pytest.raises(ValueError, match=message):
            assign(net, zones, toy_strata(), **setting)
