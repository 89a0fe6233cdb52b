import numpy as np
import pytest

from flowfit.network import Link, Network, Node


def make_network(node_ids, link_rows, anchors):
    """Compact builder: link_rows are (link_id, u, v, t0[, q_max])."""
    nodes = [Node(nid) for nid in node_ids]
    links = [
        Link(row[0], row[1], row[2], row[3], row[4] if len(row) > 4 else 10000.0)
        for row in link_rows
    ]
    return Network.from_parts(nodes, links, anchors)


def random_strongly_connected(rng, max_nodes=8, extra_edge_prob=0.45):
    """Random digraph: a directed cycle over all nodes plus random extra links.

    Continuous random travel times make equal-cost path ties vanishingly
    unlikely, so brute-force comparisons can demand exact equality.
    """
    n = int(rng.integers(2, max_nodes + 1))
    node_ids = [f"n{i}" for i in range(n)]
    order = rng.permutation(n)
    rows = []
    k = 0
    for i in range(n):
        u, v = node_ids[order[i]], node_ids[order[(i + 1) % n]]
        rows.append((f"e{k}", u, v, float(rng.uniform(1.0, 20.0))))
        k += 1
    for u in node_ids:
        for v in node_ids:
            if u != v and rng.random() < extra_edge_prob:
                rows.append((f"e{k}", u, v, float(rng.uniform(1.0, 20.0))))
                k += 1
    n_zones = int(rng.integers(2, n + 1))
    anchor_nodes = rng.choice(n, size=n_zones, replace=False)
    anchors = {f"z{i}": node_ids[anchor_nodes[i]] for i in range(n_zones)}
    return make_network(node_ids, rows, anchors)


def random_tied_network(rng, max_nodes=6, extra_edge_prob=0.4, parallel_prob=0.3):
    """Random strongly connected digraph with integer times 1-3 and parallel links.

    Integer times make equal-cost paths common and their sums exact, so the
    tie rule decides which path carries the flow.
    """
    n = int(rng.integers(2, max_nodes + 1))
    node_ids = [f"n{i}" for i in range(n)]
    order = rng.permutation(n)
    pairs = [(node_ids[order[i]], node_ids[order[(i + 1) % n]]) for i in range(n)]
    pairs += [(u, v) for u in node_ids for v in node_ids
              if u != v and rng.random() < extra_edge_prob]
    rows = []
    for u, v in pairs:
        while True:
            rows.append((f"e{len(rows)}", u, v, float(rng.integers(1, 4))))
            if rng.random() >= parallel_prob:
                break
    n_zones = int(rng.integers(2, n + 1))
    anchor_nodes = rng.choice(n, size=n_zones, replace=False)
    anchors = {f"z{i}": node_ids[anchor_nodes[i]] for i in range(n_zones)}
    return make_network(node_ids, rows, anchors)


def adjacency(network):
    """node -> [(neighbor, link_id)], sorted, from the network's links."""
    adj = {nid: [] for nid in network.nodes}
    for link in network.links.values():
        adj[link.from_node].append((link.to_node, link.link_id))
    for out in adj.values():
        out.sort()
    return adj


def all_simple_link_paths(network, src, dst):
    """Every simple directed path src -> dst as (total_time, [link_ids])."""
    out = []
    times = {lid: link.t0 for lid, link in network.links.items()}
    adj = adjacency(network)

    def walk(u, visited, path, total):
        if u == dst:
            out.append((total, list(path)))
            return
        for v, lid in adj[u]:
            if v in visited:
                continue
            visited.add(v)
            path.append(lid)
            walk(v, visited, path, total + times[lid])
            path.pop()
            visited.remove(v)

    walk(src, {src}, [], 0.0)
    return out


def brute_force_shortest(network, src, dst):
    """(time, [link_ids]) of the cheapest simple path, by full enumeration."""
    paths = all_simple_link_paths(network, src, dst)
    if not paths:
        return None
    return min(paths, key=lambda p: p[0])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
