"""Built-in synthetic model instances for demos, experiments, and tests."""

from __future__ import annotations

import math

import numpy as np

from .assignment import assign_iterative
from .demand import DemandStratum, Zone, derive_jobs
from .metrics import DAILY_TO_HOURLY, TrafficCount
from .network import DEFAULT_ALPHA1, DEFAULT_ALPHA2, Link, Network, Node

# Documented ground-truth weights used to generate the bundled toy counts.
TOY_TRUE_MU = 0.70
TOY_TRUE_BETA = 0.074
# Deliberately-off starting point for calibration demos.
TOY_INITIAL_MU = 1.5
TOY_INITIAL_BETA = 0.1

_SATELLITE_POPS = [40000, 35000, 30000, 28000, 25000, 22000, 20000]
_SPOKE_T0 = [10.0, 12.0, 11.0, 13.0, 9.0, 14.0, 10.5]
_RING_T0 = [8.0, 7.5, 8.5, 9.0, 7.0, 8.2, 7.8]


def eight_zone_star(*, jobs_cutoff: float | None = None):
    """One 100k-population town ringed by seven 20k-40k satellites.

    Each zone anchors at its own node; spoke roads join the satellites to
    the center, ring roads join neighbouring satellites. Free-flow times
    are irregular so that short trips prefer the ring and long trips the
    spokes. With jobs_cutoff set, every zone also carries a derived "jobs"
    attribute.

    Returns (zones, network).
    """
    radius = 12.0
    zones = []
    nodes = [Node("n1", 0.0, 0.0)]
    attrs = {"population": 100000.0}
    if jobs_cutoff is not None:
        attrs["jobs"] = derive_jobs(100000.0, jobs_cutoff)
    zones.append(Zone("Z1", "Center", 0.0, 0.0, attrs))
    for k, pop in enumerate(_SATELLITE_POPS, start=2):
        angle = 2.0 * math.pi * (k - 2) / 7.0
        x = radius * math.cos(angle)
        y = radius * math.sin(angle)
        nodes.append(Node(f"n{k}", x, y))
        attrs = {"population": float(pop)}
        if jobs_cutoff is not None:
            attrs["jobs"] = derive_jobs(float(pop), jobs_cutoff)
        zones.append(Zone(f"Z{k}", f"Satellite {k - 1}", x, y, attrs))

    links = []

    def road(u: str, v: str, t0: float, q_max: float, length: float):
        links.append(Link(f"{u}_{v}", u, v, t0, q_max, DEFAULT_ALPHA1,
                          DEFAULT_ALPHA2, length))
        links.append(Link(f"{v}_{u}", v, u, t0, q_max, DEFAULT_ALPHA1,
                          DEFAULT_ALPHA2, length))

    for k in range(2, 9):
        road("n1", f"n{k}", _SPOKE_T0[k - 2], 30000.0, radius)
    ring_len = 2.0 * radius * math.sin(math.pi / 7.0)
    for k in range(2, 9):
        nxt = 2 if k == 8 else k + 1
        road(f"n{k}", f"n{nxt}", _RING_T0[k - 2], 15000.0, ring_len)

    anchors = {z.zone_id: f"n{i + 1}" for i, z in enumerate(zones)}
    return zones, Network.from_parts(nodes, links, anchors)


def toy_strata(mu: float = TOY_INITIAL_MU, beta: float = TOY_INITIAL_BETA):
    """Single population-to-population stratum at the given weights."""
    return [DemandStratum("everyone", "population", "population", mu, beta)]


def grid_region(nx: int = 10, ny: int = 8, seed: int = 0):
    """Synthetic regional instance: nx*ny zones on a road grid.

    Zone populations are drawn log-uniformly between 2k and 60k; road times
    jitter around 5 minutes per 5 km edge. Returns (zones, network).
    """
    rng = np.random.default_rng(seed)
    spacing = 5.0
    zones = []
    nodes = []
    for r in range(ny):
        for c in range(nx):
            zid = f"z{r}_{c}"
            nid = f"g{r}_{c}"
            pop = float(np.exp(rng.uniform(np.log(2000.0), np.log(60000.0))))
            nodes.append(Node(nid, c * spacing, r * spacing))
            zones.append(Zone(zid, zid, c * spacing, r * spacing,
                              {"population": round(pop, 1)}))

    links = []

    def road(u: str, v: str):
        t0 = float(rng.uniform(4.0, 7.0))
        q_max = float(rng.choice([8000.0, 12000.0, 20000.0]))
        links.append(Link(f"{u}_{v}", u, v, t0, q_max))
        links.append(Link(f"{v}_{u}", v, u, t0, q_max))

    for r in range(ny):
        for c in range(nx):
            if c + 1 < nx:
                road(f"g{r}_{c}", f"g{r}_{c + 1}")
            if r + 1 < ny:
                road(f"g{r}_{c}", f"g{r + 1}_{c}")

    anchors = {f"z{r}_{c}": f"g{r}_{c}" for r in range(ny) for c in range(nx)}
    return zones, Network.from_parts(nodes, links, anchors)


def synthetic_counts(
    zones,
    network: Network,
    strata,
    *,
    n_counts: int | None = None,
    noise: float = 0.0,
    noise_kind: str = "flow",
    seed: int = 0,
    n_outer: int = 1,
) -> list[TrafficCount]:
    """Traffic counts generated by the model itself at the given strata weights.

    noise_kind "flow" perturbs each count multiplicatively by N(1, noise);
    "geh" flips each count up or down by the amount that lands its GEH error
    near the value of `noise`, which makes every count equally informative.
    Only links carrying positive flow are counted; with n_counts set, that
    many links are sampled at random.
    """
    flows = assign_iterative(network, zones, strata, n_outer).flows
    link_ids = [lid for lid in sorted(flows) if flows[lid] > 0]
    rng = np.random.default_rng(seed)
    if n_counts is not None:
        if n_counts > len(link_ids):
            raise ValueError(f"only {len(link_ids)} positive-flow links available")
        idx = rng.choice(len(link_ids), size=n_counts, replace=False)
        link_ids = [link_ids[i] for i in sorted(idx)]
    counts = []
    for lid in link_ids:
        q = flows[lid]
        if noise == 0.0:
            observed = q
        elif noise_kind == "flow":
            observed = q * max(0.0, 1.0 + noise * rng.standard_normal())
        elif noise_kind == "geh":
            hourly = q / DAILY_TO_HOURLY
            rel = noise / math.sqrt(max(hourly, 1e-9))
            sign = 1.0 if rng.random() < 0.5 else -1.0
            observed = q * max(0.0, 1.0 + sign * rel)
        else:
            raise ValueError(f"unknown noise kind {noise_kind!r}")
        counts.append(TrafficCount(lid, float(observed)))
    return counts
