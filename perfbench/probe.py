"""A fixed reference kernel that measures how fast the machine runs right now.

The machine the benchmark was made on switches between speed levels 1.4-1.7x
apart, for seconds and sometimes minutes at a time, on every vCPU alike.
The worker runs this kernel between every timed block and scales the block's
wall time by PROBE_REF_S / (mean of the probes on either side), which gives
the block's time at the reference speed. The kernel uses numpy and plain
Python in the proportions flowfit does (Furness-style scaling, heap-based
shortest paths) and never calls flowfit, so a change to flowfit cannot move
it.

    python3 perfbench/probe.py     # prints the median of 200 probes
"""

from __future__ import annotations

import heapq
import statistics
import time

import numpy as np

# Median probe time on the reference machine (2 vCPU Intel Xeon, Python
# 3.11.7, numpy 2.4.6), from `python3 perfbench/probe.py`.
PROBE_REF_S = 0.033

_MATRIX = np.random.default_rng(0).random((400, 400)) + 0.1
_SIDE = 30
_GRAPH = {
    (r, c): [((r + dr, c + dc), 1.0 + (7 * r + 13 * c + 3 * dr + dc) % 5)
             for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0))
             if 0 <= r + dr < _SIDE and 0 <= c + dc < _SIDE]
    for r in range(_SIDE) for c in range(_SIDE)
}


def _scaling(iterations: int) -> None:
    t = _MATRIX.copy()
    for _ in range(iterations):
        t *= (1.0 / t.sum(axis=1))[:, None]
        t *= (1.0 / t.sum(axis=0))[None, :]


def _dijkstra(source) -> None:
    dist = {source: 0.0}
    heap = [(0.0, source)]
    settled = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        for v, w in _GRAPH[u]:
            if d + w < dist.get(v, float("inf")):
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))


def probe() -> float:
    """Seconds taken by the fixed kernel."""
    t0 = time.perf_counter()
    _scaling(60)
    for source in ((0, 0), (15, 15), (29, 0), (0, 29)):
        _dijkstra(source)
    return time.perf_counter() - t0


if __name__ == "__main__":
    samples = []
    for _ in range(200):
        samples.append(probe())
        time.sleep(0.2)
    print(f"median {statistics.median(samples):.5f} s over {len(samples)} probes")
