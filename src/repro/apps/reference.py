"""Reference algorithm implementations for functional validation.

Plain NumPy/CSR algorithms, written independently of the GAS machinery, so
tests can check that the simulated accelerator computes the same answers
(up to fixed-point resolution for PageRank).
"""

from __future__ import annotations

import numpy as np

from repro.graph.coo import Graph
from repro.graph.csr import CsrGraph


def pagerank_reference(
    graph: Graph,
    damping: float = 0.85,
    iterations: int = 20,
    tolerance: float = 0.0,
) -> np.ndarray:
    """Power-iteration PageRank in float64 (dangling mass dropped,
    matching the accelerator's pre-divide-by-out-degree kernel)."""
    n = graph.num_vertices
    out_deg = np.maximum(graph.out_degrees(), 1)
    rank = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    for _ in range(iterations):
        contrib = rank / out_deg
        acc = np.zeros(n)
        np.add.at(acc, graph.dst, contrib[graph.src])
        new_rank = base + damping * acc
        if tolerance and np.max(np.abs(new_rank - rank)) <= tolerance:
            rank = new_rank
            break
        rank = new_rank
    return rank


def bfs_reference(graph: Graph, root: int = 0) -> np.ndarray:
    """Frontier BFS over out-CSR; unvisited vertices get 2**31 - 1.

    Each level expands the whole frontier at once: gather every
    neighbour of every frontier vertex, keep those not yet reached, and
    the unique survivors are the next frontier.
    """
    csr = CsrGraph.from_coo(graph)
    indptr, indices = csr.indptr, csr.indices
    levels = np.full(graph.num_vertices, 2**31 - 1, dtype=np.int64)
    levels[root] = 0
    frontier = np.array([root], dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        # Flat edge offsets of all frontier rows: each row's start,
        # repeated per neighbour, plus the neighbour's rank in the row.
        firsts = np.cumsum(counts) - counts
        offsets = np.repeat(starts - firsts, counts) + np.arange(
            counts.sum()
        )
        neighbours = indices[offsets]
        frontier = np.unique(neighbours[levels[neighbours] > depth])
        levels[frontier] = depth
    return levels


def closeness_reference(graph: Graph, root: int = 0) -> float:
    """Closeness centrality of ``root`` from reference BFS levels."""
    levels = bfs_reference(graph, root)
    reached = levels < 2**31 - 1
    num_reached = int(reached.sum())
    if num_reached <= 1:
        return 0.0
    total = float(levels[reached].sum())
    return (num_reached - 1) / total if total else 0.0


def wcc_reference(graph: Graph) -> np.ndarray:
    """Weak components by min-label hooking plus pointer jumping; labels
    are each component's min ID.

    Every label names a vertex of the same component and never exceeds
    its own vertex, and after jumping every label is a root
    (``labels[r] == r``).  Each round hooks the larger root of every
    edge whose endpoints still disagree onto the smaller one, then
    jumps to the fixpoint.  A component's min vertex can only label
    itself, so it is the component's one root once no edge disagrees.
    """
    labels = np.arange(graph.num_vertices, dtype=np.int64)
    src, dst = graph.src, graph.dst
    while True:
        ls, ld = labels[src], labels[dst]
        # Endpoints on one root stay on one root: drop those edges.
        active = ls != ld
        if not active.any():
            return labels
        src, dst = src[active], dst[active]
        ls, ld = ls[active], ld[active]
        np.minimum.at(labels, np.maximum(ls, ld), np.minimum(ls, ld))
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


def sssp_reference(graph: Graph, root: int = 0) -> np.ndarray:
    """Bellman-Ford over the edge list; unreachable gets 2**40."""
    if graph.weights is None:
        raise ValueError("sssp_reference needs a weighted graph")
    inf = np.int64(2**40)
    dist = np.full(graph.num_vertices, inf, dtype=np.int64)
    dist[root] = 0
    weights = np.asarray(graph.weights, dtype=np.int64)
    for _ in range(graph.num_vertices):
        proposal = np.where(
            dist[graph.src] < inf, dist[graph.src] + weights, inf
        )
        new_dist = dist.copy()
        np.minimum.at(new_dist, graph.dst, proposal)
        if np.array_equal(new_dist, dist):
            break
        dist = new_dist
    return dist
