"""Vectorised reference algorithms against their per-vertex originals.

``wcc_reference`` (hooking plus pointer jumping), ``bfs_reference``
(whole-frontier expansion) and ``_component_canonical`` (first-index
ranking) replaced Python loops.  The loops live on here as test
oracles: the new code must return exactly the same int64 arrays, not
merely the same partition or the same reachable set.  scipy's
``csgraph`` is a third, independent opinion.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

from repro.apps.reference import (
    bfs_reference,
    closeness_reference,
    wcc_reference,
)
from repro.check.oracles import _component_canonical
from repro.graph.coo import Graph
from repro.graph.csr import CsrGraph

UNREACHED = 2**31 - 1


# ----------------------------------------------------------------------
# The original loops, kept as oracles
# ----------------------------------------------------------------------
def _union_find_wcc(graph: Graph) -> np.ndarray:
    """Per-edge union-find; labels are each component's min ID."""
    parent = np.arange(graph.num_vertices, dtype=np.int64)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s, d in zip(graph.src, graph.dst):
        rs, rd = find(int(s)), find(int(d))
        if rs != rd:
            parent[max(rs, rd)] = min(rs, rd)
    return np.array(
        [find(i) for i in range(graph.num_vertices)], dtype=np.int64
    )


def _per_vertex_bfs(graph: Graph, root: int) -> np.ndarray:
    """Frontier BFS visiting one frontier vertex at a time."""
    csr = CsrGraph.from_coo(graph)
    levels = np.full(graph.num_vertices, UNREACHED, dtype=np.int64)
    levels[root] = 0
    frontier = np.array([root], dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        nxt = []
        for v in frontier:
            for u in csr.neighbors(int(v)):
                if levels[u] > depth:
                    levels[u] = depth
                    nxt.append(u)
        frontier = np.array(nxt, dtype=np.int64)
    return levels


def _dict_loop_canonical(labels: np.ndarray) -> np.ndarray:
    """Number components by first occurrence with a per-vertex dict."""
    _, canonical = np.unique(labels, return_inverse=True)
    first_seen: dict = {}
    out = np.empty(labels.size, dtype=np.int64)
    next_id = 0
    for i, c in enumerate(canonical):
        if c not in first_seen:
            first_seen[c] = next_id
            next_id += 1
        out[i] = first_seen[c]
    return out


def _closeness_from_levels(levels: np.ndarray) -> float:
    reached = levels < UNREACHED
    num_reached = int(reached.sum())
    if num_reached <= 1:
        return 0.0
    total = float(levels[reached].sum())
    return (num_reached - 1) / total if total else 0.0


# ----------------------------------------------------------------------
# scipy's opinion
# ----------------------------------------------------------------------
def _adjacency(graph: Graph) -> csr_matrix:
    n = graph.num_vertices
    # int32: duplicate edges sum, and an int8 sum could wrap to <= 0.
    ones = np.ones(graph.num_edges, dtype=np.int32)
    return csr_matrix((ones, (graph.src, graph.dst)), shape=(n, n))


def scipy_min_id_components(graph: Graph) -> np.ndarray:
    """Weak components from scipy, each labelled by its min vertex ID."""
    count, comp = connected_components(
        _adjacency(graph), directed=True, connection="weak"
    )
    mins = np.full(count, graph.num_vertices, dtype=np.int64)
    np.minimum.at(mins, comp, np.arange(graph.num_vertices))
    return mins[comp]


def scipy_levels(graph: Graph, root: int) -> np.ndarray:
    """Unweighted shortest-path hop counts; unreachable is 2**31 - 1."""
    dist = shortest_path(
        _adjacency(graph), directed=True, unweighted=True, indices=root
    )
    levels = np.full(graph.num_vertices, UNREACHED, dtype=np.int64)
    reached = np.isfinite(dist)
    levels[reached] = dist[reached].astype(np.int64)
    return levels


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def directed_graphs(draw):
    """Directed graphs with self-loops, duplicate edges, isolated
    vertices, ``V = 1`` and empty edge lists all likely."""
    n = draw(st.sampled_from([1, 2, 3]) | st.integers(1, 120))
    # A small ID pool makes self-loops and repeated edges common; the
    # full range leaves many vertices isolated.
    pool = sorted({0, 1, n // 2, n - 1} & set(range(n)))
    ids = st.sampled_from(pool) | st.integers(0, n - 1)
    m = draw(st.integers(0, 3 * n) | st.just(0))
    src = draw(st.lists(ids, min_size=m, max_size=m))
    dst = draw(st.lists(ids, min_size=m, max_size=m))
    return Graph(n, src, dst, name="prop")


@st.composite
def rooted_graphs(draw):
    """A directed graph and a root: 0, ``V-1``, a vertex without
    out-edges when there is one, or any vertex."""
    graph = draw(directed_graphs())
    n = graph.num_vertices
    sinks = np.flatnonzero(graph.out_degrees() == 0).tolist()
    choices = [0, n - 1] + sinks[:3]
    root = draw(st.sampled_from(choices) | st.integers(0, n - 1))
    return graph, root


# ----------------------------------------------------------------------
# Bit-identity with the loops
# ----------------------------------------------------------------------
class TestWccMatchesUnionFind:
    @given(directed_graphs())
    @settings(max_examples=300, deadline=None)
    def test_labels_identical(self, graph):
        labels = wcc_reference(graph)
        assert labels.dtype == np.int64
        assert np.array_equal(labels, _union_find_wcc(graph))

    @given(directed_graphs())
    @settings(max_examples=100, deadline=None)
    def test_matches_scipy_min_ids(self, graph):
        assert np.array_equal(
            wcc_reference(graph), scipy_min_id_components(graph)
        )

    def test_single_vertex(self):
        assert np.array_equal(wcc_reference(Graph(1, [], [])), [0])
        assert np.array_equal(wcc_reference(Graph(1, [0, 0], [0, 0])), [0])

    def test_no_edges_leaves_every_vertex_alone(self):
        labels = wcc_reference(Graph(5, [], []))
        assert labels.dtype == np.int64
        assert np.array_equal(labels, np.arange(5))

    def test_direction_is_ignored(self):
        # 3 -> 1 <- 4 and 2 -> 0: weak components {1, 3, 4}, {0, 2}.
        g = Graph(6, [3, 4, 2], [1, 1, 0])
        assert np.array_equal(wcc_reference(g), [0, 1, 0, 1, 1, 5])


def _path_orders(n):
    zigzag = np.empty(n, dtype=np.int64)
    zigzag[0::2] = np.arange((n + 1) // 2)
    zigzag[1::2] = np.arange(n - 1, (n + 1) // 2 - 1, -1)
    return {
        "sorted": np.arange(n),
        "reversed": np.arange(n)[::-1],
        "zigzag": zigzag,
        "permuted": np.random.default_rng(17).permutation(n),
    }


class TestWccLongPaths:
    """One 2^17-vertex path under four ID layouts.  Min-label
    propagation alone needs a round per hop on these; hooking plus
    jumping must still land on label 0 everywhere."""

    N = 2**17

    @pytest.mark.parametrize("layout", ["sorted", "reversed", "zigzag",
                                        "permuted"])
    def test_one_component_labelled_zero(self, layout):
        order = _path_orders(self.N)[layout]
        assert np.array_equal(np.sort(order), np.arange(self.N))
        g = Graph(self.N, order[:-1], order[1:])
        labels = wcc_reference(g)
        assert labels.dtype == np.int64
        assert not labels.any()

    def test_two_paths_keep_their_min_ids(self):
        order = _path_orders(self.N)["permuted"]
        half = self.N // 2
        a, b = order[:half], order[half:]
        g = Graph(
            self.N,
            np.concatenate((a[:-1], b[:-1])),
            np.concatenate((a[1:], b[1:])),
        )
        expected = np.empty(self.N, dtype=np.int64)
        expected[a] = a.min()
        expected[b] = b.min()
        assert np.array_equal(wcc_reference(g), expected)


class TestBfsMatchesPerVertexLoop:
    @given(rooted_graphs())
    @settings(max_examples=300, deadline=None)
    def test_levels_identical(self, case):
        graph, root = case
        levels = bfs_reference(graph, root)
        assert levels.dtype == np.int64
        assert np.array_equal(levels, _per_vertex_bfs(graph, root))

    @given(rooted_graphs())
    @settings(max_examples=100, deadline=None)
    def test_matches_scipy_levels(self, case):
        graph, root = case
        assert np.array_equal(
            bfs_reference(graph, root), scipy_levels(graph, root)
        )

    @given(rooted_graphs())
    @settings(max_examples=100, deadline=None)
    def test_closeness_identical(self, case):
        graph, root = case
        assert closeness_reference(graph, root) == _closeness_from_levels(
            _per_vertex_bfs(graph, root)
        )

    def test_root_without_out_edges(self):
        g = Graph(4, [0, 1, 2], [3, 3, 3])
        assert np.array_equal(
            bfs_reference(g, 3), [UNREACHED, UNREACHED, UNREACHED, 0]
        )
        assert closeness_reference(g, 3) == 0.0

    def test_last_vertex_root(self):
        # 4 -> 2 -> 0 -> 1 (self-loop and duplicate on the way), 3 alone.
        g = Graph(5, [4, 4, 2, 2, 0], [2, 4, 0, 0, 1])
        assert np.array_equal(bfs_reference(g, 4), [2, 3, 1, UNREACHED, 0])

    def test_single_vertex(self):
        assert np.array_equal(bfs_reference(Graph(1, [], []), 0), [0])
        assert np.array_equal(bfs_reference(Graph(1, [0], [0]), 0), [0])


class TestComponentCanonical:
    @given(st.lists(st.integers(-3, 40) | st.sampled_from([2**40, -2**40]),
                    max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_matches_dict_loop(self, values):
        labels = np.asarray(values, dtype=np.int64)
        canonical = _component_canonical(labels)
        assert canonical.dtype == np.int64
        assert np.array_equal(canonical, _dict_loop_canonical(labels))

    def test_first_occurrence_order(self):
        labels = np.array([9, 4, 9, 7, 4, 1])
        assert np.array_equal(
            _component_canonical(labels), [0, 1, 0, 2, 1, 3]
        )

    def test_empty(self):
        canonical = _component_canonical(np.zeros(0, dtype=np.int64))
        assert canonical.shape == (0,) and canonical.dtype == np.int64
