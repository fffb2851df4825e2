"""Tests for the COO graph structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.coo import EDGE_BYTES, MAX_VERTICES, VERTEX_WORD_BYTES, Graph


class TestConstruction:
    def test_basic_counts(self, tiny_graph):
        assert tiny_graph.num_vertices == 6
        assert tiny_graph.num_edges == 8

    def test_sorted_by_source(self, tiny_graph):
        assert np.all(np.diff(tiny_graph.src) >= 0)

    def test_sorted_by_dst_within_source(self):
        g = Graph(4, [1, 1, 1, 0], [3, 0, 2, 1])
        sel = g.src == 1
        assert np.all(np.diff(g.dst[sel]) >= 0)

    def test_assume_sorted_skips_sort(self):
        # Deliberately unsorted input survives with assume_sorted.
        g = Graph(4, [3, 0], [0, 1], assume_sorted=True)
        assert g.src[0] == 3

    def test_weights_follow_sort(self):
        g = Graph(3, [2, 0, 1], [0, 1, 2], weights=[20, 0, 10])
        np.testing.assert_array_equal(g.weights, [0, 10, 20])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="equal length"):
            Graph(3, [0, 1], [1])

    def test_weight_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="per edge"):
            Graph(3, [0, 1], [1, 2], weights=[1])

    def test_src_out_of_range_raises(self):
        with pytest.raises(ValueError, match="src"):
            Graph(3, [0, 5], [1, 2])

    def test_dst_out_of_range_raises(self):
        with pytest.raises(ValueError, match="dst"):
            Graph(3, [0, 1], [1, -1])

    def test_zero_vertices_raises(self):
        with pytest.raises(ValueError):
            Graph(0, [], [])


def _lexsort_reference(src, dst, weights=None):
    """The (src, dst) order the packed-key sort must reproduce."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    order = np.lexsort((dst, src))
    return (
        src[order],
        dst[order],
        None if weights is None else np.asarray(weights)[order],
    )


@st.composite
def _vertex_counts(draw):
    """V = 1, powers of two +-1 (where the key's bit width steps), or any."""
    k = draw(st.integers(1, 31))
    return draw(
        st.sampled_from([1, 2**k - 1, 2**k, min(2**k + 1, MAX_VERTICES)])
        | st.integers(1, 5000)
    )


@st.composite
def _edge_lists(draw):
    """``(V, src, dst)`` with duplicates likely and empty lists allowed."""
    n = draw(_vertex_counts())
    # A small pool of IDs near both ends of the range makes repeated
    # (src, dst) pairs and the top bit of the dst field both common.
    ids = st.sampled_from(
        sorted(i for i in {0, 1, n // 2, n - 2, n - 1} if 0 <= i < n)
    )
    ids = ids | st.integers(0, n - 1)
    m = draw(st.integers(0, 60))
    src = draw(st.lists(ids, min_size=m, max_size=m))
    dst = draw(st.lists(ids, min_size=m, max_size=m))
    return n, src, dst


class TestPackedKeySort:
    """The packed (src << bits) | dst key sorts exactly like lexsort."""

    @given(_edge_lists())
    @settings(max_examples=300, deadline=None)
    def test_matches_lexsort(self, edges):
        n, src, dst = edges
        g = Graph(n, src, dst)
        ref_src, ref_dst, _ = _lexsort_reference(src, dst)
        assert g.src.dtype == g.dst.dtype == np.int64
        np.testing.assert_array_equal(g.src, ref_src)
        np.testing.assert_array_equal(g.dst, ref_dst)
        assert g.weights is None

    @given(_edge_lists())
    @settings(max_examples=300, deadline=None)
    def test_weighted_duplicates_keep_input_order(self, edges):
        n, src, dst = edges
        # Distinct weights expose any reordering among duplicate edges.
        weights = np.arange(len(src), dtype=np.float32)[::-1]
        g = Graph(n, src, dst, weights=weights)
        ref_src, ref_dst, ref_w = _lexsort_reference(src, dst, weights)
        np.testing.assert_array_equal(g.src, ref_src)
        np.testing.assert_array_equal(g.dst, ref_dst)
        np.testing.assert_array_equal(g.weights, ref_w)

    def test_duplicate_weighted_edges_are_stable(self):
        g = Graph(3, [1, 0, 1, 1], [2, 1, 2, 0], weights=[7, 5, 3, 9])
        np.testing.assert_array_equal(g.src, [0, 1, 1, 1])
        np.testing.assert_array_equal(g.dst, [1, 0, 2, 2])
        np.testing.assert_array_equal(g.weights, [5, 9, 7, 3])

    def test_single_vertex_self_loops(self):
        g = Graph(1, [0, 0], [0, 0])
        np.testing.assert_array_equal(g.src, [0, 0])
        np.testing.assert_array_equal(g.dst, [0, 0])

    def test_empty_edge_list(self):
        g = Graph(5, [], [], weights=[])
        assert g.num_edges == 0
        assert g.src.dtype == g.dst.dtype == np.int64

    def test_largest_vertex_ids_round_trip(self):
        top = MAX_VERTICES - 1
        g = Graph(MAX_VERTICES, [top, 0, top], [0, top, top])
        np.testing.assert_array_equal(g.src, [0, top, top])
        np.testing.assert_array_equal(g.dst, [top, 0, top])

    def test_rejects_more_than_32_bit_vertex_ids(self):
        with pytest.raises(ValueError, match="32-bit vertex IDs"):
            Graph(MAX_VERTICES + 1, [0], [1])

    def test_sort_leaves_caller_arrays_untouched(self):
        src = np.array([2, 0, 1], dtype=np.int64)
        dst = np.array([0, 2, 1], dtype=np.int64)
        Graph(3, src, dst)
        np.testing.assert_array_equal(src, [2, 0, 1])
        np.testing.assert_array_equal(dst, [0, 2, 1])

    def test_relabel_and_reverse_match_lexsort(self, small_rmat):
        rng = np.random.default_rng(3)
        mapping = rng.permutation(small_rmat.num_vertices)
        relabelled = small_rmat.relabel(mapping)
        ref = _lexsort_reference(
            mapping[small_rmat.src], mapping[small_rmat.dst]
        )
        np.testing.assert_array_equal(relabelled.src, ref[0])
        np.testing.assert_array_equal(relabelled.dst, ref[1])
        rev = small_rmat.reversed()
        ref = _lexsort_reference(small_rmat.dst, small_rmat.src)
        np.testing.assert_array_equal(rev.src, ref[0])
        np.testing.assert_array_equal(rev.dst, ref[1])


class TestDegrees:
    def test_in_degrees(self, tiny_graph):
        # dst = 1,3,2,0,4,2,5,0 -> vertex 0 has in-degree 2, vertex 2 has 2
        deg = tiny_graph.in_degrees()
        assert deg[0] == 2
        assert deg[2] == 2
        assert deg.sum() == tiny_graph.num_edges

    def test_out_degrees(self, tiny_graph):
        deg = tiny_graph.out_degrees()
        assert deg[0] == 2
        assert deg[4] == 2
        assert deg.sum() == tiny_graph.num_edges

    def test_average_degree(self, tiny_graph):
        assert tiny_graph.average_degree == pytest.approx(8 / 6)

    def test_degrees_cached(self, tiny_graph):
        assert tiny_graph.in_degrees() is tiny_graph.in_degrees()


class TestFootprint:
    def test_edge_bytes_unweighted(self, tiny_graph):
        assert tiny_graph.edge_bytes == EDGE_BYTES

    def test_edge_bytes_weighted(self):
        g = Graph(2, [0], [1], weights=[5])
        assert g.edge_bytes == EDGE_BYTES + VERTEX_WORD_BYTES

    def test_footprint_accounts_properties(self, tiny_graph):
        expected = 8 * EDGE_BYTES + 2 * 6 * VERTEX_WORD_BYTES
        assert tiny_graph.footprint_bytes == expected


class TestTransformations:
    def test_relabel_identity(self, tiny_graph):
        ident = np.arange(6)
        g2 = tiny_graph.relabel(ident)
        np.testing.assert_array_equal(g2.src, tiny_graph.src)
        np.testing.assert_array_equal(g2.dst, tiny_graph.dst)

    def test_relabel_preserves_structure(self, tiny_graph):
        mapping = np.array([5, 4, 3, 2, 1, 0])
        g2 = tiny_graph.relabel(mapping)
        orig = set(zip(tiny_graph.src.tolist(), tiny_graph.dst.tolist()))
        back = set(
            (5 - s, 5 - d) for s, d in zip(g2.src.tolist(), g2.dst.tolist())
        )
        assert orig == back

    def test_relabel_wrong_size_raises(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.relabel(np.arange(5))

    def test_reversed_swaps_degrees(self, tiny_graph):
        rev = tiny_graph.reversed()
        np.testing.assert_array_equal(
            rev.in_degrees(), tiny_graph.out_degrees()
        )

    def test_reversed_twice_same_edge_set(self, tiny_graph):
        twice = tiny_graph.reversed().reversed()
        orig = sorted(zip(tiny_graph.src.tolist(), tiny_graph.dst.tolist()))
        back = sorted(zip(twice.src.tolist(), twice.dst.tolist()))
        assert orig == back

    def test_with_weights(self, tiny_graph):
        w = np.arange(8)
        g2 = tiny_graph.with_weights(w)
        assert g2.weights is not None
        assert g2.num_edges == tiny_graph.num_edges
