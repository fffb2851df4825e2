"""Tests for the Eq. 1-4 analytic performance model."""

import numpy as np
import pytest

from repro.arch.big_pipeline import BigPipelineSim
from repro.arch.little_pipeline import LittlePipelineSim
from repro.graph.coo import EDGE_BYTES, VERTEX_WORD_BYTES
from repro.hbm.channel import BLOCK_BYTES


class TestEdgeCosts:
    def test_floor_is_max_of_acse_and_proc(self, perf_model):
        # With 8 PEs at II 1, both C_acs_e and C_proc are 1/8.
        src = np.zeros(16, dtype=np.int64)
        costs = perf_model.edge_costs_little(src)
        assert np.all(costs == pytest.approx(EDGE_BYTES / BLOCK_BYTES))

    def test_little_cost_counts_gap_blocks(self, perf_model):
        src = np.array([0, 16 * 10], dtype=np.int64)  # gap of 10 blocks
        costs = perf_model.edge_costs_little(src)
        assert costs[1] == pytest.approx(10 * 16 * 4 / BLOCK_BYTES)

    def test_big_cost_zero_gap_uses_floor(self, perf_model):
        src = np.array([5, 5, 5], dtype=np.int64)
        costs = perf_model.edge_costs_big(src)
        assert costs[1] == costs[2] == pytest.approx(1 / 8)

    def test_big_new_block_pays_latency_fit(self, perf_model):
        src = np.array([0, 16], dtype=np.int64)  # next block
        costs = perf_model.edge_costs_big(src)
        assert costs[1] >= perf_model.big_fit.lower_bound

    def test_big_cost_bounded_above(self, perf_model):
        src = np.array([0, 10**6], dtype=np.int64)
        costs = perf_model.edge_costs_big(src)
        assert costs[1] <= perf_model.big_fit.upper_bound + 1e-9

    def test_empty(self, perf_model):
        assert perf_model.edge_costs_big(np.zeros(0)).size == 0
        assert perf_model.edge_costs_little(np.zeros(0)).size == 0


class TestPartitionEstimates:
    def test_kind_validation(self, perf_model, rmat_partitions):
        with pytest.raises(ValueError):
            perf_model.estimate_partition(rmat_partitions.nonempty()[0], "huge")

    def test_dense_head_ends_up_little(self, perf_model, rmat_partitions):
        # The head partition must land in the dense (Little) set — via
        # the per-partition comparison or the group-refinement pass.
        from repro.sched.inter import classify_partitions

        parts = rmat_partitions.nonempty()
        dense, _sparse, _tl, _tb = classify_partitions(parts, perf_model)
        assert 0 in dense

    def test_sparse_classified_big(self, perf_model, rmat_partitions):
        sparse = rmat_partitions.nonempty()[-1]
        tl = perf_model.estimate_partition(sparse, "little")
        tb = perf_model.estimate_partition(sparse, "big")
        assert tb < tl

    def test_big_constant_amortised(self, perf_model, rmat_partitions, config):
        sparse = rmat_partitions.nonempty()[-1]
        single = perf_model.estimate_big_group([sparse.src])
        per_partition = perf_model.estimate_partition(sparse, "big")
        # The per-partition estimate carries const/N_gpe, the execution
        # estimate carries the full constant.
        assert per_partition < single

    def test_group_gather_bound(self, perf_model, rmat_partitions):
        dense = rmat_partitions.nonempty()[0]
        est = perf_model.estimate_big_group([dense.src])
        assert est >= dense.num_edges  # one PE, II=1

    def test_empty_group_raises(self, perf_model):
        with pytest.raises(ValueError):
            perf_model.estimate_big_group([])


class TestModelVsSimulator:
    """Fig. 9's accuracy claim: ~4% (Big) and ~6% (Little) average error."""

    def _groups(self, rmat_partitions, config):
        parts = rmat_partitions.nonempty()
        n = config.n_gpe
        return [parts[i : i + n] for i in range(0, len(parts) - n + 1, n)]

    def test_little_error_band(self, perf_model, rmat_partitions, config, channel):
        sim = LittlePipelineSim(config, channel)
        errors = []
        for p in rmat_partitions.nonempty():
            measured = sim.execute(p).total_cycles
            estimated = perf_model.estimate_little_execution(p.src)
            errors.append(abs(estimated - measured) / measured)
        assert np.mean(errors) < 0.12

    def test_big_error_band(self, perf_model, rmat_partitions, config, channel):
        sim = BigPipelineSim(config, channel)
        errors = []
        for group in self._groups(rmat_partitions, config):
            measured = sim.execute(group).total_cycles
            estimated = perf_model.estimate_big_group([p.src for p in group])
            errors.append(abs(estimated - measured) / measured)
        assert np.mean(errors) < 0.12


class TestWindows:
    def test_window_weights_cover_all_edges(self, perf_model, rmat_partitions):
        p = rmat_partitions.nonempty()[0]
        weights = perf_model.window_weights(p.src, "little", 256)
        total = perf_model.edge_costs_little(p.src).sum()
        assert weights.sum() == pytest.approx(total)

    def test_window_count(self, perf_model, rmat_partitions):
        p = rmat_partitions.nonempty()[0]
        weights = perf_model.window_weights(p.src, "big", 100)
        assert weights.size == -(-p.num_edges // 100)

    def test_cut_points_monotonic(self, perf_model, rmat_partitions):
        p = rmat_partitions.nonempty()[0]
        cuts = perf_model.cut_points(p.src, "little", 4, window_edges=128)
        assert np.all(np.diff(cuts) >= 0)
        assert cuts[0] == 0 and cuts[-1] == p.num_edges

    def test_cut_points_balanced(self, perf_model, rmat_partitions):
        p = rmat_partitions.nonempty()[0]
        cuts = perf_model.cut_points(p.src, "little", 4, window_edges=64)
        costs = perf_model.edge_costs_little(p.src)
        chunk_sums = [
            costs[cuts[i]:cuts[i + 1]].sum() for i in range(4)
        ]
        assert max(chunk_sums) / max(min(chunk_sums), 1e-9) < 1.6


def _dense_edge_costs_big(model, src, edge_bytes=EDGE_BYTES):
    """Big costs as first written: the Eq. 4 latency on every edge, kept
    only where the source block changes."""
    src = np.asarray(src, dtype=np.int64)
    if src.size == 0:
        return np.zeros(0)
    blocks = src // model.config.vertices_per_block
    new_block = np.empty(src.size, dtype=bool)
    new_block[0] = True
    new_block[1:] = blocks[1:] != blocks[:-1]
    dist = np.zeros(src.size, dtype=np.float64)
    dist[1:] = (src[1:] - src[:-1]) * VERTEX_WORD_BYTES
    acs_v = np.where(new_block, model.big_fit.latency(dist), 0.0)
    floor = max(edge_bytes / BLOCK_BYTES, model.config.proc_cycles_per_edge)
    return np.maximum(acs_v, floor)


def _dense_edge_costs_little(model, src, edge_bytes=EDGE_BYTES):
    """Little costs as first written, one temporary per step."""
    src = np.asarray(src, dtype=np.int64)
    if src.size == 0:
        return np.zeros(0)
    dist = np.zeros(src.size, dtype=np.float64)
    dist[1:] = (src[1:] - src[:-1]) * VERTEX_WORD_BYTES
    acs_v = dist / BLOCK_BYTES
    floor = max(edge_bytes / BLOCK_BYTES, model.config.proc_cycles_per_edge)
    return np.maximum(acs_v, floor)


def _cost_inputs():
    rng = np.random.default_rng(11)
    return {
        "sorted": np.sort(rng.integers(0, 50_000, 4000)),
        "unsorted": rng.integers(0, 50_000, 4000),
        "single_edge": np.array([12345]),
        "one_block": np.array([3, 0, 7, 7, 1, 15, 2]),
        "huge_gaps": np.array([0, 10**6, 10**6 + 1, 2 * 10**9, 5]),
    }


class TestEdgeCostsBitExact:
    """The sparse/in-place cost code equals the dense formulas bit for bit."""

    @pytest.mark.parametrize("edge_bytes", [EDGE_BYTES, 12])
    @pytest.mark.parametrize("case", sorted(_cost_inputs()))
    def test_big_matches_dense_formula(self, perf_model, case, edge_bytes):
        src = _cost_inputs()[case]
        got = perf_model.edge_costs_big(src, edge_bytes=edge_bytes)
        want = _dense_edge_costs_big(perf_model, src, edge_bytes)
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got, want)
        assert got.sum() == want.sum()

    @pytest.mark.parametrize("edge_bytes", [EDGE_BYTES, 12])
    @pytest.mark.parametrize("case", sorted(_cost_inputs()))
    def test_little_matches_dense_formula(self, perf_model, case, edge_bytes):
        src = _cost_inputs()[case]
        got = perf_model.edge_costs_little(src, edge_bytes=edge_bytes)
        want = _dense_edge_costs_little(perf_model, src, edge_bytes)
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got, want)
        assert got.sum() == want.sum()

    def test_one_block_input_pays_latency_once(self, perf_model):
        src = _cost_inputs()["one_block"]
        costs = perf_model.edge_costs_big(src)
        assert costs[0] == max(
            float(perf_model.big_fit.latency(0.0)), costs[1]
        )
        assert np.all(costs[1:] == costs[1])

    def test_partitions_match_dense_formula(self, perf_model, rmat_partitions):
        for p in rmat_partitions.nonempty():
            assert np.array_equal(
                perf_model.edge_costs_big(p.src),
                _dense_edge_costs_big(perf_model, p.src),
            )
            assert np.array_equal(
                perf_model.edge_costs_little(p.src),
                _dense_edge_costs_little(perf_model, p.src),
            )

    @pytest.mark.parametrize(
        "lo,hi", [(0, 4000), (0, 1), (1, 2), (17, 1500), (3999, 4000), (9, 9)]
    )
    def test_slice_costs_equal_costs_of_the_slice(self, perf_model, lo, hi):
        src = _cost_inputs()["sorted"]
        costs = perf_model.edge_costs_little(src)
        got = perf_model.slice_costs_little(costs, lo, hi)
        want = perf_model.edge_costs_little(src[lo:hi])
        assert np.array_equal(got, want)
        assert perf_model.little_cycles(got) == (
            perf_model.estimate_little_execution(src[lo:hi])
        )

    def test_window_sums_equal_window_weights(self, perf_model):
        src = _cost_inputs()["sorted"]
        costs = perf_model.edge_costs_little(src)
        assert np.array_equal(
            perf_model.window_sums(costs, 100),
            perf_model.window_weights(src, "little", 100),
        )
