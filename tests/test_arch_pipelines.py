"""Tests for the Big and Little pipeline simulators (Fig. 3 / Fig. 9)."""

import numpy as np
import pytest

from repro.apps.pagerank import PageRank
from repro.arch.big_pipeline import BigPipelineSim
from repro.arch.config import PipelineConfig
from repro.arch.little_pipeline import LittlePipelineSim
from repro.arch.timing import combine_timings
from repro.graph.partition import Partition, partition_graph


@pytest.fixture()
def big(config, channel):
    return BigPipelineSim(config, channel)


@pytest.fixture()
def little(config, channel):
    return LittlePipelineSim(config, channel)


def _dense_and_sparse(rmat_partitions):
    parts = rmat_partitions.nonempty()
    return parts[0], parts[-1]


class TestTimingStructure:
    def test_store_and_switch_charged(self, big, little, rmat_partitions, config):
        dense, _ = _dense_and_sparse(rmat_partitions)
        tb = big.execute([dense])
        tl = little.execute(dense)
        assert tb.store_cycles == config.store_cycles
        assert tb.switch_cycles == config.switch_cycles
        assert tl.switch_cycles == config.switch_cycles

    def test_total_is_sum_of_parts(self, little, rmat_partitions):
        dense, _ = _dense_and_sparse(rmat_partitions)
        t = little.execute(dense)
        assert t.total_cycles == (
            t.compute_cycles + t.store_cycles + t.switch_cycles
        )

    def test_empty_partition_costs_only_overheads(self, big, little):
        empty = Partition(0, 0, 512, np.zeros(0, dtype=np.int64),
                          np.zeros(0, dtype=np.int64))
        tb = big.execute([empty])
        tl = little.execute(empty)
        assert tb.compute_cycles == 0.0
        assert tl.compute_cycles == 0.0
        assert tb.total_cycles > 0 and tl.total_cycles > 0

    def test_combine_timings(self, little, rmat_partitions):
        dense, sparse = _dense_and_sparse(rmat_partitions)
        t1 = little.execute(dense)
        t2 = little.execute(sparse)
        combined = combine_timings([t1, t2])
        assert combined.num_edges == t1.num_edges + t2.num_edges
        assert combined.total_cycles == pytest.approx(
            t1.total_cycles + t2.total_cycles
        )

    def test_cycles_per_edge(self, little, rmat_partitions):
        dense, _ = _dense_and_sparse(rmat_partitions)
        t = little.execute(dense)
        assert t.cycles_per_edge > 0


class TestFig9Crossover:
    """The paper's central micro-claim: Little wins dense, Big wins sparse."""

    def test_little_faster_on_dense_group(self, big, little, rmat_partitions, config):
        parts = rmat_partitions.nonempty()[: config.n_gpe]
        tb = big.execute(parts)
        tl_total = sum(little.execute(p).total_cycles for p in parts)
        assert tl_total < tb.total_cycles

    def test_big_faster_on_sparse_group(self, big, little, rmat_partitions, config):
        parts = rmat_partitions.nonempty()[-config.n_gpe :]
        tb = big.execute(parts)
        tl_total = sum(little.execute(p).total_cycles for p in parts)
        assert tb.total_cycles < tl_total

    def test_big_amortises_switch_overhead(self, big, rmat_partitions, config):
        parts = rmat_partitions.nonempty()[-config.n_gpe :]
        grouped = big.execute(parts)
        separate = sum(big.execute([p]).total_cycles for p in parts)
        assert grouped.total_cycles < separate


class TestBigPipeline:
    def test_group_size_cap(self, big, rmat_partitions, config):
        parts = rmat_partitions.nonempty()
        too_many = parts[: config.n_gpe + 1]
        if len(too_many) > config.n_gpe:
            with pytest.raises(ValueError):
                big.execute(too_many)

    def test_data_routing_disabled_rejects_groups(self, config, channel, rmat_partitions):
        cfg = PipelineConfig(
            gather_buffer_vertices=config.gather_buffer_vertices,
            data_routing=False,
        )
        sim = BigPipelineSim(cfg, channel)
        parts = rmat_partitions.nonempty()[:2]
        with pytest.raises(ValueError, match="routing"):
            sim.execute(parts)

    def test_empty_group_rejected(self, big):
        with pytest.raises(ValueError):
            big.execute([])

    def test_functional_needs_props(self, big, rmat_partitions, dbg_rmat):
        app = PageRank(dbg_rmat.graph)
        with pytest.raises(TypeError, match="src_props"):
            big.functional([rmat_partitions.nonempty()[0]], app)

    def test_functional_outputs_match_direct_gather(
        self, big, rmat_partitions, dbg_rmat, config
    ):
        app = PageRank(dbg_rmat.graph)
        props = app.init_props()
        parts = rmat_partitions.nonempty()[-config.n_gpe :]
        outputs = big.functional(parts, app, props)
        for partition, (lo, hi, buf) in zip(parts, outputs):
            expected = np.zeros(hi - lo, dtype=np.int64)
            np.add.at(expected, partition.dst - lo, props[partition.src])
            np.testing.assert_array_equal(buf, expected)

    def test_loader_stats_accessible(self, big, rmat_partitions):
        stats = big.loader_stats(rmat_partitions.nonempty()[:2])
        assert stats.requests_issued > 0


class TestLittlePipeline:
    def test_functional_output_matches_direct_gather(
        self, little, rmat_partitions, dbg_rmat
    ):
        app = PageRank(dbg_rmat.graph)
        props = app.init_props()
        partition = rmat_partitions.nonempty()[0]
        lo, hi, buf = little.functional(partition, app, props)
        expected = np.zeros(hi - lo, dtype=np.int64)
        np.add.at(expected, partition.dst - lo, props[partition.src])
        np.testing.assert_array_equal(buf, expected)

    def test_slice_timings_additive_within_bound(self, little, rmat_partitions):
        # Splitting a partition must not make the total compute cheaper
        # than the whole (fixed costs are per execution).
        p = rmat_partitions.nonempty()[0]
        whole = little.execute(p)
        mid = p.num_edges // 2
        a = little.execute(p.slice(0, mid))
        b = little.execute(p.slice(mid, p.num_edges))
        assert a.compute_cycles + b.compute_cycles >= 0.8 * whole.compute_cycles

    def test_pingpong_stats_accessible(self, little, rmat_partitions):
        stats = little.pingpong_stats(rmat_partitions.nonempty()[0])
        assert stats.blocks_fetched > 0


class TestGatherServiceVectorization:
    """The vectorized Gather service model must match the original
    per-lane loop (kept as ``_gather_service_reference``) exactly."""

    def test_matches_reference_on_real_partitions(self, big, rmat_partitions, config):
        parts = rmat_partitions.nonempty()[: config.n_gpe]
        lanes = np.concatenate([
            np.full(p.num_edges, i, dtype=np.int64)
            for i, p in enumerate(parts)
        ])
        np.testing.assert_array_equal(
            big._gather_service(lanes, len(parts)),
            big._gather_service_reference(lanes, len(parts)),
        )

    @pytest.mark.parametrize("num_edges,num_lanes,seed", [
        (0, 1, 0),       # empty
        (1, 1, 1),       # single tuple
        (7, 3, 2),       # partial trailing set
        (64, 4, 3),      # exact multiple of the set size
        (257, 8, 4),     # window boundary straddled
        (1000, 2, 5),    # skewed two-lane dispatch
    ])
    def test_matches_reference_on_random_dispatch(self, big, num_edges, num_lanes, seed):
        rng = np.random.default_rng(seed)
        lanes = rng.integers(0, num_lanes, size=num_edges, dtype=np.int64)
        np.testing.assert_array_equal(
            big._gather_service(lanes, num_lanes),
            big._gather_service_reference(lanes, num_lanes),
        )

    def test_single_hot_lane_bounds_throughput(self, big):
        # All tuples on one lane: the busiest-lane rate equals the full
        # set size, so service can never beat one-tuple-per-cycle.
        lanes = np.zeros(512, dtype=np.int64)
        service = big._gather_service(lanes, 4)
        np.testing.assert_array_equal(
            service, big._gather_service_reference(lanes, 4)
        )
        assert service.min() >= 1.0


class TestDeterminism:
    def test_timing_reproducible(self, big, little, rmat_partitions):
        p = rmat_partitions.nonempty()[1]
        t1 = little.execute(p)
        t2 = little.execute(p)
        assert t1.total_cycles == t2.total_cycles
        g1 = big.execute([p])
        g2 = big.execute([p])
        assert g1.total_cycles == g2.total_cycles
