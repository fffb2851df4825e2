"""Tests for weighted-edge stream timing (S_e = 12 B)."""

import numpy as np
import pytest

from repro.arch.big_pipeline import BigPipelineSim
from repro.arch.little_pipeline import LittlePipelineSim
from repro.graph.coo import EDGE_BYTES


def _with_weights(partition, rng):
    from repro.graph.partition import Partition

    return Partition(
        index=partition.index,
        vertex_lo=partition.vertex_lo,
        vertex_hi=partition.vertex_hi,
        src=partition.src,
        dst=partition.dst,
        weights=rng.integers(1, 100, partition.num_edges),
    )


class TestWeightedStreams:
    def test_weighted_little_slower_when_edge_bound(
        self, rmat_partitions, config, channel, rng
    ):
        # The dense head is edge-stream bound, so the 12 B record rate
        # (2/3 of the 8 B rate) shows directly.
        sim = LittlePipelineSim(config, channel)
        dense = rmat_partitions.nonempty()[0]
        plain = sim.execute(dense)
        weighted = sim.execute(_with_weights(dense, rng))
        assert weighted.compute_cycles > 1.2 * plain.compute_cycles

    def test_weighted_big_no_faster(self, rmat_partitions, config, channel, rng):
        sim = BigPipelineSim(config, channel)
        dense = rmat_partitions.nonempty()[0]
        plain = sim.execute([dense])
        weighted = sim.execute([_with_weights(dense, rng)])
        assert weighted.compute_cycles >= plain.compute_cycles

    def test_model_floor_tracks_edge_bytes(self, perf_model):
        src = np.zeros(64, dtype=np.int64)
        plain = perf_model.edge_costs_little(src, edge_bytes=EDGE_BYTES)
        weighted = perf_model.edge_costs_little(src, edge_bytes=12)
        assert weighted[0] == pytest.approx(12 / 64)
        assert plain[0] == pytest.approx(8 / 64)

    def test_fixed_overheads_unchanged(self, rmat_partitions, config, channel, rng):
        sim = LittlePipelineSim(config, channel)
        sparse = rmat_partitions.nonempty()[-1]
        plain = sim.execute(sparse)
        weighted = sim.execute(_with_weights(sparse, rng))
        assert weighted.store_cycles == plain.store_cycles
        assert weighted.switch_cycles == plain.switch_cycles
