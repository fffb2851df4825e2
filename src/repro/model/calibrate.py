"""Calibration of the analytic model against the simulated hardware.

Sec. IV-A prescribes two measurements:

1. *"we benchmark the memory access latency with varying access distance
   (stride) on the test FPGAs"* — here, we sweep strided access patterns
   through the Big pipeline's memory interface and fit the bounded linear
   function of Eq. 4 to the observed **effective** per-request cycles
   (latency divided by the outstanding-request window, floored at the
   issue rate);

2. *"we measure the execution time of dummy partitions with a few edges to
   estimate the constant overhead of partition switching"* — we run each
   pipeline simulator on a dummy partition and take its total as the
   per-execution constant (C_store + C_const + pipeline fill).
"""

from __future__ import annotations

import numpy as np

from repro.arch.big_pipeline import BigPipelineSim
from repro.arch.config import PipelineConfig
from repro.arch.little_pipeline import LittlePipelineSim
from repro.graph.partition import Partition
from repro.hbm.channel import HbmChannelModel
from repro.hbm.latency import fit_linear_latency
from repro.model.perf import PerformanceModel


def _effective_request_benchmark(channel: HbmChannelModel):
    """Sample effective per-request cycles over a stride sweep."""
    strides = np.array(
        [64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768],
        dtype=np.float64,
    )
    effective = channel.effective_request_cycles(strides)
    return strides, effective


def _dummy_partition(num_edges: int = 8) -> Partition:
    """A tiny partition used to expose the per-execution constant."""
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    return Partition(index=0, vertex_lo=0, vertex_hi=1, src=src, dst=dst)


def calibrate_performance_model(
    config: PipelineConfig,
    channel: HbmChannelModel,
) -> PerformanceModel:
    """Produce a :class:`PerformanceModel` calibrated to the given channel."""
    strides, effective = _effective_request_benchmark(channel)
    fit = fit_linear_latency(strides, effective)

    dummy = _dummy_partition()
    big_timing = BigPipelineSim(config, channel).execute([dummy])
    little_timing = LittlePipelineSim(config, channel).execute(dummy)

    return PerformanceModel(
        config=config,
        big_fit=fit,
        const_big=big_timing.total_cycles,
        const_little=little_timing.total_cycles,
    )
