"""The Eq. 1-4 cycle-level performance model.

For a partition ``p`` with ``E_p`` edges:

    C_p = sum_i max(C_acs_v^i, C_acs_e, C_proc) + C_store + C_const    (1)

* ``C_acs_e = S_e / S_mem`` — sequential edge fetch (constant).
* ``C_proc = 1 / max(N_spe / II_spe, N_gpe / II_gpe)``               (3)
* ``C_acs_v^i`` — source-vertex access cost of edge ``i``:
  - **Big**: 0 when the edge hits the Vertex Loader's last-block cache,
    otherwise the bounded linear latency model ``clip(a * dist + b)`` of
    Eq. 4, with (a, b) fitted from the strided memory benchmark;
  - **Little**: ``(vid_i - vid_{i-1}) * S_vprop / S_mem`` — the burst
    cycles to stream the gap (Eq. 4, second case).
* ``C_store`` (Eq. 2) and ``C_const`` are folded into one measured
  per-execution constant, obtained by timing dummy partitions exactly as
  Sec. IV-A prescribes.

Estimation is O(E_p) with NumPy and runs during graph partitioning, so the
preprocessing cost it adds matches the paper's "little extra overhead".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.config import PipelineConfig
from repro.graph.coo import EDGE_BYTES, VERTEX_WORD_BYTES
from repro.graph.partition import Partition
from repro.hbm.channel import BLOCK_BYTES
from repro.hbm.latency import LatencyFit
from repro.utils.prefix import balanced_chunk_bounds


@dataclass(frozen=True)
class PerformanceModel:
    """Calibrated analytic model for one pipeline configuration."""

    config: PipelineConfig
    #: Eq. 4 fit of the Big pipeline's effective per-request cycles.
    big_fit: LatencyFit
    #: Measured constant per Big execution (C_store + C_const + fill).
    const_big: float
    #: Measured constant per Little execution.
    const_little: float

    # ------------------------------------------------------------------
    # Per-edge enumeration (the sum term of Eq. 1)
    # ------------------------------------------------------------------
    def edge_costs_big(
        self, src: np.ndarray, edge_bytes: int = EDGE_BYTES
    ) -> np.ndarray:
        """Per-edge cycles on the Big pipeline (the Eq. 1 max term).

        ``edge_bytes`` is ``S_e`` of Eq. 1: 8 for (src, dst) records, 12
        when a weight word rides along (SSSP/SpMV), which slows the
        sequential edge stream accordingly.
        """
        src = np.asarray(src, dtype=np.int64)
        if src.size == 0:
            return np.zeros(0)
        # Only edges that open a new block pay the Eq. 4 latency (edge 0
        # always does, at distance 0); every other edge costs exactly the
        # floor, so the latency is evaluated at the openings alone.
        blocks = src // self.config.vertices_per_block
        change = np.flatnonzero(blocks[1:] != blocks[:-1]) + 1
        del blocks
        dist = np.zeros(change.size + 1, dtype=np.float64)
        dist[1:] = (src[change] - src[change - 1]) * VERTEX_WORD_BYTES
        floor = self._edge_floor(edge_bytes)
        costs = np.full(src.size, floor, dtype=np.float64)
        opened = np.concatenate(([0], change))
        costs[opened] = np.maximum(self.big_fit.latency(dist), floor)
        return costs

    def edge_costs_little(
        self, src: np.ndarray, edge_bytes: int = EDGE_BYTES
    ) -> np.ndarray:
        """Per-edge cycles on the Little pipeline (the Eq. 1 max term)."""
        src = np.asarray(src, dtype=np.int64)
        if src.size == 0:
            return np.zeros(0)
        # Updated in place to avoid four edge-sized temporaries; every
        # step is exact (gaps < 2**53, power-of-two scaling), so the
        # result matches the step-by-step formula bit for bit.
        costs = np.empty(src.size, dtype=np.float64)
        costs[0] = 0.0
        np.subtract(src[1:], src[:-1], out=costs[1:])
        costs *= VERTEX_WORD_BYTES
        costs /= BLOCK_BYTES
        return np.maximum(costs, self._edge_floor(edge_bytes), out=costs)

    def slice_costs_little(
        self, costs: np.ndarray, lo: int, hi: int
    ) -> np.ndarray:
        """``edge_costs_little(src[lo:hi])`` from ``costs`` of all of ``src``.

        A slice restarts the gap stream, so only its first edge changes:
        it has no predecessor and costs the floor.
        """
        out = costs[lo:hi].copy()
        if out.size:
            out[0] = self._edge_floor()
        return out

    def _edge_floor(self, edge_bytes: int = EDGE_BYTES) -> float:
        """Per-edge lower bound ``max(C_acs_e, C_proc)`` of Eq. 1."""
        return max(self._acs_e(edge_bytes), self.config.proc_cycles_per_edge)

    def _acs_e(self, edge_bytes: int = EDGE_BYTES) -> float:
        """``C_acs_e = S_e / S_mem`` — constant sequential edge cost."""
        return edge_bytes / BLOCK_BYTES

    # ------------------------------------------------------------------
    # Partition-level estimates
    # ------------------------------------------------------------------
    def estimate_big_group(self, lane_srcs) -> float:
        """Cycles of one Big execution covering a partition group.

        Two bounds compose (both derive from Eq. 1's max structure):

        * the *supply* bound — the sum of per-edge access costs over the
          merged ascending-source stream;
        * the *gather* bound — each Gather PE owns one partition and
          absorbs one tuple per cycle (II_gpe), so the execution cannot
          finish before the busiest lane drains.
        """
        lane_srcs = [np.asarray(s, dtype=np.int64) for s in lane_srcs]
        if not lane_srcs:
            raise ValueError("group needs at least one partition")
        merged = np.concatenate(lane_srcs)
        merged.sort()
        supply = float(self.edge_costs_big(merged).sum())
        gather_bound = max(s.size for s in lane_srcs) * self.config.ii_gpe
        return max(supply, float(gather_bound)) + self.const_big

    def estimate_little_execution(self, src: np.ndarray) -> float:
        """Cycles of one Little execution over one (sub-)partition."""
        return self.little_cycles(self.edge_costs_little(src))

    def little_cycles(self, costs: np.ndarray) -> float:
        """Cycles of one Little execution from its per-edge ``costs``."""
        return float(costs.sum()) + self.const_little

    def estimate_partition(self, partition: Partition, kind: str) -> float:
        """Estimated cycles of a single partition on a pipeline type.

        For the Big pipeline the per-execution constant is amortised over
        the ``N_gpe`` partitions one execution covers (Sec. III-B), which
        is what makes Big pipelines win on sparse partitions; conversely
        the partition's own Gather PE bounds it from below at one edge
        per cycle, which is what makes Big lose on dense partitions.
        """
        if kind == "little":
            return self.estimate_little_execution(partition.src)
        if kind == "big":
            supply = float(self.edge_costs_big(partition.src).sum())
            # Classification assumes the partition joins a *balanced*
            # group (sparse partitions are merged N_gpe at a time), so
            # its share of the group's gather bound is E_p / N_gpe; a
            # partition heavy enough to dominate its group is caught by
            # the supply term and the Fig. 9 group estimates instead.
            gather_bound = (
                partition.num_edges * self.config.ii_gpe / self.config.n_gpe
            )
            return (
                max(supply, gather_bound)
                + self.const_big / self.config.n_gpe
            )
        raise ValueError(f"kind must be 'big' or 'little', got {kind!r}")

    # ------------------------------------------------------------------
    # Window support for the intra-cluster scheduler
    # ------------------------------------------------------------------
    def window_weights(
        self, src: np.ndarray, kind: str, window_edges: int
    ) -> np.ndarray:
        """Estimated cycles of consecutive ``window_edges``-sized windows.

        The intra-cluster scheduler (Sec. IV-B) cuts partitions at window
        granularity so sub-partition boundaries can be found in one scan.
        """
        costs = (
            self.edge_costs_big(src)
            if kind == "big"
            else self.edge_costs_little(src)
        )
        return self.window_sums(costs, window_edges)

    @staticmethod
    def window_sums(costs: np.ndarray, window_edges: int) -> np.ndarray:
        """Sum per-edge ``costs`` over consecutive ``window_edges`` windows."""
        if costs.size == 0:
            return np.zeros(0)
        num_windows = -(-costs.size // window_edges)
        padded = np.zeros(num_windows * window_edges)
        padded[: costs.size] = costs
        return padded.reshape(num_windows, window_edges).sum(axis=1)

    def cut_points(
        self,
        src: np.ndarray,
        kind: str,
        num_chunks: int,
        window_edges: int = 1024,
    ) -> np.ndarray:
        """Edge indices cutting ``src`` into ``num_chunks`` equal-time
        sub-partitions at window granularity."""
        weights = self.window_weights(src, kind, window_edges)
        bounds = balanced_chunk_bounds(weights, num_chunks)
        return np.minimum(bounds * window_edges, src.size)
