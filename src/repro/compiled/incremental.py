"""Incremental re-simulation: re-evaluate only what a change touches.

Sweeps and chaos campaigns mutate one thing at a time —
a channel parameter, one scheduled task, one fault site — and the
compiled structure makes the blast radius of each mutation explicit:

* **channel params** enter only at evaluation, so every non-empty node
  is dirty (empty nodes have channel-independent constant timing);
* **one task** owns exactly one node, so replacing it re-lowers and
  re-evaluates that node alone;
* **one fault site** (a latency-spike scale pinned to one pipeline,
  mirroring :meth:`repro.faults.injector.FaultInjector.scale_latency`'s
  post-clip multiply) dirties only that pipeline's non-empty nodes —
  plus the previously-scaled ones when the site moves or clears.

Every mutation records its dirty set in :attr:`last_dirty` so the
property suite can assert minimality, and re-evaluated nodes use the
same batched kernels as a cold run — making incremental output
bit-identical to a full evaluation under the final state, which
``tests/test_compiled_incremental.py`` pins with hypothesis.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.arch.timing import PartitionTiming
from repro.compiled.evaluate import evaluate_nodes
from repro.compiled.lower import (
    CompiledPlan,
    compile_plan,
    lower_big_task,
    lower_little_task,
)
from repro.hbm.channel import HbmChannelModel, HbmTimingParams


class _ScaledLatencySite:
    """Minimal fault-site shim: post-clip latency multiply, like an
    active latency spike whose window covers the evaluation."""

    def __init__(self, scale: float):
        self.scale = float(scale)

    def scale_latency(self, latency):
        if self.scale == 1.0:
            return latency
        return latency * self.scale


class IncrementalEvaluator:
    """Compiled plan + current timings, updated change by change."""

    def __init__(
        self,
        plan,
        params: Optional[HbmTimingParams] = None,
        cplan: Optional[CompiledPlan] = None,
    ):
        self.cplan = cplan if cplan is not None else compile_plan(plan)
        self.params = params if params is not None else HbmTimingParams()
        #: Latency-spike scale per (kind, pipeline); absent = 1.0.
        self.fault_scales: Dict[Tuple[str, int], float] = {}
        self.timings: List[PartitionTiming] = [None] * len(self.cplan.nodes)
        self._refresh(self.cplan.nodes)
        #: Node indices the most recent mutation re-evaluated.
        self.last_dirty: FrozenSet[int] = frozenset(
            node.index for node in self.cplan.nodes
        )

    # -- channels ------------------------------------------------------
    def _channel_for(self, node) -> HbmChannelModel:
        scale = self.fault_scales.get((node.kind, node.pipeline), 1.0)
        if scale == 1.0:
            return HbmChannelModel(self.params)
        return HbmChannelModel(
            self.params, fault_site=_ScaledLatencySite(scale)
        )

    def _refresh(self, nodes) -> None:
        """Re-evaluate ``nodes`` in place under the current state.

        Nodes sharing one effective channel are batched together (clean
        pipelines all share one channel; each scaled pipeline gets its
        own), so a refresh costs the same per node as a cold run.
        """
        for index, timing in self._evaluate_grouped(nodes).items():
            self.timings[index] = timing

    def _evaluate_grouped(self, nodes) -> Dict[int, PartitionTiming]:
        """Evaluate ``nodes``, grouped by their effective channel."""
        groups: Dict[Optional[Tuple[str, int]], list] = {}
        for node in nodes:
            key = (node.kind, node.pipeline)
            groups.setdefault(
                key if key in self.fault_scales else None, []
            ).append(node)
        out: Dict[int, PartitionTiming] = {}
        for members in groups.values():
            channel = self._channel_for(members[0])
            out.update(evaluate_nodes(self.cplan, members, channel))
        return out

    # -- mutations -----------------------------------------------------
    def set_channel_params(self, params: HbmTimingParams) -> FrozenSet[int]:
        """Switch channel parameters; dirties every non-empty node."""
        if params == self.params:
            self.last_dirty = frozenset()
            return self.last_dirty
        self.params = params
        dirty = [n for n in self.cplan.nodes if n.num_edges]
        self._refresh(dirty)
        self.last_dirty = frozenset(n.index for n in dirty)
        return self.last_dirty

    def replace_task(self, kind: str, pipeline: int, order: int, task):
        """Swap one scheduled task; dirties exactly its node.

        ``task`` is a :class:`~repro.sched.plan.LittleTask` /
        :class:`~repro.sched.plan.BigTask` matching ``kind``.
        """
        config = self.cplan.config
        rows = (
            self.cplan.little_by_pipe
            if kind == "little"
            else self.cplan.big_by_pipe
        )
        old = rows[pipeline][order]
        if kind == "little":
            node = lower_little_task(
                config, task.partition, old.index, pipeline, order
            )
        else:
            node = lower_big_task(
                config, task.partitions, old.index, pipeline, order
            )
        rows[pipeline][order] = node
        self.cplan.nodes[old.index] = node
        self._refresh([node])
        self.last_dirty = frozenset((node.index,))
        return self.last_dirty

    def set_fault(
        self, kind: str, pipeline: int, scale: float
    ) -> FrozenSet[int]:
        """Pin a latency-spike scale onto one pipeline (1.0 clears it).

        Dirties the non-empty nodes of every pipeline whose effective
        scale changed — the newly-faulted one and, when the site moved
        or cleared, the previously-faulted ones.
        """
        key = (kind, pipeline)
        previous = self.fault_scales.get(key, 1.0)
        if scale == previous:
            self.last_dirty = frozenset()
            return self.last_dirty
        if scale == 1.0:
            del self.fault_scales[key]
        else:
            self.fault_scales[key] = float(scale)
        dirty = [
            n
            for n in self.cplan.nodes
            if n.num_edges and (n.kind, n.pipeline) == key
        ]
        self._refresh(dirty)
        self.last_dirty = frozenset(n.index for n in dirty)
        return self.last_dirty

    # -- oracles -------------------------------------------------------
    def full_evaluation(self) -> List[PartitionTiming]:
        """Cold full recompute under the current state (the oracle the
        incremental path must match bit-for-bit).  Does not mutate any
        incremental state."""
        by_index = self._evaluate_grouped(self.cplan.nodes)
        return [by_index[i] for i in range(len(self.cplan.nodes))]

    def timing_of(self, kind: str, pipeline: int, order: int):
        rows = (
            self.cplan.little_by_pipe
            if kind == "little"
            else self.cplan.big_by_pipe
        )
        return self.timings[rows[pipeline][order].index]

    def busy_cycles(self):
        """Per-pipeline busy sums from the current timings."""
        little = [
            sum(self.timings[n.index].total_cycles for n in row)
            for row in self.cplan.little_by_pipe
        ]
        big = [
            sum(self.timings[n.index].total_cycles for n in row)
            for row in self.cplan.big_by_pipe
        ]
        return little, big
