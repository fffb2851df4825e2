"""Differential oracles: three descriptions of one machine, cross-checked.

The repo describes the same accelerator three independent ways:

1. the **cycle-level module simulators** (Figs. 3-6) that execute plans
   task by task;
2. the **Eq. 1-4 analytic performance model** that predicts those cycle
   counts during scheduling;
3. the **pure-Python reference algorithms**
   (:mod:`repro.apps.reference`) that define what the answers must be.

Each oracle runs one (graph, app, device, plan) through two of the
descriptions and asserts agreement: cycle counts within the declared
:class:`~repro.check.tolerances.ToleranceBands`, algorithm results
exactly (BFS levels, SSSP distances, WCC components) or within
fixed-point resolution (PageRank ranks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.apps.reference import (
    bfs_reference,
    closeness_reference,
    pagerank_reference,
    sssp_reference,
    wcc_reference,
)
from repro.apps.sssp import SingleSourceShortestPaths
from repro.apps.wcc import WeaklyConnectedComponents, symmetrized
from repro.arch.trace import trace_plan
from repro.errors import ConformanceError
from repro.graph.coo import Graph
from repro.hbm.channel import HbmChannelModel
from repro.sched.plan import SchedulingPlan
from repro.check.tolerances import DEFAULT_BANDS, ToleranceBands

#: Apps the functional oracle knows how to cross-check.
ORACLE_APPS = ("pagerank", "bfs", "closeness", "sssp", "wcc")


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one differential comparison."""

    oracle: str
    subject: str
    passed: bool
    #: worst observed disagreement (relative cycles, absolute ranks, or
    #: mismatching element count, depending on the oracle)
    max_error: float
    detail: str

    def __str__(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return f"[{self.oracle}] {self.subject}: {status} ({self.detail})"


# ----------------------------------------------------------------------
# Simulator vs analytic model
# ----------------------------------------------------------------------
def model_oracle(
    plan: SchedulingPlan,
    channel: Optional[HbmChannelModel] = None,
    bands: ToleranceBands = DEFAULT_BANDS,
    subject: str = "plan",
) -> List[OracleResult]:
    """Compare the plan's Eq. 1-4 estimates against the cycle simulators.

    Two comparisons: every task's estimated cycles against its simulated
    duration (per-task band), and the plan's estimated makespan against
    the traced makespan (tighter band, errors average out).
    """
    trace = trace_plan(plan, channel)
    events = {}
    for event in trace.events:
        events.setdefault(event.pipeline, []).append(event)
    for pipe_events in events.values():
        pipe_events.sort(key=lambda e: e.start_cycle)

    worst_task = 0.0
    worst_detail = "no tasks"
    cursor = {pipe: 0 for pipe in events}
    for pipe, task in plan.iter_tasks():
        event = events[pipe][cursor[pipe]]
        cursor[pipe] += 1
        sim = event.duration
        rel = abs(sim - task.estimated_cycles) / max(sim, 1.0)
        if rel >= worst_task:
            worst_task = rel
            worst_detail = (
                f"{pipe} task over {task.partition_indices}: "
                f"est {task.estimated_cycles:,.0f} vs sim {sim:,.0f}"
            )
    task_result = OracleResult(
        oracle="model-vs-sim/task",
        subject=subject,
        passed=worst_task <= bands.model_task_rel,
        max_error=worst_task,
        detail=f"worst task error {worst_task:.1%} "
               f"(band {bands.model_task_rel:.0%}): {worst_detail}",
    )

    sim_span = trace.makespan
    est_span = plan.estimated_makespan
    span_rel = abs(sim_span - est_span) / max(sim_span, 1.0)
    span_result = OracleResult(
        oracle="model-vs-sim/makespan",
        subject=subject,
        passed=span_rel <= bands.model_makespan_rel,
        max_error=span_rel,
        detail=f"est {est_span:,.0f} vs sim {sim_span:,.0f} cycles "
               f"({span_rel:.1%}, band {bands.model_makespan_rel:.0%})",
    )
    return [task_result, span_result]


# ----------------------------------------------------------------------
# Simulated system vs reference algorithms
# ----------------------------------------------------------------------
def _component_canonical(labels: np.ndarray) -> np.ndarray:
    """Relabel components by first occurrence, making partitions of the
    vertex set comparable regardless of which member names the label."""
    _, first, inverse = np.unique(
        labels, return_index=True, return_inverse=True
    )
    # Rank each distinct label by the index where it first appears.
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size, dtype=np.int64)
    return rank[inverse]


def functional_oracle(
    graph: Graph,
    app: str,
    framework,
    root: int = 0,
    max_iterations: Optional[int] = None,
    bands: ToleranceBands = DEFAULT_BANDS,
) -> OracleResult:
    """Run ``app`` through the full simulated system and the reference
    implementation; compare the answers.

    ``framework`` is a :class:`~repro.core.framework.ReGraph` instance —
    the oracle exercises the whole pipeline it drives: DBG, partitioning,
    model-guided scheduling, heterogeneous execution, Apply, and the
    relabelling round-trip.
    """
    subject = f"{app}@{graph.name}"
    if app == "pagerank":
        run = framework.run_pagerank(graph, max_iterations=max_iterations)
        ref = pagerank_reference(graph, iterations=run.iterations)
        atol = bands.pagerank_atol(
            graph.out_degrees().max() if graph.num_edges else 1,
            run.iterations,
        )
        err = float(np.max(np.abs(run.result - ref)))
        return OracleResult(
            "functional", subject, err <= atol, err,
            f"max |rank - ref| = {err:.2e} (atol {atol:.2e})",
        )
    if app == "bfs":
        run = framework.run_bfs(graph, root=root)
        ref = bfs_reference(graph, root)
        mismatches = int(np.count_nonzero(run.props != ref))
        return OracleResult(
            "functional", subject, mismatches == 0, float(mismatches),
            f"{mismatches} level mismatch(es) of {graph.num_vertices}",
        )
    if app == "closeness":
        run = framework.run_closeness(graph, root=root)
        ref = closeness_reference(graph, root)
        err = abs(float(run.result) - ref)
        return OracleResult(
            "functional", subject, err <= 1e-9, err,
            f"|closeness - ref| = {err:.2e}",
        )
    if app == "sssp":
        if graph.weights is None:
            raise ConformanceError(f"sssp oracle needs weights on {graph.name}")
        pre = framework.preprocess(graph)
        internal_root = pre.to_internal_vertex(root)
        run = framework.run(
            pre, lambda g: SingleSourceShortestPaths(g, root=internal_root)
        )
        ref = sssp_reference(graph, root)
        mismatches = int(np.count_nonzero(run.props != ref))
        return OracleResult(
            "functional", subject, mismatches == 0, float(mismatches),
            f"{mismatches} distance mismatch(es) of {graph.num_vertices}",
        )
    if app == "wcc":
        # Weak components need the symmetrized edge set; labels are
        # compared as partitions (the simulator propagates relabelled
        # IDs, the reference original IDs — same components either way).
        sym = symmetrized(graph)
        run = framework.run(sym, WeaklyConnectedComponents)
        ref = wcc_reference(sym)
        mismatches = int(np.count_nonzero(
            _component_canonical(run.props) != _component_canonical(ref)
        ))
        return OracleResult(
            "functional", subject, mismatches == 0, float(mismatches),
            f"{mismatches} component mismatch(es) of {graph.num_vertices}",
        )
    raise ConformanceError(
        f"unknown oracle app {app!r}; available: {ORACLE_APPS}"
    )
