"""Compiled functional pass: one destination-segment reduction per iteration.

The interpreted functional pass walks every scheduled task through
``LittlePipelineSim.execute`` / ``BigPipelineSim.execute`` each
iteration, folding updates into per-PE destination buffers that a
Merger (Little) or the Data Router (Big) then combines — the datapath
of paper Sec. V-C, Fig. 3.  That datapath shapes the *timing*, which
the compiled timing core models; the functional *result* is only each
destination vertex's fold of its incoming updates.

So lowering builds one property-independent layout per plan (the
LightningSimV2 "lower once, evaluate cheaply" split applied to the
arithmetic itself):

* every planned edge's source (and weight), stably grouped by
  destination vertex;
* the start offset of each destination's run;
* the destination vertex of each run.

One iteration is then a single scatter over all edges, one
``gather_ufunc.reduceat`` over the runs, and one indexed merge into the
accumulator.

**Bit-identity.**  The GAS contract (:mod:`repro.apps.gas`) makes
``gather_ufunc`` associative, commutative and exact on ``prop_dtype``
(wrapping int64 ``+``, ``min``, ``max``, ``|``), so every fold order —
the interpreted PE banks, merge tree and accumulator merges, or one
segment reduction — yields the same bits.  ``scatter`` is elementwise,
so evaluating it over all edges at once cannot change any element
either.  The differential harness in
``tests/test_compiled_functional.py`` is the contract.

Runs with an *active* functional fault (a bit-flip whose window is open)
always fall back to the interpreted walk, whose per-buffer
``filter_buffer`` hook owns the fault RNG — the same fallback rule the
compiled timing pass applies via ``timing_faults_active()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.compiled.evaluate import _STATS


@dataclass
class FunctionalPlan:
    """The static functional-evaluation layout for one SchedulingPlan."""

    #: Source vertex of every planned edge, grouped by destination.
    src: np.ndarray
    #: Edge weights in the same order (``None`` for unweighted plans).
    weights: Optional[np.ndarray]
    #: Offset into ``src`` where each destination's run starts.
    starts: np.ndarray
    #: Destination vertex of each run (strictly increasing).
    dst: np.ndarray

    @property
    def num_edges(self) -> int:
        """Planned edges the layout covers."""
        return int(self.src.size)


def lower_functional_plan(plan) -> FunctionalPlan:
    """Lower every task of ``plan`` into the destination-segment layout.

    Property-independent by construction: the result is reused unchanged
    across iterations, retries and apps sharing the plan; only
    :meth:`FunctionalEngine.accumulate` touches the property array.
    """
    partitions = [
        task.partition for tasks in plan.little_tasks for task in tasks
    ] + [
        p for tasks in plan.big_tasks for task in tasks for p in task.partitions
    ]
    if not partitions:
        empty = np.zeros(0, dtype=np.int64)
        return FunctionalPlan(src=empty, weights=None, starts=empty, dst=empty)
    # Vertex IDs fit 32 bits (Graph rejects V > 2**31), which halves the
    # sort's bandwidth.
    dst = np.concatenate(
        [p.dst for p in partitions], dtype=np.int32, casting="same_kind"
    )
    # Each edge-sized temporary is dropped before the next is built:
    # at paper scale this lowering can set the process's memory peak.
    counts = np.bincount(dst)
    order = np.argsort(dst, kind="stable")
    del dst
    src = np.concatenate([p.src for p in partitions])[order]
    weights = None
    if partitions[0].weights is not None:
        weights = np.concatenate([p.weights for p in partitions])[order]
    del order
    vertices = np.flatnonzero(counts)
    starts = np.zeros(vertices.size, dtype=np.int64)
    np.cumsum(counts[vertices[:-1]], out=starts[1:])
    return FunctionalPlan(src=src, weights=weights, starts=starts, dst=vertices)


class FunctionalEngine:
    """Lowered functional layout of one plan, evaluated per iteration."""

    def __init__(self, fplan: FunctionalPlan):
        self.fplan = fplan

    def accumulate(self, app, props: np.ndarray) -> np.ndarray:
        """One iteration's global accumulator (pre-Apply).

        Equals the interpreted functional pass's ``acc`` bit-for-bit;
        the caller applies ``app.apply`` exactly as the interpreted
        path does.
        """
        _STATS["functional_iterations"] += 1
        fplan = self.fplan
        acc = np.full(props.size, app.gather_identity, dtype=app.prop_dtype)
        if fplan.num_edges:
            values = app.scatter(props[fplan.src], fplan.weights)
            # ``acc`` holds the gather identity, so each run's fold is
            # the destination's whole accumulation.
            acc[fplan.dst] = app.gather_ufunc.reduceat(values, fplan.starts)
        return acc


def note_functional_fallback() -> None:
    """Count one functional pass routed through the interpreted walk."""
    _STATS["functional_fallbacks"] += 1


def functional_engine(plan) -> FunctionalEngine:
    """Functional engine for ``plan``, lowering on first use.

    Attached to the plan object itself — plans are rebuilt (never
    mutated) by the degradation path, so a stale structure can never be
    replayed against changed task lists.
    """
    engine: Optional[FunctionalEngine] = getattr(
        plan, "_functional_engine", None
    )
    if engine is None:
        engine = FunctionalEngine(lower_functional_plan(plan))
        _STATS["functional_plans"] += 1
        plan._functional_engine = engine
    return engine
