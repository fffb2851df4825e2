"""What every workload returns, plus the plan-shape figures they share."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from e2ebench.stats import median, sha256_json

Metric = Tuple[float, str]


@dataclass
class Context:
    """How one benchmark process was asked to run."""

    #: ``perf_counter`` at the first line of the benchmark process.
    started: float
    seed: int
    seconds: float
    trace: bool
    #: Scratch directory inside the checkout (journals, SQLite, bundles).
    workdir: Path
    run_id: str
    #: Shrunken inputs for the self-tests; measured runs never use them.
    quick: bool = False
    #: Test-only negative controls: ``{layer: seconds}`` sleeps injected
    #: into a layer, and corruption of the checked output.
    delays: Dict[str, float] = field(default_factory=dict)
    corrupt: bool = False

    def since_start(self) -> float:
        return time.perf_counter() - self.started


@dataclass
class Outcome:
    """One workload run: its checks, metrics and identity records."""

    attempted: int = 0
    failed: int = 0
    end_to_end: Dict[str, Metric] = field(default_factory=dict)
    per_layer: Dict[str, Metric] = field(default_factory=dict)
    #: Deterministic simulated statistics (the identity report).
    sim: Dict[str, object] = field(default_factory=dict)
    #: Input and output digests.
    digests: Dict[str, str] = field(default_factory=dict)
    #: Host-measured details beside the metrics (never compared exactly).
    host: Dict[str, object] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def assignment_digest(plan) -> str:
    """sha256 over which partitions each pipeline executes, in order."""
    return sha256_json([
        [pipe, list(task.partition_indices)]
        for pipe, task in plan.iter_tasks()
    ])


def plan_metrics(plans: Sequence) -> Dict[str, float]:
    """Scheduler shape and Eq. 1-4 makespan error, median over plans.

    ``model.rel_err`` is the model oracle's makespan disagreement
    between the analytic model and the cycle simulators; it guards the
    model's accuracy and says nothing about real hardware.
    """
    from repro.check.oracles import model_oracle

    errors = [
        next(r.max_error for r in model_oracle(plan)
             if r.oracle == "model-vs-sim/makespan")
        for plan in plans
    ]
    return {
        "sched.partitions": median([
            float(len(p.dense_indices) + len(p.sparse_indices))
            for p in plans
        ]),
        "sched.little": median([float(p.accelerator.num_little)
                                for p in plans]),
        "sched.big": median([float(p.accelerator.num_big) for p in plans]),
        "model.rel_err": median(errors),
    }


def edge_bytes(graph) -> int:
    """Bytes held by a graph's executed edge arrays."""
    total = graph.src.nbytes + graph.dst.nbytes
    if graph.weights is not None:
        total += graph.weights.nbytes
    return int(total)
