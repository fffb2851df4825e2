"""Dynamic (work-stealing) scheduling — an ablation of the static plan.

ReGraph's plan is *static*: the model assigns every task to a pipeline
offline.  A natural question is how much a dynamic runtime — pipelines
pulling the next task from a shared queue when they go idle — would gain
or lose.  This module simulates exactly that, using the same cycle-level
task timings, so the comparison isolates the scheduling policy:

* static = zero runtime coordination, quality depends on the model;
* dynamic = perfect load information, but each pull still pays the
  partition-switch handshake and tasks cannot be split further online.

The paper's implicit claim is that model-guided static cuts make dynamic
scheduling unnecessary; the comparison bench quantifies the gap.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.arch.big_pipeline import BigPipelineSim
from repro.arch.little_pipeline import LittlePipelineSim
from repro.hbm.channel import HbmChannelModel
from repro.sched.plan import SchedulingPlan

#: Extra cycles per dynamic task pull (host/queue handshake).
DYNAMIC_PULL_OVERHEAD = 500.0


@dataclass(frozen=True)
class ClusterSchedule:
    """Outcome of scheduling one cluster's tasks over its pipelines."""

    pipeline_finish: Tuple[float, ...]

    @property
    def makespan(self) -> float:
        """Completion time of the slowest pipeline."""
        return max(self.pipeline_finish) if self.pipeline_finish else 0.0


def _simulate_queue(
    durations: Sequence[float],
    num_pipelines: int,
    pull_overhead: float,
) -> ClusterSchedule:
    """Greedy list scheduling: idle pipeline pulls the next queued task."""
    if num_pipelines < 1:
        return ClusterSchedule(pipeline_finish=())
    finish = [0.0] * num_pipelines
    heap = [(0.0, i) for i in range(num_pipelines)]
    heapq.heapify(heap)
    for duration in durations:
        t, i = heapq.heappop(heap)
        t += duration + pull_overhead
        finish[i] = t
        heapq.heappush(heap, (t, i))
    return ClusterSchedule(pipeline_finish=tuple(finish))


def _task_cycles(
    plan: SchedulingPlan, channel: HbmChannelModel
) -> Tuple[List[List[float]], List[List[float]]]:
    """Every task's cycles per pipeline, in plan order: ``(little, big)``.

    Fault-free channels read the plan's memoised compiled timings (the
    same numbers the interpreted pipelines produce, bit for bit); a
    channel with a fault site is timed task by task, since its timings
    depend on injector state the memo must not capture.
    """
    if channel.fault_site is None:
        # Imported here: repro.compiled imports this package.
        from repro.compiled import plan_engine

        engine = plan_engine(plan)
        timings = engine.timings(channel)

        def cycles(rows):
            return [[timings[n.index].total_cycles for n in row]
                    for row in rows]

        cplan = engine.cplan
        return cycles(cplan.little_by_pipe), cycles(cplan.big_by_pipe)
    config = plan.accelerator.pipeline
    little = LittlePipelineSim(config, channel)
    big = BigPipelineSim(config, channel)
    return (
        [[little.execute(t.partition).total_cycles for t in tasks]
         for tasks in plan.little_tasks],
        [[big.execute(t.partitions).total_cycles for t in tasks]
         for tasks in plan.big_tasks],
    )


def dynamic_makespan(
    plan: SchedulingPlan,
    channel: Optional[HbmChannelModel] = None,
    longest_first: bool = True,
    pull_overhead: float = DYNAMIC_PULL_OVERHEAD,
) -> float:
    """Iteration makespan if the plan's tasks were scheduled dynamically.

    Tasks keep the static plan's granularity (sub-partition cuts are an
    offline product); only the task-to-pipeline mapping becomes online.
    ``longest_first`` sorts the queue by measured duration — the classic
    LPT heuristic an informed runtime would use.
    """
    little, big = _task_cycles(plan, channel or HbmChannelModel())
    little_durations = [cycles for row in little for cycles in row]
    big_durations = [cycles for row in big for cycles in row]
    if longest_first:
        little_durations.sort(reverse=True)
        big_durations.sort(reverse=True)

    little_sched = _simulate_queue(
        little_durations, plan.accelerator.num_little, pull_overhead
    )
    big_sched = _simulate_queue(
        big_durations, plan.accelerator.num_big, pull_overhead
    )
    return max(little_sched.makespan, big_sched.makespan)


def static_makespan(
    plan: SchedulingPlan,
    channel: Optional[HbmChannelModel] = None,
) -> float:
    """Measured (cycle-simulated) makespan of the static plan itself."""
    little, big = _task_cycles(plan, channel or HbmChannelModel())
    finish = [sum(row) for row in little + big]
    return max(finish) if finish else 0.0
