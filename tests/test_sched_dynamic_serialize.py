"""Tests for dynamic scheduling and plan serialization."""

import pytest

from repro.arch.big_pipeline import BigPipelineSim
from repro.arch.little_pipeline import LittlePipelineSim
from repro.faults import FaultInjector, FaultPlan
from repro.hbm.channel import HbmChannelModel
from repro.sched.dynamic import (
    DYNAMIC_PULL_OVERHEAD,
    _simulate_queue,
    dynamic_makespan,
    static_makespan,
)
from repro.sched.scheduler import build_schedule
from repro.sched.serialize import (
    load_plan_summary,
    plan_to_dict,
    save_plan,
    verify_plan_against,
)


@pytest.fixture()
def plan(rmat_partitions, perf_model):
    return build_schedule(rmat_partitions, perf_model, 4)


class TestQueueSimulation:
    def test_single_pipeline_serialises(self):
        sched = _simulate_queue([3.0, 4.0, 5.0], 1, pull_overhead=0.0)
        assert sched.makespan == 12.0

    def test_balanced_split(self):
        sched = _simulate_queue([5.0, 5.0, 5.0, 5.0], 2, pull_overhead=0.0)
        assert sched.makespan == 10.0

    def test_pull_overhead_charged(self):
        free = _simulate_queue([1.0] * 4, 2, pull_overhead=0.0)
        taxed = _simulate_queue([1.0] * 4, 2, pull_overhead=10.0)
        assert taxed.makespan > free.makespan

    def test_zero_pipelines(self):
        assert _simulate_queue([1.0], 0, 0.0).makespan == 0.0

    def test_greedy_respects_longest_task(self):
        sched = _simulate_queue([9.0, 1.0, 1.0, 1.0], 2, pull_overhead=0.0)
        assert sched.makespan == 9.0


class TestMakespans:
    def test_static_close_to_dynamic(self, plan):
        static = static_makespan(plan)
        dynamic = dynamic_makespan(plan)
        assert static <= 1.4 * dynamic

    def test_static_positive(self, plan):
        assert static_makespan(plan) > 0

    def test_dynamic_includes_overhead(self, plan):
        cheap = dynamic_makespan(plan, pull_overhead=0.0)
        taxed = dynamic_makespan(plan, pull_overhead=5_000.0)
        assert taxed > cheap

    def test_lpt_no_worse_than_fifo(self, plan):
        lpt = dynamic_makespan(plan, longest_first=True)
        fifo = dynamic_makespan(plan, longest_first=False)
        assert lpt <= 1.1 * fifo


def _interpreted_makespans(plan, channel):
    """Both makespans from the per-task ``execute`` loop."""
    config = plan.accelerator.pipeline
    little = LittlePipelineSim(config, channel)
    big = BigPipelineSim(config, channel)
    little_cycles = [
        [little.execute(t.partition).total_cycles for t in tasks]
        for tasks in plan.little_tasks
    ]
    big_cycles = [
        [big.execute(t.partitions).total_cycles for t in tasks]
        for tasks in plan.big_tasks
    ]
    static = max(sum(row) for row in little_cycles + big_cycles)
    dynamic = max(
        _simulate_queue(
            sorted((c for row in rows for c in row), reverse=True),
            len(rows), DYNAMIC_PULL_OVERHEAD,
        ).makespan
        for rows in (little_cycles, big_cycles)
    )
    return static, dynamic


class TestCompiledTimings:
    """Fault-free makespans read the plan's compiled timing memo; the
    numbers must equal the per-task interpreted loop bit for bit."""

    def test_bit_identical_to_execute_loop(self, plan):
        channel = HbmChannelModel()
        static, dynamic = _interpreted_makespans(plan, channel)
        assert static_makespan(plan, channel) == static
        assert dynamic_makespan(plan, channel) == dynamic
        assert getattr(plan, "_compiled_engine", None) is not None

    def test_fault_site_channel_is_timed_per_task(self, plan):
        channel = HbmChannelModel(fault_site=FaultInjector(FaultPlan()))
        static, dynamic = _interpreted_makespans(plan, channel)
        assert static_makespan(plan, channel) == static
        assert dynamic_makespan(plan, channel) == dynamic
        # The compiled memo is keyed by channel parameters alone, so a
        # fault-site channel must never populate it.
        assert getattr(plan, "_compiled_engine", None) is None


class TestSerialize:
    def test_roundtrip(self, plan, tmp_path):
        path = save_plan(plan, tmp_path / "plan.json")
        summary = load_plan_summary(path)
        assert summary["accelerator"]["num_little"] == plan.accelerator.num_little
        assert summary["total_edges"] == plan.total_edges()

    def test_dict_structure(self, plan):
        d = plan_to_dict(plan)
        assert len(d["little_tasks"]) == plan.accelerator.num_little
        assert len(d["big_tasks"]) == plan.accelerator.num_big
        little_edges = sum(
            t["edges"] for tasks in d["little_tasks"] for t in tasks
        )
        big_edges = sum(
            sum(t["edges"]) for tasks in d["big_tasks"] for t in tasks
        )
        assert little_edges + big_edges == d["total_edges"]

    def test_verify_accepts_matching(self, plan, rmat_partitions):
        summary = plan_to_dict(plan)
        assert verify_plan_against(summary, rmat_partitions, plan.accelerator)

    def test_verify_rejects_wrong_shape(self, plan, rmat_partitions):
        from repro.arch.config import AcceleratorConfig

        summary = plan_to_dict(plan)
        other = AcceleratorConfig(
            plan.accelerator.num_little + 1,
            max(plan.accelerator.num_big - 1, 0) or 1,
            plan.accelerator.pipeline,
        )
        assert not verify_plan_against(summary, rmat_partitions, other)

    def test_verify_rejects_wrong_buffer(self, plan, rmat_partitions):
        from repro.arch.config import AcceleratorConfig, PipelineConfig

        summary = plan_to_dict(plan)
        other = AcceleratorConfig(
            plan.accelerator.num_little,
            plan.accelerator.num_big,
            PipelineConfig(gather_buffer_vertices=64),
        )
        assert not verify_plan_against(summary, rmat_partitions, other)
