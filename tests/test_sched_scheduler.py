"""Tests for the end-to-end scheduler and the plan structure."""

import hashlib
import json

import pytest

from repro.sched.inter import classify_partitions
from repro.sched.plan import BigTask
from repro.sched.scheduler import build_schedule


class TestBuildSchedule:
    def test_plan_covers_all_edges(self, rmat_partitions, perf_model):
        plan = build_schedule(rmat_partitions, perf_model, 6)
        assert plan.total_edges() == rmat_partitions.graph.num_edges

    def test_pipeline_counts_sum(self, rmat_partitions, perf_model):
        plan = build_schedule(rmat_partitions, perf_model, 6)
        accel = plan.accelerator
        assert accel.num_little + accel.num_big == 6
        assert len(plan.little_tasks) == accel.num_little
        assert len(plan.big_tasks) == accel.num_big

    def test_mixed_combo_chosen_for_skewed_graph(
        self, rmat_partitions, perf_model
    ):
        plan = build_schedule(rmat_partitions, perf_model, 6)
        assert not plan.accelerator.is_homogeneous

    def test_dense_and_sparse_disjoint(self, rmat_partitions, perf_model):
        plan = build_schedule(rmat_partitions, perf_model, 6)
        assert not set(plan.dense_indices) & set(plan.sparse_indices)

    def test_forced_homogeneous_little(self, rmat_partitions, perf_model):
        plan = build_schedule(
            rmat_partitions, perf_model, 6, forced_combo=(6, 0)
        )
        assert plan.accelerator.label == "6L0B"
        assert plan.big_tasks == []
        assert plan.total_edges() == rmat_partitions.graph.num_edges

    def test_forced_homogeneous_big(self, rmat_partitions, perf_model):
        plan = build_schedule(
            rmat_partitions, perf_model, 6, forced_combo=(0, 6)
        )
        assert plan.accelerator.label == "0L6B"
        assert plan.little_tasks == []
        assert plan.total_edges() == rmat_partitions.graph.num_edges

    def test_forced_combo_must_sum(self, rmat_partitions, perf_model):
        with pytest.raises(ValueError):
            build_schedule(rmat_partitions, perf_model, 6, forced_combo=(3, 4))

    def test_all_forced_combos_cover_edges(self, rmat_partitions, perf_model):
        for m in range(7):
            plan = build_schedule(
                rmat_partitions, perf_model, 6, forced_combo=(m, 6 - m)
            )
            assert plan.total_edges() == rmat_partitions.graph.num_edges


class TestPlanMetrics:
    def test_makespan_positive(self, rmat_partitions, perf_model):
        plan = build_schedule(rmat_partitions, perf_model, 6)
        assert plan.estimated_makespan > 0

    def test_balance_ratio_at_least_one(self, rmat_partitions, perf_model):
        plan = build_schedule(rmat_partitions, perf_model, 6)
        assert plan.balance_ratio >= 1.0

    def test_model_guided_beats_or_matches_worst_forced(
        self, rmat_partitions, perf_model
    ):
        chosen = build_schedule(rmat_partitions, perf_model, 6)
        makespans = []
        for m in range(7):
            plan = build_schedule(
                rmat_partitions, perf_model, 6, forced_combo=(m, 6 - m)
            )
            makespans.append(plan.estimated_makespan)
        assert chosen.estimated_makespan <= max(makespans)

    def test_cycle_estimates_match_task_sums(self, rmat_partitions, perf_model):
        plan = build_schedule(rmat_partitions, perf_model, 6)
        for tasks, est in zip(plan.little_tasks, plan.little_cycle_estimates):
            assert est == pytest.approx(
                sum(t.estimated_cycles for t in tasks)
            )


#: sha256 prefixes of :func:`_plan_fingerprint` on the ``rmat_partitions``
#: fixture, recorded before classification and the dense cluster's window
#: cuts shared one Little cost pass; keyed by (forced combo, window edges).
PLAN_FINGERPRINTS = {
    (None, 1024): "844fdf11d1dd1250",
    (None, 64): "0e6a1f77c3f8c2ea",
    ((0, 6), 1024): "57b1074535f42a09",
    ((0, 6), 64): "e139d8688ee075d1",
    ((1, 5), 1024): "8d295983781e7b7d",
    ((1, 5), 64): "a4e1b9e9fd99a45a",
    ((2, 4), 1024): "612905be83b50c42",
    ((2, 4), 64): "424a43a1db829578",
    ((3, 3), 1024): "844fdf11d1dd1250",
    ((3, 3), 64): "0e6a1f77c3f8c2ea",
    ((4, 2), 1024): "0de1b42d751f6196",
    ((4, 2), 64): "1e6e5bec59fcbf74",
    ((5, 1), 1024): "c719ebbf7bef16b6",
    ((5, 1), 64): "be252a9c6d52defe",
    ((6, 0), 1024): "8623a689e5bf812f",
    ((6, 0), 64): "26bfddd81c397168",
}


def _plan_fingerprint(plan):
    """Digest of a plan's decisions: combo, dense/sparse split, and every
    task's pipeline and edge slices.  Estimates are checked exactly
    against the model instead, so the pin does not depend on the last
    bits of the host's least-squares calibration."""
    tasks = []
    for pipe, task in plan.iter_tasks():
        parts = task.partitions if isinstance(task, BigTask) else [
            task.partition
        ]
        tasks.append([
            pipe,
            [[p.index, p.num_edges, int(p.src[0]), int(p.dst[0])]
             for p in parts if p.num_edges],
        ])
    doc = [plan.accelerator.label, plan.dense_indices,
           plan.sparse_indices, tasks]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16]


class TestSharedLittleCostPass:
    """Reusing the Little cost arrays leaves every plan bit-identical."""

    @pytest.mark.parametrize("key", sorted(PLAN_FINGERPRINTS, key=str))
    def test_plan_identical_to_recorded(
        self, rmat_partitions, perf_model, key
    ):
        combo, window_edges = key
        plan = build_schedule(
            rmat_partitions,
            perf_model,
            6,
            forced_combo=combo,
            window_edges=window_edges,
        )
        assert _plan_fingerprint(plan) == PLAN_FINGERPRINTS[key]
        # Every estimate equals a fresh enumeration of the task's edges,
        # which is how each was computed before the costs were shared.
        for pipe, task in plan.iter_tasks():
            if isinstance(task, BigTask):
                fresh = perf_model.estimate_big_group(
                    [p.src for p in task.partitions]
                )
            else:
                fresh = perf_model.estimate_little_execution(
                    task.partition.src
                )
            assert task.estimated_cycles == fresh, pipe

    def test_classification_estimates_equal_fresh_enumeration(
        self, rmat_partitions, perf_model
    ):
        parts = rmat_partitions.nonempty()
        costs = [perf_model.edge_costs_little(p.src) for p in parts]
        shared = classify_partitions(parts, perf_model, costs)
        assert shared == classify_partitions(parts, perf_model)
        assert shared[2] == [
            perf_model.estimate_partition(p, "little") for p in parts
        ]
