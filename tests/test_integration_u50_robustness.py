"""Integration tests: U50 end-to-end, extreme channels, degenerate graphs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.reference import bfs_reference, pagerank_reference
from repro.arch.config import PipelineConfig
from repro.core.framework import ReGraph
from repro.graph.coo import Graph
from repro.hbm.channel import HbmChannelModel, HbmTimingParams


class TestU50EndToEnd:
    @pytest.fixture(scope="class")
    def framework(self):
        return ReGraph(
            "U50",
            pipeline=PipelineConfig(gather_buffer_vertices=256),
            num_pipelines=6,
        )

    def test_pagerank_correct_on_u50(self, framework, small_powerlaw):
        run = framework.run_pagerank(small_powerlaw, max_iterations=6)
        ref = pagerank_reference(small_powerlaw, iterations=run.iterations)
        assert np.max(np.abs(run.result - ref)) < 1e-3

    def test_u50_plan_is_conformant(
        self, framework, small_powerlaw, conformance
    ):
        conformance.check_run(framework.preprocess(small_powerlaw), framework)

    def test_u50_buffer_default(self):
        fw = ReGraph("U50")
        assert fw.pipeline.gather_buffer_vertices == 32_768

    def test_u50_port_limit(self, framework):
        assert framework.platform.max_total_pipelines == 12


class TestExtremeChannels:
    @pytest.mark.parametrize(
        "params",
        [
            HbmTimingParams(max_outstanding=1),
            HbmTimingParams(min_latency=4, max_latency=8),
            HbmTimingParams(min_latency=100, max_latency=400),
            HbmTimingParams(latency_per_stride_byte=0.0),
        ],
    )
    def test_pipelines_survive_channel_extremes(
        self, params, small_rmat, config
    ):
        from repro.arch.big_pipeline import BigPipelineSim
        from repro.arch.little_pipeline import LittlePipelineSim
        from repro.graph.partition import partition_graph
        from repro.graph.reorder import degree_based_grouping

        channel = HbmChannelModel(params)
        pset = partition_graph(
            degree_based_grouping(small_rmat).graph, 512
        )
        parts = pset.nonempty()[:2]
        big = BigPipelineSim(config, channel)
        little = LittlePipelineSim(config, channel)
        tb = big.execute(parts)
        tl = little.execute(parts[0])
        assert tb.total_cycles > 0 and tl.total_cycles > 0

    def test_slower_memory_never_speeds_up(self, small_rmat, config):
        from repro.arch.big_pipeline import BigPipelineSim
        from repro.graph.partition import partition_graph
        from repro.graph.reorder import degree_based_grouping

        pset = partition_graph(
            degree_based_grouping(small_rmat).graph, 512
        )
        group = pset.nonempty()[-8:]
        fast = BigPipelineSim(
            config, HbmChannelModel(HbmTimingParams(max_outstanding=32))
        )
        slow = BigPipelineSim(
            config, HbmChannelModel(HbmTimingParams(max_outstanding=2))
        )
        t_fast = fast.execute(group)
        t_slow = slow.execute(group)
        assert t_slow.total_cycles >= t_fast.total_cycles


class TestDegenerateGraphs:
    def _run_bfs(self, graph):
        fw = ReGraph(
            "U280",
            pipeline=PipelineConfig(gather_buffer_vertices=8),
            num_pipelines=2,
        )
        return fw.run_bfs(graph, root=0)

    def test_self_loops(self):
        g = Graph(4, [0, 1, 2, 0], [0, 1, 2, 1], name="loops")
        run = self._run_bfs(g)
        np.testing.assert_array_equal(run.props, bfs_reference(g, 0))

    def test_duplicate_edges(self):
        g = Graph(4, [0, 0, 0, 1], [1, 1, 1, 2], name="dups")
        run = self._run_bfs(g)
        np.testing.assert_array_equal(run.props, bfs_reference(g, 0))

    def test_single_edge_graph(self):
        g = Graph(2, [0], [1], name="one-edge")
        run = self._run_bfs(g)
        np.testing.assert_array_equal(run.props, [0, 1])

    def test_star_in_one_partition(self):
        # Every edge targets vertex 0: worst-case gather conflicts.
        g = Graph(16, list(range(1, 16)), [0] * 15, name="star")
        run = self._run_bfs(g)
        np.testing.assert_array_equal(run.props, bfs_reference(g, 0))


class TestFaultScenarios:
    """End-to-end fault injection: the accelerator still gets the
    right answer while the health report shows what was absorbed."""

    @pytest.fixture(scope="class")
    def framework(self):
        return ReGraph(
            "U50",
            pipeline=PipelineConfig(gather_buffer_vertices=256),
            num_pipelines=6,
        )

    @pytest.fixture(scope="class")
    def pre(self, framework, small_powerlaw):
        return framework.preprocess(small_powerlaw)

    def test_dead_channel_mid_run_still_converges(
        self, framework, pre, small_powerlaw
    ):
        from repro.faults import DeadChannelFault, FaultPlan

        plan = FaultPlan(seed=7, dead_channels=(
            DeadChannelFault(channel=0, onset_cycle=6000.0),
        ))
        run = framework.run_pagerank(
            pre, max_iterations=30, fault_plan=plan
        )
        assert run.converged
        health = run.health
        assert health.replans >= 1
        assert health.degraded_pipelines == ["little0"]
        assert health.initial_label != health.final_label
        ref = pagerank_reference(small_powerlaw, iterations=run.iterations)
        assert np.max(np.abs(run.result - ref)) < 1e-3

    def test_detected_bit_flips_are_retried(
        self, framework, pre, small_powerlaw
    ):
        from repro.faults import BitFlipFault, FaultPlan

        plan = FaultPlan(seed=9, bit_flips=(
            BitFlipFault(probability=0.05),
        ))
        run = framework.run_pagerank(pre, max_iterations=20, fault_plan=plan)
        clean = framework.run_pagerank(pre, max_iterations=20)
        health = run.health
        assert health.retries > 0
        assert health.checkpoint_restores == health.retries
        assert all(f.category == "bit-flip" for f in health.faults)
        # Retried iterations resume from checkpoints: the fixed point
        # is bit-identical to the fault-free run.
        np.testing.assert_array_equal(run.props, clean.props)

    def test_dead_channel_plus_flips_acceptance(
        self, framework, pre, small_powerlaw
    ):
        """The ISSUE acceptance scenario: a dead channel *and* a 1%
        detectable bit-flip rate, absorbed within 1e-3 of reference."""
        from repro.faults import BitFlipFault, DeadChannelFault, FaultPlan

        plan = FaultPlan(
            seed=7,
            dead_channels=(DeadChannelFault(channel=0, onset_cycle=6000.0),),
            bit_flips=(BitFlipFault(probability=0.01),),
        )
        run = framework.run_pagerank(pre, max_iterations=30, fault_plan=plan)
        assert run.converged
        health = run.health
        assert health.fault_count >= 2
        assert health.replans >= 1 and health.checkpoint_restores >= 1
        ref = pagerank_reference(small_powerlaw, iterations=run.iterations)
        assert np.max(np.abs(run.result - ref)) < 1e-3

    def test_degraded_pagerank_matches_reference(
        self, framework, pre, small_powerlaw
    ):
        from repro.faults import DeadChannelFault, FaultPlan

        # Kill a channel from cycle 0: the whole run executes degraded.
        plan = FaultPlan(dead_channels=(DeadChannelFault(channel=2),))
        run = framework.run_pagerank(pre, max_iterations=30, fault_plan=plan)
        assert run.health.final_label != "4L2B"
        ref = pagerank_reference(small_powerlaw, iterations=run.iterations)
        assert np.max(np.abs(run.result - ref)) < 1e-3

    def test_bfs_survives_pinned_stalls(self, framework, pre, small_powerlaw):
        from repro.faults import FaultPlan, PipelineStallFault

        plan = FaultPlan(seed=4, stalls=(
            PipelineStallFault(probability=0.2, pipeline=1),
        ))
        run = framework.run_bfs(pre, root=0, fault_plan=plan)
        ref = bfs_reference(small_powerlaw, 0)
        np.testing.assert_array_equal(run.props, ref)


class TestSchedulerProperty:
    @given(
        st.integers(10, 200),
        st.integers(20, 400),
        st.integers(1, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_plans_conserve_edges_on_random_graphs(self, n, m, pipes):
        from repro.graph.generators import erdos_renyi_graph
        from repro.graph.partition import partition_graph
        from repro.model.calibrate import calibrate_performance_model
        from repro.sched.scheduler import build_schedule

        config = PipelineConfig(gather_buffer_vertices=16)
        channel = HbmChannelModel()
        model = calibrate_performance_model(config, channel)
        graph = erdos_renyi_graph(n, m, seed=n * m)
        pset = partition_graph(graph, config.partition_vertices)
        plan = build_schedule(pset, model, pipes)
        plan.validate(expected_edges=graph.num_edges)
