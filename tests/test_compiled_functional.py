"""Differential harness: compiled functional pass + trace synthesis.

The compiled functional engine folds every destination's updates with
one segment reduction per iteration; its contract is the same as the
compiled timing core's — *bit-identity* with the interpreted oracle,
not approximate agreement.  Every RunReport digest and every final
property array must match the per-task interpreted walk exactly, across
both devices, every registered app and all graph families; synthesized
traces must carry events equal to the interpreted re-simulation and
pass the conformance invariants verbatim.

Tier-1 keeps a representative slice; the ``slow`` marker carries the
full device × app × family sweep plus hypothesis properties.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.compiled import (
    compiled_stats,
    configure_compiled,
    functional_engine,
    lower_functional_plan,
    reset_compiled_stats,
)
from repro.arch.trace import trace_plan
from repro.check.invariants import check_trace
from repro.core.framework import ReGraph
from repro.faults import BitFlipFault, FaultInjector, FaultPlan
from repro.faults.resilience import ResiliencePolicy
from repro.hbm.channel import HbmChannelModel

from tests.helpers import make_framework, make_pipeline_config
from tests.strategies import channel_param_perturbations
from tests.test_compiled_equivalence import (
    ALL_APPS,
    DEVICES,
    dispatch,
    family_graph,
    run_both_paths,
    run_report_digest,
)


@pytest.fixture(autouse=True)
def fresh_state():
    """Each test starts with compiled ON and zeroed counters, and leaves
    the process-global switch at its default."""
    configure_compiled(True)
    reset_compiled_stats()
    yield
    configure_compiled(True)
    reset_compiled_stats()


# ---------------------------------------------------------------------------
# Tier-1: representative slice of the matrix
# ---------------------------------------------------------------------------
class TestFunctionalEquivalence:
    @pytest.mark.parametrize("app", ALL_APPS)
    def test_every_app_digest_and_props_identical(self, app):
        graph = family_graph("rmat", weighted=(app == "sssp"))
        compiled, interpreted = run_both_paths(app, "U280", graph)
        assert run_report_digest(compiled) == run_report_digest(interpreted)
        np.testing.assert_array_equal(compiled.props, interpreted.props)
        assert compiled.props.dtype == interpreted.props.dtype

    @pytest.mark.parametrize("family", ("rmat", "powerlaw", "uniform"))
    def test_every_graph_family_digest_identical(self, family):
        graph = family_graph(family)
        compiled, interpreted = run_both_paths("pagerank", "U50", graph)
        assert run_report_digest(compiled) == run_report_digest(interpreted)
        np.testing.assert_array_equal(compiled.props, interpreted.props)

    @pytest.mark.parametrize("device", DEVICES)
    def test_both_devices_digest_identical(self, device):
        graph = family_graph("powerlaw")
        compiled, interpreted = run_both_paths("bfs", device, graph)
        assert run_report_digest(compiled) == run_report_digest(interpreted)
        np.testing.assert_array_equal(compiled.props, interpreted.props)

    def test_routing_counters_attribute_each_pass(self):
        graph = family_graph("rmat")
        framework = make_framework()
        run = framework.run_pagerank(graph, max_iterations=5)
        stats = compiled_stats()
        assert stats["functional_plans"] == 1
        assert stats["functional_iterations"] == run.iterations
        assert stats["functional_fallbacks"] == 0
        configure_compiled(False)
        framework.run_pagerank(graph, max_iterations=3)
        assert compiled_stats()["functional_fallbacks"] > 0

    def test_structure_lowered_once_and_reused(self):
        framework = make_framework()
        pre = framework.preprocess(family_graph("rmat"))
        engine = functional_engine(pre.plan)
        assert functional_engine(pre.plan) is engine
        fplan = lower_functional_plan(pre.plan)
        assert fplan.num_edges == pre.plan.total_edges()
        assert fplan.starts[0] == 0
        assert np.all(np.diff(fplan.starts) > 0)
        assert np.all(np.diff(fplan.dst) > 0)


class TestFaultFallback:
    def test_active_bit_flip_routes_interpreted_on_both_paths(self):
        # An open bit-flip window owns the injector RNG, so compiled and
        # interpreted runs must both take the interpreted functional
        # walk — and therefore corrupt, retry and converge identically.
        plan = FaultPlan(
            seed=13,
            bit_flips=(
                BitFlipFault(probability=0.05, detectable=True),
            ),
        )
        graph = family_graph("rmat")
        compiled, interpreted = run_both_paths(
            "pagerank", "U280", graph,
            fault_plan=plan, resilience=ResiliencePolicy(),
        )
        assert run_report_digest(compiled) == run_report_digest(interpreted)
        assert compiled.health.to_dict() == interpreted.health.to_dict()

    def test_silent_flip_digest_identical(self):
        plan = FaultPlan(
            seed=29,
            bit_flips=(
                BitFlipFault(probability=0.1, detectable=False),
            ),
        )
        graph = family_graph("uniform")
        compiled, interpreted = run_both_paths(
            "pagerank", "U280", graph,
            fault_plan=plan, resilience=ResiliencePolicy(),
        )
        assert run_report_digest(compiled) == run_report_digest(interpreted)
        np.testing.assert_array_equal(compiled.props, interpreted.props)

    def test_fallback_counter_increments_while_fault_active(self):
        plan = FaultPlan(
            seed=13,
            bit_flips=(BitFlipFault(probability=0.05),),
        )
        graph = family_graph("rmat")
        framework = make_framework()
        framework.run_pagerank(
            graph, max_iterations=4,
            fault_plan=plan, resilience=ResiliencePolicy(),
        )
        stats = compiled_stats()
        assert stats["functional_fallbacks"] > 0

    def test_inactive_windows_do_not_trip_the_gate(self):
        injector = FaultInjector(FaultPlan(
            seed=1,
            bit_flips=(
                BitFlipFault(probability=0.0),
                BitFlipFault(probability=0.5, onset_cycle=1e12),
            ),
        ))
        assert not injector.functional_faults_active()
        injector.now = 2e12
        assert injector.functional_faults_active()


class TestTraceSynthesis:
    def _plan_and_framework(self, family="rmat", device="U280"):
        framework = make_framework(platform=device)
        pre = framework.preprocess(family_graph(family))
        return framework, pre

    @pytest.mark.parametrize("device", DEVICES)
    def test_events_equal_interpreted_resimulation(self, device):
        framework, pre = self._plan_and_framework(device=device)
        channel = HbmChannelModel()
        synthesized = trace_plan(pre.plan, channel)
        configure_compiled(False)
        interpreted = trace_plan(pre.plan, channel)
        assert synthesized.events == interpreted.events
        assert synthesized.makespan == interpreted.makespan

    def test_synthesized_trace_passes_conformance_invariants(self):
        framework, pre = self._plan_and_framework(family="powerlaw")
        channel = HbmChannelModel()
        trace = trace_plan(pre.plan, channel)
        violations = check_trace(
            trace,
            plan=pre.plan,
            platform=framework.platform,
            channel=channel,
        )
        assert violations == []

    def test_routing_counters(self):
        _, pre = self._plan_and_framework()
        channel = HbmChannelModel()
        trace_plan(pre.plan, channel)
        assert compiled_stats()["traces_synthesized"] == 1
        configure_compiled(False)
        trace_plan(pre.plan, channel)
        stats = compiled_stats()
        assert stats["traces_synthesized"] == 1
        assert stats["traces_interpreted"] == 1

    def test_faulty_channel_always_interpreted(self):
        # A live fault site makes task timings depend on mutable
        # injector state; synthesizing from the compiled memo would
        # freeze that state, so such channels must re-simulate.
        _, pre = self._plan_and_framework()
        injector = FaultInjector(FaultPlan(seed=3))
        channel = HbmChannelModel(fault_site=injector)
        trace_plan(pre.plan, channel)
        stats = compiled_stats()
        assert stats["traces_synthesized"] == 0
        assert stats["traces_interpreted"] == 1


# ---------------------------------------------------------------------------
# Slow: the full matrix + properties
# ---------------------------------------------------------------------------
@pytest.mark.slow
class TestFullMatrix:
    @pytest.mark.parametrize("device", DEVICES)
    @pytest.mark.parametrize("app", ALL_APPS)
    @pytest.mark.parametrize("family", ("rmat", "powerlaw", "uniform"))
    def test_digest_and_props_identical(self, device, app, family):
        graph = family_graph(family, weighted=(app == "sssp"))
        compiled, interpreted = run_both_paths(app, device, graph)
        assert run_report_digest(compiled) == run_report_digest(interpreted)
        np.testing.assert_array_equal(compiled.props, interpreted.props)


@pytest.mark.slow
class TestProperties:
    @given(params=channel_param_perturbations())
    @settings(max_examples=15, deadline=None)
    def test_digest_identical_under_any_channel_params(self, params):
        # Channel parameters steer timing, never the functional result;
        # both must still agree bit-for-bit between the paths.
        graph = family_graph("rmat")
        reports = []
        for compiled in (True, False):
            configure_compiled(compiled)
            framework = ReGraph(
                "U280",
                pipeline=make_pipeline_config(),
                channel=HbmChannelModel(params),
            )
            reports.append(
                dispatch(framework, "pagerank", graph, max_iterations=6)
            )
        configure_compiled(True)
        assert run_report_digest(reports[0]) == run_report_digest(reports[1])
        np.testing.assert_array_equal(reports[0].props, reports[1].props)

    @given(params=channel_param_perturbations())
    @settings(max_examples=15, deadline=None)
    def test_synthesized_trace_equal_under_any_channel_params(self, params):
        framework = make_framework()
        pre = framework.preprocess(family_graph("uniform"))
        channel = HbmChannelModel(params)
        synthesized = trace_plan(pre.plan, channel)
        configure_compiled(False)
        interpreted = trace_plan(pre.plan, channel)
        assert synthesized.events == interpreted.events
