"""Differential oracles and the conformance runner on seed inputs.

The tentpole acceptance test lives here: ``run_conformance`` (the engine
behind ``repro check``) must pass cleanly for every app on every seed
skew class, and a report carrying a failure must say so loudly.
"""

import dataclasses

import numpy as np
import pytest

from repro.apps.wcc import symmetrized
from repro.chaos import DEFAULT_CHAOS_POLICY, CellSpec, GraphSpec
from repro.chaos.campaign import _execute, _framework
from repro.chaos.oracles import validate_cell
from repro.check import (
    ORACLE_APPS,
    ConformanceReport,
    OracleResult,
    Violation,
    functional_oracle,
    model_oracle,
    run_conformance,
    seed_graphs,
    with_random_weights,
)
from repro.errors import ConformanceError
from repro.graph.generators import rmat_graph

from tests.helpers import make_framework


@pytest.fixture(scope="module")
def framework():
    return make_framework("U280", buffer_vertices=256, num_pipelines=4)


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(9, 8, seed=2, name="oracle-rmat")


class TestSeedGraphs:
    def test_quick_suite_is_one_graph(self):
        assert len(seed_graphs(quick=True)) == 1

    def test_full_suite_spans_skew_classes(self):
        names = {g.name for g in seed_graphs()}
        assert names == {"rmat10", "pl1200", "er800"}

    def test_deterministic_for_a_seed(self):
        a, b = seed_graphs(seed=5), seed_graphs(seed=5)
        for ga, gb in zip(a, b):
            np.testing.assert_array_equal(ga.src, gb.src)
            np.testing.assert_array_equal(ga.dst, gb.dst)

    def test_with_random_weights_is_deterministic(self, graph):
        wa = with_random_weights(graph, seed=3)
        wb = with_random_weights(graph, seed=3)
        np.testing.assert_array_equal(wa.weights, wb.weights)
        assert wa.weights.min() >= 1


class TestFunctionalOracle:
    @pytest.mark.parametrize("app", ["pagerank", "bfs", "closeness", "wcc"])
    def test_app_matches_reference(self, app, graph, framework):
        result = functional_oracle(
            graph, app, framework,
            max_iterations=5 if app == "pagerank" else None,
        )
        assert result.passed, str(result)

    def test_sssp_matches_reference(self, graph, framework):
        weighted = with_random_weights(graph, seed=1)
        result = functional_oracle(weighted, "sssp", framework)
        assert result.passed, str(result)

    def test_sssp_without_weights_rejected(self, graph, framework):
        with pytest.raises(ConformanceError):
            functional_oracle(graph, "sssp", framework)

    def test_unknown_app_rejected(self, graph, framework):
        with pytest.raises(ConformanceError):
            functional_oracle(graph, "nope", framework)


# ----------------------------------------------------------------------
# Negative controls: a wrong answer must fail both result oracles
# ----------------------------------------------------------------------
UNREACHED = 2**31 - 1


def _move_one_vertex(labels):
    """Move one member of the largest component into another one."""
    values, counts = np.unique(labels, return_counts=True)
    assert values.size >= 2 and counts.max() >= 2
    biggest = values[np.argmax(counts)]
    out = labels.copy()
    out[np.flatnonzero(labels == biggest)[-1]] = values[values != biggest][0]
    return out


def _merge_two_components(labels):
    values = np.unique(labels)
    assert values.size >= 2
    out = labels.copy()
    out[labels == values[1]] = values[0]
    return out


def _one_level_off(levels):
    reached = np.flatnonzero((levels > 0) & (levels < UNREACHED))
    assert reached.size
    out = levels.copy()
    out[reached[-1]] += 1
    return out


#: case -> (app, corruption of a correct run's answer)
CORRUPTIONS = {
    "wcc-vertex-moved": (
        "wcc",
        lambda run: dataclasses.replace(
            run, props=_move_one_vertex(run.props)
        ),
    ),
    "wcc-components-merged": (
        "wcc",
        lambda run: dataclasses.replace(
            run, props=_merge_two_components(run.props)
        ),
    ),
    "bfs-level-off-by-one": (
        "bfs",
        lambda run: dataclasses.replace(run, props=_one_level_off(run.props)),
    ),
    "closeness-off-by-1e-6": (
        "closeness",
        lambda run: dataclasses.replace(run, result=run.result + 1e-6),
    ),
}


class _CorruptingFramework:
    """A real framework whose ``run*`` answers are corrupted on return."""

    def __init__(self, framework, corrupt):
        self._framework = framework
        self._corrupt = corrupt

    def __getattr__(self, name):
        attr = getattr(self._framework, name)
        if name.startswith("run"):
            return lambda *args, **kwargs: self._corrupt(attr(*args, **kwargs))
        return attr


@pytest.fixture(scope="module")
def chaos_runs():
    """app -> (cell, graph, framework, run) of one clean chaos cell."""
    runs = {}

    def get(app):
        if app not in runs:
            cell = CellSpec(
                cell_id=f"negative-{app}", device="U280", app=app,
                graph=GraphSpec(kind="rmat", vertices=512, edges=3000,
                                seed=7),
            )
            graph = cell.graph.build()
            if app == "wcc":
                graph = symmetrized(graph)
            framework = _framework(cell)
            run = _execute(cell, framework, graph, DEFAULT_CHAOS_POLICY)
            runs[app] = (cell, graph, framework, run)
        return runs[app]

    return get


class TestOraclesRejectWrongAnswers:
    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_functional_oracle_rejects(self, case, graph, framework):
        app, corrupt = CORRUPTIONS[case]
        assert functional_oracle(graph, app, framework).passed
        result = functional_oracle(
            graph, app, _CorruptingFramework(framework, corrupt)
        )
        assert not result.passed, str(result)
        assert result.max_error > 0

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_validate_cell_rejects(self, case, chaos_runs):
        app, corrupt = CORRUPTIONS[case]
        cell, graph, framework, run = chaos_runs(app)
        assert validate_cell(cell, graph, framework, run) == []
        violations = validate_cell(cell, graph, framework, corrupt(run))
        assert len(violations) == 1, violations
        assert violations[0].startswith("result:")


class TestModelOracle:
    def test_seed_plan_within_bands(self, graph, framework):
        pre = framework.preprocess(graph)
        results = model_oracle(pre.plan, framework.channel)
        assert {r.oracle for r in results} == {
            "model-vs-sim/task", "model-vs-sim/makespan"
        }
        assert all(r.passed for r in results), [str(r) for r in results]


class TestRunConformance:
    def test_quick_run_passes(self):
        report = run_conformance(
            device="U280", apps=["pagerank", "bfs"], quick=True
        )
        assert report.passed
        # 2 model results + 2 functional results on the one quick graph.
        assert report.num_checks == 4
        report.raise_on_failure()

    def test_unknown_app_rejected_before_simulation(self):
        with pytest.raises(ConformanceError):
            run_conformance(apps=["pagerank", "nope"])

    def test_custom_graphs_respected(self, graph):
        report = run_conformance(apps=["bfs"], graphs=[graph])
        assert report.passed
        assert all(graph.name in r.subject for r in report.results[2:])

    def test_tightened_bands_fail(self, graph):
        # A zero-width tolerance band must trip the model oracle: the
        # detection path, not just the happy path, is what certifies the
        # checker.
        from repro.check import DEFAULT_BANDS

        impossible = dataclasses.replace(
            DEFAULT_BANDS, model_task_rel=0.0, model_makespan_rel=0.0
        )
        report = run_conformance(
            apps=["bfs"], graphs=[graph], bands=impossible
        )
        assert not report.passed
        with pytest.raises(ConformanceError):
            report.raise_on_failure()


class TestConformanceReport:
    def test_failed_result_fails_report(self):
        report = ConformanceReport(device="U280", apps=("bfs",))
        report.results.append(OracleResult(
            "functional", "bfs@g", passed=False, max_error=3.0,
            detail="3 mismatches",
        ))
        assert not report.passed
        with pytest.raises(ConformanceError, match="bfs@g"):
            report.raise_on_failure()

    def test_violation_fails_report(self):
        report = ConformanceReport(device="U280", apps=())
        report.violations.append(
            Violation("no-overlap", "little[0]", "tasks overlap")
        )
        assert not report.passed
        assert report.rows()[-1][2] == "FAIL"

    def test_clean_report_rows_say_ok(self):
        report = ConformanceReport(device="U280", apps=("bfs",))
        report.results.append(OracleResult(
            "functional", "bfs@g", passed=True, max_error=0.0, detail="exact",
        ))
        assert report.passed
        assert report.rows() == [
            ("functional", "bfs@g", "ok", "exact")
        ]
        report.raise_on_failure()


class TestOracleAppRegistry:
    def test_cli_exposes_every_oracle_app(self):
        assert set(ORACLE_APPS) == {
            "pagerank", "bfs", "closeness", "sssp", "wcc"
        }
