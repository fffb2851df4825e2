"""Installation self-check: a small correctness matrix.

``verify_installation()`` runs every registered application on small
synthetic graphs through the full simulated system and compares results
against the independent reference implementations — the function a user
runs once after installing to confirm the stack computes correct answers
on their machine.  Exposed on the CLI as ``python -m repro selfcheck``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.apps.reference import (
    bfs_reference,
    closeness_reference,
    pagerank_reference,
    sssp_reference,
    wcc_reference,
)
from repro.arch.config import PipelineConfig
from repro.check.oracles import _component_canonical
from repro.core.framework import ReGraph
from repro.graph.generators import power_law_graph, rmat_graph


@dataclass(frozen=True)
class CheckResult:
    """One matrix cell's outcome."""

    name: str
    passed: bool
    detail: str


def _check(name: str, condition: bool, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=bool(condition), detail=detail)


def _same_partition(labels_a: np.ndarray, labels_b: np.ndarray) -> bool:
    """Whether two labelings induce the same partition into groups."""
    return labels_a.shape == labels_b.shape and np.array_equal(
        _component_canonical(labels_a), _component_canonical(labels_b)
    )


def verify_installation(verbose: bool = False) -> List[CheckResult]:
    """Run the correctness matrix; returns per-check results."""
    results: List[CheckResult] = []
    rng = np.random.default_rng(99)
    graphs = {
        "rmat": rmat_graph(10, 8, seed=2, name="selfcheck-rmat"),
        "powerlaw": power_law_graph(
            1500, 12_000, exponent=1.8, seed=3, name="selfcheck-pl"
        ),
    }

    for gname, graph in graphs.items():
        framework = ReGraph(
            "U280",
            pipeline=PipelineConfig(gather_buffer_vertices=256),
            num_pipelines=4,
        )
        pre = framework.preprocess(graph)
        try:
            pre.plan.validate(expected_edges=graph.num_edges)
            results.append(_check(f"{gname}/plan", True))
        except ValueError as exc:
            results.append(_check(f"{gname}/plan", False, str(exc)))
            continue

        pr = framework.run_pagerank(pre, max_iterations=8)
        ref = pagerank_reference(graph, iterations=pr.iterations)
        err = float(np.max(np.abs(pr.result - ref)))
        results.append(
            _check(f"{gname}/pagerank", err < 1e-3, f"max err {err:.2e}")
        )

        bfs = framework.run_bfs(pre, root=0)
        ok = np.array_equal(bfs.props, bfs_reference(graph, 0))
        results.append(_check(f"{gname}/bfs", ok))

        close = framework.run_closeness(pre, root=0)
        expected = closeness_reference(graph, 0)
        results.append(
            _check(
                f"{gname}/closeness",
                abs(close.result - expected) < 1e-9,
                f"{close.result:.4f} vs {expected:.4f}",
            )
        )

        from repro.apps.wcc import WeaklyConnectedComponents, symmetrized

        sym = symmetrized(graph)
        pre_sym = framework.preprocess(sym)
        wcc = framework.run(pre_sym, WeaklyConnectedComponents)
        # Label values are relabelled vertex IDs, so compare the
        # *partition into components*, not the representative choices.
        ok = _same_partition(wcc.props, wcc_reference(sym))
        results.append(_check(f"{gname}/wcc", ok))

        from repro.apps.sssp import SingleSourceShortestPaths

        weighted = graph.with_weights(
            rng.integers(1, 32, graph.num_edges)
        )
        pre_w = framework.preprocess(weighted)
        root_internal = pre_w.to_internal_vertex(0)
        sssp = framework.run(
            pre_w, lambda g: SingleSourceShortestPaths(g, root=root_internal)
        )
        ok = np.array_equal(sssp.props, sssp_reference(weighted, 0))
        results.append(_check(f"{gname}/sssp", ok))

    if verbose:
        for r in results:
            status = "ok " if r.passed else "FAIL"
            print(f"[{status}] {r.name} {r.detail}")
    return results


def all_passed(results: List[CheckResult]) -> bool:
    """Whether every check in the matrix passed."""
    return all(r.passed for r in results)
