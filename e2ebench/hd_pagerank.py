"""hd-pagerank: the paper-scale single run.

Full-scale HD stand-in (``load_dataset("HD", 1.0, seed)``: 1,984,484
vertices, 14,869,484 edges), preprocessed by ``ReGraph("U280")`` (a
13L1B plan), then PageRank for a fixed ``ITERATIONS`` driven through
``SystemSimulator.iteration_timing`` / ``functional_iteration``.  The
iteration count is fixed so it never depends on the app's convergence
test.  The graph and scheduling layers do the set-up work, the compiled
core does the run; fleet, fault and serving layers stay idle (their
control).

Each repetition sets up from scratch (load + preprocess) and runs once,
so ``setup_s`` and ``run_s`` are medians over repetitions.
"""

from __future__ import annotations

import gc
import time

from e2ebench.common import (
    Context,
    Outcome,
    assignment_digest,
    edge_bytes,
    plan_metrics,
)
from e2ebench.stats import (
    median,
    peak_rss_mb,
    percentile,
    sha256_arrays,
)
from e2ebench.tracing import Tracer, per_layer_metrics, top_level_seconds

ITERATIONS = 10
MIN_REPS = 3
MAX_REPS = 5


def _setup(seed: int, scale: float):
    """Graph load + preprocess: everything before the first unit of work."""
    from repro.core.framework import ReGraph
    from repro.graph import datasets

    t0 = time.perf_counter()
    graph = datasets.load_dataset("HD", scale, seed)
    framework = ReGraph("U280")
    pre = framework.preprocess(graph)
    return graph, framework, pre, time.perf_counter() - t0


def _execute(framework, pre):
    """Lower the plan, iterate, apply: the output in input vertex order.

    Returns ``(result, iteration_reports, frequency_mhz, lower_s,
    run_s)``; ``lower_s`` is when the compiled core has accepted the
    plan (the run's acknowledgement).
    """
    from repro.apps.pagerank import PageRank
    from repro.compiled import plan_engine
    from repro.compiled.functional import functional_engine
    from repro.core.system import SystemSimulator

    t0 = time.perf_counter()
    plan_engine(pre.plan)
    functional_engine(pre.plan)
    t1 = time.perf_counter()
    sim = SystemSimulator(pre.plan, framework.platform, framework.channel)
    app = PageRank(pre.graph)
    props = app.init_props()
    reports = []
    for _ in range(ITERATIONS):
        reports.append(sim.iteration_timing(pre.graph.num_vertices))
        props = sim.functional_iteration(app, props)
    result = pre.to_original_order(app.finalize(props))
    t2 = time.perf_counter()
    return result, reports, sim.frequency_mhz, t1 - t0, t2 - t0


def _check(outcome: Outcome, graph, result) -> None:
    """Iteration-matched reference within the fixed-point bound."""
    import numpy as np

    from repro.apps import reference
    from repro.check.tolerances import DEFAULT_BANDS

    ref = reference.pagerank_reference(graph, iterations=ITERATIONS)
    atol = DEFAULT_BANDS.pagerank_atol(
        graph.out_degrees().max() if graph.num_edges else 1, ITERATIONS
    )
    err = float(np.max(np.abs(result - ref)))
    outcome.check(
        err <= atol,
        f"pagerank: max |rank - ref| = {err:.3e} > atol {atol:.3e}",
    )


def run(ctx: Context) -> Outcome:
    import repro.apps.pagerank  # noqa: F401  (imports count as set-up)
    import repro.compiled  # noqa: F401
    import repro.core.framework  # noqa: F401
    import repro.graph.datasets  # noqa: F401

    import_s = ctx.since_start()
    scale = 0.02 if ctx.quick else 1.0
    outcome = Outcome()
    setups, lowers, runs, walls, digests = [], [], [], [], []
    tracer = Tracer(ctx.run_id, record=False, delays=ctx.delays)
    # A traced run times one untraced repetition, then one traced one.
    reps_wanted = 2 if ctx.trace else MIN_REPS
    measured = 0.0
    rep = 0
    while rep < reps_wanted or (
        not ctx.trace and measured < ctx.seconds and rep < MAX_REPS
    ):
        if ctx.trace and rep == 1:
            tracer = Tracer(ctx.run_id, record=True, delays=ctx.delays)
        tracer.install()
        try:
            t0 = time.perf_counter()
            graph, framework, pre, setup_s = _setup(ctx.seed, scale)
            result, reports, mhz, lower_s, run_s = _execute(framework, pre)
            t1 = time.perf_counter()
            if ctx.corrupt:
                result = result.copy()
                result[0] += 1.0
            if rep == reps_wanted - 1:
                _check(outcome, graph, result)
        finally:
            tracer.uninstall()
        measured += t1 - t0
        walls.append(t1 - t0)
        setups.append(setup_s)
        lowers.append(lower_s)
        runs.append(run_s)
        digests.append(sha256_arrays([result]))
        outcome.attempted += 1
        if rep == 0:
            # Later repetitions can only add allocator slack to the
            # process peak; the first is the cold run a user gets.
            rss = peak_rss_mb()
            outcome.digests["input_edges"] = sha256_arrays(
                [graph.src, graph.dst]
            )
            cycles = reports[-1].total_cycles
            sim_seconds = sum(r.total_cycles for r in reports) / (mhz * 1e6)
            edges = pre.plan.total_edges() * ITERATIONS
            outcome.sim = {
                "accelerator": pre.plan.accelerator.label,
                "cycles_per_iteration": cycles,
                "iterations": ITERATIONS,
                "sim_seconds": sim_seconds,
                "sim_mteps": edges / sim_seconds / 1e6,
                "virtual_makespan_s": sim_seconds,
                "assignment_digest": assignment_digest(pre.plan),
            }
        if ctx.trace and rep == 1:
            traced_plan = plan_metrics([pre.plan])
            traced_bytes = edge_bytes(pre.graph)
        del graph, framework, pre, result
        gc.collect()
        rep += 1

    outcome.digests["output"] = digests[0]
    outcome.check(
        len(set(digests)) == 1,
        f"pagerank output differs across repetitions: {sorted(set(digests))}",
    )
    if outcome.problems:
        outcome.failed = 1
    sim = outcome.sim
    outcome.host["run_s"] = runs
    outcome.host["setup_s"] = setups
    outcome.end_to_end = {
        "setup_s": (import_s + median(setups), "s"),
        "run_s": (median(runs), "s"),
        "peak_rss_mb": (rss, "MB"),
        "sim_mteps": (sim["sim_mteps"], "MTEPS"),
        "jobs_per_s": (1.0 / median(runs), "jobs/s"),
        "virtual_jobs_per_s": (1.0 / sim["sim_seconds"], "jobs/s"),
        "ack_p50_ms": (median(lowers) * 1e3, "ms"),
        "ack_p99_ms": (percentile(lowers, 99) * 1e3, "ms"),
        "result_p50_ms": (median(runs) * 1e3, "ms"),
        "result_p99_ms": (percentile(runs, 99) * 1e3, "ms"),
        "max_rate_at_slo": (1.0 / median(runs), "jobs/s"),
    }
    if not ctx.trace:
        return outcome

    from repro.compiled import compiled_stats

    spans = tracer.spans
    counters = dict(tracer.counters)
    counters.update(traced_plan)
    counters["graph.bytes"] = traced_bytes
    counters["trace.overhead_s"] = walls[1] - walls[0]
    counters["trace.overhead_ratio"] = walls[1] / walls[0] - 1
    start = min(s[5] for s in spans)
    reference_start = min(
        s[5] for s in spans if s[2] == "apps.reference"
    )
    counters["trace.coverage"] = (
        top_level_seconds(spans, start, reference_start) / walls[1]
    )
    outcome.per_layer = per_layer_metrics(spans, counters, compiled_stats())
    return outcome
