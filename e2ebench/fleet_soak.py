"""fleet-soak: per-job overhead of the replica-pool runtime.

A ``generate_jobs`` population of ``JOBS`` small jobs in seeded order
(256-1024 vertices; all five apps on rmat, powerlaw and uniform graphs;
about half with injected faults, a third with deadlines) is handed to
``FleetRuntime.run`` as one batch with virtual-clock arrivals, on a
2xU280 + 2xU50 pool with a fsync'd ``JobJournal`` and ``ResultStore``.
One replica is killed while it runs the middle job, which forces a
failover.  Placement probes, oracle validation, fault-active passes and
durable appends do nearly all the work; graph and scheduling layers at
scale do almost none.

Every repetition rebuilds the pool, runtime, journal and store and
clears the process-wide simulation cache, so each one is the cold run a
``repro fleet run`` user gets.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from e2ebench.common import Context, Outcome, edge_bytes, plan_metrics
from e2ebench.stats import (
    median,
    peak_rss_mb,
    percentile,
    sha256_json,
)
from e2ebench.tracing import Tracer, per_layer_metrics, top_level_seconds

JOBS = 200
#: Generator seed of the job population (``--seed`` orders it).
POPULATION_SEED = 2022
REPLICAS = ("U280", "U280", "U50", "U50")
MIN_REPS = 2
#: Distinct job graphs preprocessed for the plan-shape figures.
PLAN_SAMPLE = 8


def _imports() -> None:
    """Everything a soak imports, including the runtime's lazy imports."""
    import repro.apps.registry  # noqa: F401
    import repro.apps.wcc  # noqa: F401
    import repro.chaos.campaign  # noqa: F401
    import repro.chaos.fleet_soak  # noqa: F401
    import repro.chaos.oracles  # noqa: F401
    import repro.compiled  # noqa: F401
    import repro.faults.resilience  # noqa: F401
    import repro.fleet  # noqa: F401


def seeded_stream(seed: int, jobs: int, **config):
    """``generate_jobs`` output for a fixed population, in seeded order.

    The population comes from one fixed generator seed; ``seed`` permutes
    which job fills each arrival slot (ids and submit times stay with the
    slots).  Runs on different seeds therefore do the same total work in
    a different order, so their spread measures the host, not the luck
    of a lighter or heavier job mix (which moved the simulated metrics
    by ~15% across generator seeds).
    """
    from dataclasses import replace

    import numpy as np

    from repro.chaos.fleet_soak import FleetSoakConfig, generate_jobs

    soak = FleetSoakConfig(seed=POPULATION_SEED, jobs=jobs, **config)
    population = generate_jobs(soak)
    order = np.random.default_rng(seed).permutation(len(population))
    stream = [
        replace(population[int(j)], job_id=slot.job_id,
                submit_time=slot.submit_time)
        for slot, j in zip(population, order)
    ]
    return soak, stream


def _soak_inputs(seed: int, jobs: int):
    """The job stream and a kill that lands on an in-flight job.

    A dry run of the stream's first half finds the replica that starts
    the middle job; killing it just after that start forces a failover.
    The kill is a pure function of the seed, like the stream.
    """
    from repro.chaos.fleet_soak import build_pool
    from repro.fleet.runtime import FleetRuntime, ReplicaKill

    config, stream = seeded_stream(seed, jobs, replicas=REPLICAS)
    middle = len(stream) // 2
    dry = FleetRuntime(build_pool(config)).run(stream[: middle + 1])
    victim = next(j for j in reversed(dry.jobs) if j.replica_id)
    kill = ReplicaKill(victim.replica_id, victim.start_time + 1e-9)
    return config, stream, [kill]


def _timed_stores(stamps: Dict[str, Dict[str, float]]):
    """Journal/store subclasses that note when each job's admission and
    result became durable (the batch's per-job ack and result times)."""
    from repro.fleet.journal import JobJournal
    from repro.fleet.store import ResultStore

    class Journal(JobJournal):
        def append(self, rtype, payload):
            seq = super().append(rtype, payload)
            if rtype == "admit":
                stamps["ack"][payload["job_id"]] = time.perf_counter()
            return seq

    class Store(ResultStore):
        def put(self, result):
            written = super().put(result)
            stamps["result"].setdefault(result.job_id, time.perf_counter())
            return written

    return Journal, Store


def _executed_graphs(stream) -> Dict[str, object]:
    """job id -> the graph the runtime executes (WCC runs symmetrized)."""
    from repro.apps.wcc import symmetrized

    graphs = {}
    for job in stream:
        graph = job.graph.build()
        graphs[job.job_id] = symmetrized(graph) if job.app == "wcc" else graph
    return graphs


def _sample_plans(stream, graphs, config) -> List[object]:
    from repro.fleet.replica import make_replica

    framework = make_replica(
        "sample", "U280", buffer_vertices=config.buffer_vertices,
        num_pipelines=config.num_pipelines,
    ).handle.framework
    return [
        framework.preprocess(graphs[job.job_id]).plan
        for job in stream[:PLAN_SAMPLE]
    ]


def construct(workdir, name, journal_cls=None, store_cls=None):
    """The soak's serving state: pool, fsync'd journal and store, runtime."""
    from repro.chaos.fleet_soak import FleetSoakConfig, build_pool
    from repro.fleet.journal import JobJournal
    from repro.fleet.runtime import FleetRuntime
    from repro.fleet.store import ResultStore

    journal = (journal_cls or JobJournal)(
        Path(workdir) / f"{name}.journal", fsync=True)
    store = (store_cls or ResultStore)(
        Path(workdir) / f"{name}.results", fsync=True)
    pool = build_pool(FleetSoakConfig(replicas=REPLICAS))
    return FleetRuntime(pool, journal=journal, store=store)


#: A fresh interpreter that imports and constructs, then says so.
_STARTUP = (
    "import sys\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "from e2ebench.fleet_soak import _imports, construct\n"
    "_imports()\n"
    "construct(sys.argv[3], 'startup')\n"
    "print('ready', flush=True)\n"
)


def _startup_seconds(ctx: Context, launches: int = 3) -> float:
    """Median time from process start to ready, over fresh processes."""
    root = Path(__file__).resolve().parent.parent
    times = []
    for i in range(launches):
        workdir = ctx.workdir / f"startup{i}"
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", _STARTUP, str(root / "src"), str(root),
             str(workdir)],
            cwd=root, stdout=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        times.append(time.perf_counter() - t0)
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"soak start-up process failed: {line!r}")
    return median(times)


def _one_rep(ctx, rep, stream, kills, tracer):
    """One cold soak; returns (report, run_s, ack, result)."""
    from repro.perf.simcache import get_cache

    stamps = {"ack": {}, "result": {}}
    journal_cls, store_cls = _timed_stores(stamps)
    get_cache().clear()
    tracer.install()
    try:
        runtime = construct(ctx.workdir, f"soak{rep}", journal_cls,
                            store_cls)
        t0 = time.perf_counter()
        report = runtime.run(stream, kills=kills)
        t1 = time.perf_counter()
        runtime.journal.close()
        runtime.store.close()
    finally:
        tracer.uninstall()
    ack = [(t - t0) for t in stamps["ack"].values()]
    result = [(t - t0) for t in stamps["result"].values()]
    return report, t1 - t0, ack, result


def run(ctx: Context) -> Outcome:
    _imports()
    outcome = Outcome()
    config, stream, kills = _soak_inputs(ctx.seed, 20 if ctx.quick else JOBS)
    outcome.digests["input_jobs"] = sha256_json(
        {"jobs": [j.to_dict() for j in stream],
         "kills": [k.to_dict() for k in kills]}
    )

    runs, acks, results, digests = [], [], [], []
    untraced, traced = [], []
    traced_tracer = None
    measured = 0.0
    rep = 0
    while rep < MIN_REPS or measured < ctx.seconds:
        # A traced run alternates untraced and traced repetitions; only
        # the first traced one feeds the per-layer figures.
        record = ctx.trace and rep % 2 == 1
        tracer = Tracer(ctx.run_id, record=record, delays=ctx.delays)
        report, run_s, ack, result = _one_rep(
            ctx, rep, stream, kills, tracer
        )
        measured += run_s
        (traced if record else untraced).append(run_s)
        if record and traced_tracer is None:
            traced_tracer = tracer
        if rep == 0:
            # The first repetition's peak is the cold run a user gets;
            # later ones can only add allocator slack.
            rss = peak_rss_mb()
        runs.append(run_s)
        if not record:
            acks.extend(ack)
            results.extend(result)
        if ctx.corrupt and rep == 0:
            report.jobs[0].result_digest = "0" * 64
        digests.append(report.digest())
        outcome.attempted += len(stream)
        outcome.failed += len(stream) - sum(
            1 for j in report.jobs
            if j.status == "completed" and not j.violations
        )
        outcome.check(report.lost == 0, f"rep {rep}: {report.lost} job(s) lost")
        outcome.check(
            report.unclean == 0,
            f"rep {rep}: {report.unclean} completion(s) failed an oracle",
        )
        rep += 1

    outcome.check(
        len(set(digests)) == 1,
        f"fleet report digest differs across repetitions: {set(digests)}",
    )
    outcome.digests["report"] = digests[0]
    completed = [j for j in report.jobs if j.status == "completed"]
    graphs = _executed_graphs(stream)
    traversed = sum(
        graphs[j.job_id].num_edges * j.iterations for j in completed
    )
    outcome.sim = {
        "virtual_makespan_s": report.makespan_seconds,
        "sim_mteps": traversed / report.makespan_seconds / 1e6,
        "completed": len(completed),
        "counters": dict(report.counters),
        "assignment_digest": sha256_json(
            [a.to_dict() for a in report.assignments]
        ),
        "report_digest": digests[0],
    }
    jobs_per_s = [len(completed) / r for r in runs]
    outcome.host["run_s"] = runs
    outcome.end_to_end = {
        "setup_s": (_startup_seconds(ctx), "s"),
        "run_s": (median(runs), "s"),
        "peak_rss_mb": (rss, "MB"),
        "sim_mteps": (outcome.sim["sim_mteps"], "MTEPS"),
        "jobs_per_s": (median(jobs_per_s), "jobs/s"),
        "virtual_jobs_per_s": (
            len(completed) / report.makespan_seconds, "jobs/s"),
        "ack_p50_ms": (percentile(acks, 50) * 1e3, "ms"),
        "ack_p99_ms": (percentile(acks, 99) * 1e3, "ms"),
        "result_p50_ms": (percentile(results, 50) * 1e3, "ms"),
        "result_p99_ms": (percentile(results, 99) * 1e3, "ms"),
        "max_rate_at_slo": (median(jobs_per_s), "jobs/s"),
    }
    if not ctx.trace:
        return outcome

    from repro.compiled import compiled_stats

    tracer = traced_tracer
    counters = dict(tracer.counters)
    for name in ("failovers", "hedges", "kills"):
        counters[f"fleet.{name}"] = report.counters[name]
    counters.update(plan_metrics(_sample_plans(stream, graphs, config)))
    counters["graph.bytes"] = sum(edge_bytes(g) for g in graphs.values())
    base = median(untraced)
    counters["trace.overhead_s"] = median(traced) - base
    counters["trace.overhead_ratio"] = median(traced) / base - 1
    counters["trace.coverage"] = top_level_seconds(tracer.spans) / traced[0]
    outcome.per_layer = per_layer_metrics(
        tracer.spans, counters, compiled_stats()
    )
    return outcome
