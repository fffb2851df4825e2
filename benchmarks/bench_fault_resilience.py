"""Fault-resilience benchmark: throughput degradation vs injected faults.

Sweeps PageRank on one skewed bench graph across escalating fault
scenarios — clean, a bit-flip rate, a latency-spike burst, and a dead
channel forcing degradation — and reports the effective MTEPS (useful
edges over *total* simulated cycles, overhead included) plus what the
resilient layer absorbed.  The clean scenario doubles as the
zero-overhead check: it must reproduce the fault-free cycle count
exactly.

Besides the human-readable table, the sweep persists a machine-readable
``results/BENCH_resilience.json`` (schema ``regraph-bench-resilience/v1``,
the ``BENCH_fleet.json`` precedent): per-scenario MTEPS, degradation
ratio vs clean, and the absorbed-fault accounting regression dashboards
diff across commits.
"""

import json
from pathlib import Path

from repro.faults import (
    BitFlipFault,
    DeadChannelFault,
    FaultPlan,
    LatencySpikeFault,
)
from repro.reporting import format_table, write_report

from conftest import bench_framework

PR_ITERATIONS = 10

#: Versioned machine-readable output (the BENCH_fleet.json twin).
BENCH_RESILIENCE_SCHEMA = "regraph-bench-resilience/v1"
BENCH_RESILIENCE_JSON = (
    Path(__file__).parent / "results" / "BENCH_resilience.json"
)

#: (label, FaultPlan) scenarios, mildest first.
SCENARIOS = (
    ("clean", FaultPlan()),
    ("flips 2%", FaultPlan(
        seed=11, bit_flips=(BitFlipFault(probability=0.02),),
    )),
    ("spike 16x", FaultPlan(
        seed=11, latency_spikes=(LatencySpikeFault(
            channel=0, duration_cycles=120_000.0, multiplier=16.0,
        ),),
    )),
    ("dead channel", FaultPlan(
        seed=11, dead_channels=(DeadChannelFault(
            channel=0, onset_cycle=10_000.0,
        ),),
    )),
)


def test_fault_resilience_overhead(benchmark, datasets):
    fw = bench_framework("U280", num_pipelines=6)
    pre = fw.preprocess(datasets["HD"])
    baseline = fw.run_pagerank(pre, max_iterations=PR_ITERATIONS)
    results = {}

    def run_all():
        results.clear()
        for label, plan in SCENARIOS:
            results[label] = fw.run_pagerank(
                pre, max_iterations=PR_ITERATIONS, fault_plan=plan
            )
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for label, run in results.items():
        health = run.health
        rows.append([
            label,
            f"{run.mteps:,.0f}",
            f"{run.mteps / baseline.mteps:.2f}x",
            str(health.fault_count),
            str(health.retries),
            str(health.replans),
            f"{health.overhead_fraction:.0%}",
            health.final_label,
        ])
    text = format_table(
        ["scenario", "MTEPS", "vs clean", "faults", "retries",
         "re-plans", "overhead", "final"],
        rows,
        title="PR throughput under injected faults (resilient runtime)",
    )
    write_report("fault_resilience", text)

    # Zero-fault resilience costs exactly nothing.
    clean = results["clean"]
    assert clean.total_cycles == baseline.total_cycles
    # Every scenario still converges to the same fixed point.
    for label, run in results.items():
        assert run.converged, label
    # Every faulted scenario injects something and pays for it: a
    # bit-flip rate that draws no flip would measure the clean run.
    for label, plan in SCENARIOS:
        if plan.bit_flips:
            assert results[label].health.fault_count >= 1, label
            assert results[label].mteps < clean.mteps, label
    assert results["spike 16x"].total_cycles > clean.total_cycles
    assert results["dead channel"].health.replans >= 1

    # The versioned machine-readable record (regraph-bench-resilience/v1).
    payload = {
        "schema": BENCH_RESILIENCE_SCHEMA,
        "app": "pagerank",
        "dataset": "HD",
        "iterations": PR_ITERATIONS,
        "baseline_mteps": baseline.mteps,
        "scenarios": {
            label: {
                "mteps": run.mteps,
                "vs_clean": run.mteps / baseline.mteps,
                "faults": run.health.fault_count,
                "retries": run.health.retries,
                "replans": run.health.replans,
                "overhead_fraction": run.health.overhead_fraction,
                "final_label": run.health.final_label,
                "converged": run.converged,
            }
            for label, run in results.items()
        },
    }
    BENCH_RESILIENCE_JSON.parent.mkdir(parents=True, exist_ok=True)
    with open(BENCH_RESILIENCE_JSON, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    data = json.loads(BENCH_RESILIENCE_JSON.read_text())
    assert data["schema"] == BENCH_RESILIENCE_SCHEMA
    assert data["scenarios"]["clean"]["vs_clean"] == 1.0
    print(f"BENCH_resilience.json: {len(data['scenarios'])} scenarios, "
          f"clean {data['baseline_mteps']:,.0f} MTEPS")
