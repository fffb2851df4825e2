"""Self-tests of the benchmark itself.

    python3 -m pytest e2ebench/tests -q

The workload runs use the test-only ``--quick`` inputs (a 2% HD graph,
20-job soak, a 2 s gateway phase), so the suite takes about a minute.
"""

from __future__ import annotations

import asyncio
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from e2ebench import compare  # noqa: E402
from e2ebench.gateway_http import Phase, _max_rate  # noqa: E402
from e2ebench.tracing import Patch, Tracer, self_times  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

#: Layers each workload must exercise (a wrapper patched at a binding
#: nobody calls would leave its count at 0).
MAPPED = {
    "hd-pagerank": [
        "graph.load", "graph.dbg", "graph.partition", "model.calibrate",
        "sched.schedule", "compiled.lower", "core.timing",
        "core.functional", "apps.reference",
    ],
    "fleet-soak": [
        "graph.build", "graph.dbg", "sched.schedule", "fleet.place",
        "fleet.probe", "fleet.preprocess", "fleet.journal", "fleet.store",
        "runtime.execute", "chaos.validate", "apps.reference",
        "core.timing", "core.functional", "compiled.lower",
    ],
    "gateway-http": [
        "serving.submit", "serving.store", "serving.traffic",
        "serving.status", "serving.kernel", "serving.queue_wait",
        "fleet.place", "runtime.execute", "chaos.validate",
    ],
}
#: Layers that must stay idle (their workload's control).
IDLE = {
    "hd-pagerank": ["fleet.place", "runtime.execute", "chaos.validate",
                    "serving.submit", "serving.kernel"],
    "fleet-soak": ["graph.load", "serving.submit", "serving.kernel"],
    "gateway-http": ["graph.load"],
}


def run_bench(workload, trace, out=None, *extra, seed=3, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "e2ebench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--quick", *extra]
    if out is not None:
        cmd += ["--out", str(out)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """Quick untraced and traced records of every workload."""
    base = tmp_path_factory.mktemp("records")
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            path = base / f"{workload}-t{trace}.json"
            proc = run_bench(workload, trace, path)
            assert proc.returncode == 0, proc.stderr[-2000:]
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            out[workload, trace] = (last, json.loads(path.read_text()))
    return out


# -- the contract ----------------------------------------------------------
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")


def test_benchmark_json_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["e2ebench"]
    assert 2 <= len(BENCH["workloads"]) <= 8
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in BENCH["end_to_end"])} in \
        BENCH["end_to_end"]
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    assert len(json.dumps(BENCH)) <= 64 * 1024


@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_reports_every_metric(records, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, _ = records[workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in BENCH[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == expected
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())


# -- tracing ---------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_mapped_layer_gets_spans(records, workload):
    metrics = records[workload, 1][0]["metrics"]
    for layer in MAPPED[workload]:
        assert metrics[f"{layer}.calls"]["value"] > 0, layer
        assert metrics[f"{layer}_s"]["value"] > 0, layer
    for layer in IDLE[workload]:
        assert metrics[f"{layer}.calls"]["value"] == 0, layer


def test_tracing_does_not_change_results(records):
    for workload in ("hd-pagerank", "fleet-soak"):
        untraced = records[workload, 0][1]
        traced = records[workload, 1][1]
        assert untraced["sim"] == traced["sim"]
        for key in ("output", "report"):
            if key in untraced["digests"]:
                assert untraced["digests"][key] == traced["digests"][key]
    # The traced gateway run checks its untraced and traced servers'
    # drained digests against each other (and each against a replay).
    gateway = records["gateway-http", 1][1]
    assert gateway["correct"]
    assert (gateway["digests"]["untraced_drained"]
            == gateway["digests"]["traced_drained"])


def test_self_time_subtracts_direct_children():
    spans = [
        (1, 0, "a", "", None, 0.0, 10.0),
        (2, 1, "b", "", None, 1.0, 4.0),
        (3, 2, "c", "", None, 2.0, 3.0),
        (4, 1, "b", "", None, 5.0, 6.0),
    ]
    assert self_times(spans) == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}


def test_wrappers_nest_restore_and_follow_tasks():
    import types

    module = types.ModuleType("e2ebench_fake")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    async def handler(payload):
        await asyncio.sleep(0)
        return module.inner(payload["n"])

    module.inner, module.outer, module.handler = inner, outer, handler
    sys.modules["e2ebench_fake"] = module
    patches = [Patch("t.inner", "e2ebench_fake", "inner"),
               Patch("t.outer", "e2ebench_fake", "outer"),
               Patch("t.handler", "e2ebench_fake", "handler", is_async=True)]

    async def two():
        return await asyncio.gather(
            module.handler({"job_id": "a", "n": 1}),
            module.handler({"job_id": "b", "n": 2}),
        )

    tracer = Tracer("test").install(patches)
    try:
        assert module.outer(1) == 4
        assert asyncio.run(two()) == [2, 3]
    finally:
        tracer.uninstall()
    assert module.inner is inner and module.outer is outer
    by_id = {s[0]: s for s in tracer.spans}
    outer_span = next(s for s in tracer.spans if s[2] == "t.outer")
    nested = [s for s in tracer.spans if s[1] == outer_span[0]]
    assert [s[2] for s in nested] == ["t.inner"]
    # Concurrent tasks: each inner call is parented to its own handler
    # and inherits that handler's job id.
    handled = [s for s in tracer.spans
               if s[2] == "t.inner" and by_id.get(s[1], (0,) * 3)[2]
               == "t.handler"]
    assert sorted(s[4] for s in handled) == ["a", "b"]
    assert all(s[4] == by_id[s[1]][4] for s in handled)
    del sys.modules["e2ebench_fake"]


def test_max_rate_is_the_staircase_mean_over_its_second_half():
    def step(rate, passed):
        return Phase(rate=rate, result_ms=[100.0 if passed else 900.0] * 10)

    outcomes = [(40, 1), (50, 1), (62, 0), (57, 1), (62, 0), (57, 0)]
    phases = [step(rate, ok) for rate, ok in outcomes]
    assert _max_rate(phases) == pytest.approx((57 + 62 + 57) / 3)
    # no reversal: the last rate offered, a lower bound
    assert _max_rate([step(40, 1), step(50, 1)]) == 50
    # a growing backlog fails a step even inside the latency objective
    assert not Phase(rate=40, result_ms=[100.0] * 10, backlog=50).meets_slo()


# -- negative controls -----------------------------------------------------
@pytest.mark.parametrize("workload", ["hd-pagerank", "fleet-soak"])
def test_corrupted_output_trips_the_check(workload):
    proc = run_bench(workload, 0, None, "--corrupt-output")
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert "CHECK FAILED" in proc.stdout


def test_injected_delay_is_flagged_on_its_metric(tmp_path):
    """A 20 ms sleep in every oracle validation must show as a worse
    ``jobs_per_s`` on fleet-soak, the metric chaos.validate maps to."""
    for side, extra in (("base", ()),
                        ("new", ("--inject-delay", "chaos.validate=0.02"))):
        (tmp_path / side).mkdir()
        for seed in (1, 2, 3):
            proc = run_bench("fleet-soak", 0, tmp_path / side / f"{seed}.json",
                             *extra, seed=seed)
            assert proc.returncode == 0, proc.stderr[-2000:]
    findings = compare.compare(
        compare.load_records(tmp_path / "base"),
        compare.load_records(tmp_path / "new"), BENCH,
    )
    verdicts = {f["metric"]: f["verdict"] for f in findings
                if f["kind"] == "metric"}
    assert verdicts["jobs_per_s"] == "worse"
    assert verdicts["run_s"] == "worse"
    sim = [f for f in findings if f["kind"] == "sim"]
    assert sim and all(f["identical"] for f in sim)


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("fleet-soak", 0, None, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
