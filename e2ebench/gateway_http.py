"""gateway-http: the wall-clock serving path over real sockets.

``repro serve`` runs in a subprocess (started by
``e2ebench/serve_launcher.py``) with a fsync'd SQLite store and traffic
recording.  One single-process asyncio client drives it on at most two
connections: an open-loop submit lane at a fixed offered rate, with
about 5% idempotent resubmissions, and a status-poll lane at a fixed
poll interval.  Jobs are the soak generator's mix with a lower fault
fraction.  After the fixed-rate phase, an up-down staircase of offered
rates on a second server finds ``max_rate_at_slo``.  This is the only workload that exercises HTTP,
admission, the durable ack, SQLite and the traffic bundle; submits
(writes) interleave with polls and resubmits (reads).

Every request is timed from its due time, so a stalled lane charges
the wait to the requests behind it; how late the generator itself ran
is reported as ``loadgen.late_p99_ms``.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from e2ebench.common import Context, Outcome, edge_bytes, plan_metrics
from e2ebench.fleet_soak import (
    PLAN_SAMPLE,
    _executed_graphs,
    _sample_plans,
    seeded_stream,
)
from e2ebench.stats import (
    cpu_seconds,
    median,
    peak_rss_mb,
    percentile,
    sha256_json,
)
from e2ebench.tracing import load_dump, per_layer_metrics

HOST = "127.0.0.1"
API_KEY = "demo-key"
LAUNCHER = Path(__file__).resolve().parent / "serve_launcher.py"
ROOT = LAUNCHER.parent.parent

FIXED_RATE = 15.0
POLL_INTERVAL = 0.01
RESUBMIT_FRACTION = 0.05
FAULT_FRACTION = 0.2
#: Result-latency objective of ``max_rate_at_slo`` (p99, milliseconds).
SLO_MS = 250.0
#: Up-down staircase behind ``max_rate_at_slo``: each step offers its
#: rate for ``STEP_SECONDS``; a step meeting the SLO raises the next
#: step's rate, a step missing it lowers it -- by the factor
#: ``STAIR_GROWTH`` until the first reversal, so the knee is found
#: within a few steps whatever the host's speed (it moved 2.5x over
#: one afternoon), then by ``STAIR_FINE`` of the rate at that reversal.
STAIR_START = 40.0
STAIR_GROWTH = 1.25
STAIR_FINE = 0.08
STAIR_STEPS = 12
STEP_SECONDS = 2.5
SETUP_LAUNCHES = 3
DRAIN_TIMEOUT = 30.0
#: Pending jobs at which a staircase step stops offering load: half the
#: default tenant pending cap (64), so overload never turns into 429s.
ABORT_BACKLOG = 32
READY_TIMEOUT = 60.0
TERMINAL = ("completed", "failed", "rejected")


class Server:
    """One ``repro serve`` subprocess with its own store and bundle."""

    def __init__(self, ctx: Context, name: str, traced: bool = False):
        self.store = ctx.workdir / f"{name}.sqlite"
        self.record = ctx.workdir / f"{name}.traffic.jsonl"
        self.spans = ctx.workdir / f"{name}.spans.json" if traced else None
        cmd = [sys.executable, "-u", str(LAUNCHER)]
        if traced:
            cmd += ["--spans", str(self.spans), "--run-id", ctx.run_id]
        cmd += ["--", "serve", "--host", HOST, "--port", "0",
                "--store", str(self.store), "--record", str(self.record)]
        self.lines: List[str] = []
        self.port: Optional[int] = None
        self._bound = threading.Event()
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        # Drains stdout for the server's lifetime, so it never blocks
        # on a full pipe, and picks the bound port off the banner.
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self._wait_ready()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line.rstrip("\n"))
            if line.startswith("serving on http://"):
                self.port = int(line.split()[2].rsplit(":", 1)[1])
                self._bound.set()
        self._bound.set()

    def _wait_ready(self) -> None:
        """Block until ``/v1/health`` answers 200."""
        deadline = time.perf_counter() + READY_TIMEOUT
        if not self._bound.wait(READY_TIMEOUT) or self.port is None:
            raise RuntimeError(
                "repro serve did not start: " + " | ".join(self.lines[-5:])
            )
        while time.perf_counter() < deadline:
            try:
                status, _ = self.call("GET", "/v1/health")
            except OSError:
                status = 0
            if status == 200:
                return
            time.sleep(0.005)
        raise RuntimeError("repro serve never became healthy")

    def call(self, method: str, path: str, timeout: float = DRAIN_TIMEOUT):
        """A synchronous control-plane request: (status, JSON body)."""
        conn = http.client.HTTPConnection(HOST, self.port, timeout=timeout)
        try:
            conn.request(method, path,
                         headers={"Authorization": f"Bearer {API_KEY}"})
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            conn.close()

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait for the exit code."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=DRAIN_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            code = -9
        self._reader.join(timeout=5)
        return code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join(timeout=5)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            self.kill()


# ----------------------------------------------------------------------
# The open-loop client
# ----------------------------------------------------------------------
async def _request(port: int, method: str, path: str,
                   body: Optional[dict] = None):
    """One HTTP/1.1 request on a fresh connection: (status, JSON body)."""
    data = json.dumps(body).encode() if body is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
        f"Authorization: Bearer {API_KEY}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode()
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        writer.write(head + data)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    status_line, _, rest = raw.partition(b"\r\n")
    _, _, payload = rest.partition(b"\r\n\r\n")
    return int(status_line.split()[1]), json.loads(payload or b"{}")


@dataclass
class Phase:
    """What one offered-rate phase observed."""

    rate: float
    ack_ms: List[float] = field(default_factory=list)
    result_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    #: Acknowledged jobs still not terminal when the submit window ended.
    backlog: int = 0
    first_due: float = 0.0
    last_done: float = 0.0
    completed: int = 0
    #: The submit lane stopped early because the backlog kept growing.
    aborted: bool = False
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def result_p99_ms(self) -> float:
        return percentile(self.result_ms, 99) if self.result_ms else math.inf

    def meets_slo(self) -> bool:
        """p99 within the objective and no growing backlog: at most the
        jobs that arrived within the last SLO window may be pending."""
        allowed = self.rate * SLO_MS / 1e3 + 1
        return (
            not self.errors
            and not self.aborted
            and self.result_p99_ms <= SLO_MS
            and self.backlog <= allowed
        )


async def _run_phase(port: int, rate: float, payloads: List[dict],
                     rng: random.Random) -> Phase:
    """Offer ``payloads`` at ``rate`` jobs/s and follow them to the end."""
    phase = Phase(rate=rate)
    start = time.perf_counter() + 0.05
    schedule = []
    for i, payload in enumerate(payloads):
        due = start + i / rate
        schedule.append((due, False, payload))
        if i >= 2 and rng.random() < RESUBMIT_FRACTION:
            earlier = payloads[rng.randrange(i)]
            schedule.append((due + 0.5 / rate, True, earlier))
    schedule.sort(key=lambda item: item[0])
    phase.first_due = start
    give_up = schedule[-1][0] + DRAIN_TIMEOUT
    outstanding: Dict[str, float] = {}
    submit_done = asyncio.Event()

    def fail(what: str) -> None:
        phase.failed += 1
        phase.errors.append(what)

    async def submit_lane() -> None:
        for due, resubmit, payload in schedule:
            if len(outstanding) > ABORT_BACKLOG:
                # The step already failed on backlog; stop before the
                # gateway's tenant pending cap starts refusing work.
                phase.aborted = True
                break
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.perf_counter()
            phase.late_ms.append((sent - due) * 1e3)
            phase.attempted += 1
            job_id = payload["job_id"]
            try:
                status, body = await _request(port, "POST", "/v1/jobs",
                                              payload)
            except OSError as exc:
                fail(f"submit {job_id}: {exc!r}")
                continue
            acked = time.perf_counter()
            if status != 202 or bool(body.get("duplicate")) != resubmit:
                fail(f"submit {job_id}: HTTP {status} {body}")
                continue
            if not resubmit:
                phase.ack_ms.append((acked - due) * 1e3)
                outstanding[job_id] = due
        phase.backlog = len(outstanding)
        submit_done.set()

    async def poll_lane() -> None:
        tick = start
        while True:
            now = time.perf_counter()
            tick = max(tick + POLL_INTERVAL, now)
            await asyncio.sleep(tick - now)
            for job_id, due in list(outstanding.items()):
                phase.attempted += 1
                try:
                    status, body = await _request(
                        port, "GET", f"/v1/jobs/{job_id}"
                    )
                except OSError as exc:
                    fail(f"poll {job_id}: {exc!r}")
                    continue
                if status != 200:
                    fail(f"poll {job_id}: HTTP {status}")
                    continue
                if body.get("status") in TERMINAL:
                    done = time.perf_counter()
                    del outstanding[job_id]
                    phase.result_ms.append((done - due) * 1e3)
                    phase.last_done = done
                    if body["status"] == "completed":
                        phase.completed += 1
                    else:
                        fail(f"job {job_id} ended {body['status']}")
            if submit_done.is_set():
                if not outstanding:
                    return
                if time.perf_counter() > give_up:
                    for job_id in outstanding:
                        fail(f"job {job_id} never reached a terminal status")
                    return

    await asyncio.gather(submit_lane(), poll_lane())
    return phase


def _max_rate(phases: List[Phase]) -> float:
    """Staircase estimate of the highest rate meeting the SLO.

    The mean offered rate over the second half of the steps, by which
    the staircase oscillates around the rate where half the steps meet
    the objective.  Near that knee one step's pass or fail is a coin
    toss on this noisy a host: the first failing step of a rising ladder
    moved the figure by ~25% run to run, and averaging from the first
    reversal on still carried an early unlucky failure.  Without any
    reversal the last rate offered is reported (a lower bound).
    """
    passed = [p.meets_slo() for p in phases]
    if len(set(passed)) == 1:
        return phases[-1].rate
    tail = phases[len(phases) // 2:]
    return sum(p.rate for p in tail) / len(tail)


def _staircase(port: int, seed: int, rng: random.Random, steps: int,
               seconds: float) -> List[Phase]:
    """Warm the fresh server up at the fixed rate, then climb and fall."""
    warm = asyncio.run(_run_phase(
        port, FIXED_RATE, _payloads(seed, int(FIXED_RATE), prefix="warm-"),
        rng,
    ))
    rate = STAIR_START
    phases = [warm]
    fine = None
    for k in range(steps):
        jobs = _payloads(seed, int(rate * seconds), prefix=f"step{k}-")
        phase = asyncio.run(_run_phase(port, rate, jobs, rng))
        passed = phase.meets_slo()
        if fine is None and k and passed != phases[-1].meets_slo():
            fine = STAIR_FINE * rate
        phases.append(phase)
        if fine is None:
            rate = rate * STAIR_GROWTH if passed else rate / STAIR_GROWTH
        else:
            rate = rate + fine if passed else max(rate - fine, fine)
    return phases


def _payloads(seed: int, count: int, prefix: str = "") -> List[dict]:
    """The soak mix with fewer faults, as a seeded order of a fixed
    population (see :func:`e2ebench.fleet_soak.seeded_stream`); every
    phase gets its own population, so each phase's work is the same on
    every seed.  ``prefix`` keeps job ids unique across phases."""
    _, stream = seeded_stream(seed, count, fault_fraction=FAULT_FRACTION)
    payloads = [job.to_dict() for job in stream]
    for payload in payloads:
        payload["job_id"] = prefix + payload["job_id"]
    return payloads


def _drain_and_check(outcome: Outcome, server: Server, label: str,
                     replay: bool = True):
    """Drain and stop the server; every acknowledged job must have
    finished.  With ``replay`` the drained digest must also equal a
    replay of the recorded traffic bundle; returns the replayed session
    and the server's admission sheds and CPU seconds."""
    from repro.serving.traffic import replay_traffic

    status, health = server.call("GET", "/v1/health")
    outcome.check(status == 200, f"{label}: health HTTP {status}")
    shed = sum(v for k, v in health["admission"].items()
               if k.startswith("shed_"))
    status, summary = server.call("POST", "/v1/drain")
    outcome.check(status == 200 and summary.get("drained"),
                  f"{label}: drain failed: HTTP {status} {summary}")
    outcome.check(not summary.get("outstanding"),
                  f"{label}: acknowledged jobs never finished: "
                  f"{summary.get('outstanding')}")
    cpu = cpu_seconds(server.proc.pid)
    code = server.stop()
    outcome.check(code == 0, f"{label}: repro serve exited {code}")
    if not replay:
        return None, {"shed": shed, "cpu": cpu}
    session, _ = replay_traffic(server.record)
    replayed = session.digest()
    outcome.check(
        replayed == summary.get("digest"),
        f"{label}: drained digest {summary.get('digest')} != replayed "
        f"{replayed}",
    )
    outcome.digests[f"{label}_drained"] = summary.get("digest", "")
    return session, {"shed": shed, "cpu": cpu}


def _sim_stats(outcome: Outcome, session, count: int) -> dict:
    """Simulated figures of the fixed-rate phase's jobs.

    They are the first ``count`` jobs the session served, and the kernel
    runs jobs strictly in acceptance order, so these figures depend on
    the seed only.
    """
    report = session.report()
    served = report.jobs[:count]
    ids = {r.job_id for r in served}
    completed = [r for r in served if r.status == "completed"]
    by_id = {job.job_id: job for job in session.served_jobs[:count]}
    graphs = _executed_graphs([by_id[r.job_id] for r in completed])
    traversed = sum(graphs[r.job_id].num_edges * r.iterations
                    for r in completed)
    makespan = max(r.finish_time for r in served)
    outcome.sim = {
        "virtual_makespan_s": makespan,
        "sim_mteps": traversed / makespan / 1e6,
        "completed": len(completed),
        "assignment_digest": sha256_json(
            [a.to_dict() for a in report.assignments if a.job_id in ids]
        ),
        "results_digest": sha256_json([r.to_dict() for r in served]),
    }
    return {"report": report, "completed": completed, "graphs": graphs,
            "makespan": makespan}


def _account(outcome: Outcome, phase: Phase, label: str) -> None:
    outcome.attempted += phase.attempted
    outcome.failed += phase.failed
    for error in phase.errors[:5]:
        outcome.problems.append(f"{label}: {error}")


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    seconds = 2.0 if ctx.quick else ctx.seconds
    n_fixed = int(FIXED_RATE * seconds)
    fixed_jobs = _payloads(ctx.seed, n_fixed)
    outcome.digests["input_payloads"] = sha256_json(fixed_jobs)
    rng = random.Random(ctx.seed)
    if ctx.trace:
        return _traced(ctx, outcome, fixed_jobs)

    setups = []
    for i in range(SETUP_LAUNCHES - 1):
        with Server(ctx, f"launch{i}") as probe:
            setups.append(probe.setup_s)
            probe.stop()
    with Server(ctx, "gateway") as server:
        setups.append(server.setup_s)
        fixed = asyncio.run(
            _run_phase(server.port, FIXED_RATE, fixed_jobs, rng)
        )
        rss = peak_rss_mb(server.proc.pid)
        _account(outcome, fixed, "fixed")
        session, _ = _drain_and_check(outcome, server, "gateway")

    # The staircase runs on its own server: how many jobs it offers
    # depends on host speed, which must not reach the fixed phase's
    # footprint, digest or simulated statistics.
    with Server(ctx, "staircase") as server:
        steps = _staircase(
            server.port, ctx.seed, rng,
            steps=3 if ctx.quick else STAIR_STEPS,
            seconds=1.0 if ctx.quick else STEP_SECONDS,
        )
        warm, steps = steps[0], steps[1:]
        for phase in [warm] + steps:
            # Requests failed above capacity are failed operations and
            # fail their step; they are the staircase's finding, not a
            # wrong output, so only the fixed phase must be clean.
            outcome.attempted += phase.attempted
            outcome.failed += phase.failed
        _drain_and_check(outcome, server, "staircase", replay=False)

    late_p99 = percentile(fixed.late_ms, 99)
    outcome.check(
        late_p99 <= SLO_MS,
        f"load generator fell behind: late p99 {late_p99:.1f} ms",
    )
    sim = _sim_stats(outcome, session, n_fixed)
    run_s = fixed.last_done - fixed.first_due
    outcome.end_to_end = {
        "setup_s": (median(setups), "s"),
        "run_s": (run_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "sim_mteps": (outcome.sim["sim_mteps"], "MTEPS"),
        "jobs_per_s": (fixed.completed / run_s, "jobs/s"),
        "virtual_jobs_per_s": (
            len(sim["completed"]) / sim["makespan"], "jobs/s"),
        "ack_p50_ms": (percentile(fixed.ack_ms, 50), "ms"),
        "ack_p99_ms": (percentile(fixed.ack_ms, 99), "ms"),
        "result_p50_ms": (percentile(fixed.result_ms, 50), "ms"),
        "result_p99_ms": (percentile(fixed.result_ms, 99), "ms"),
        "max_rate_at_slo": (_max_rate(steps), "jobs/s"),
    }
    outcome.host["staircase"] = [
        {"rate": p.rate, "result_p99_ms": p.result_p99_ms,
         "backlog": p.backlog, "meets_slo": p.meets_slo(),
         "errors": p.errors[:3]}
        for p in steps
    ]
    outcome.host["loadgen_late_p99_ms"] = late_p99
    return outcome


def _traced(ctx: Context, outcome: Outcome, jobs: List[dict]) -> Outcome:
    """The fixed-rate phase against an untraced and then a traced server;
    the overhead is the server CPU time per job the wrappers add."""
    cpu = {}
    for label, traced in (("untraced", False), ("traced", True)):
        with Server(ctx, label, traced=traced) as server:
            phase = asyncio.run(_run_phase(
                server.port, FIXED_RATE, jobs, random.Random(ctx.seed)
            ))
            _account(outcome, phase, label)
            session, served = _drain_and_check(outcome, server, label)
            cpu[label] = served["cpu"]
            if not traced:
                untraced = phase
    outcome.check(
        outcome.digests["untraced_drained"] == outcome.digests["traced_drained"],
        "tracing changed the gateway's drained digest",
    )
    outcome.end_to_end = {
        "ack_p50_ms": (percentile(untraced.ack_ms, 50), "ms"),
        "ack_p99_ms": (percentile(untraced.ack_ms, 99), "ms"),
        "result_p50_ms": (percentile(untraced.result_ms, 50), "ms"),
        "result_p99_ms": (percentile(untraced.result_ms, 99), "ms"),
    }
    spans, extra = load_dump(server.spans)
    sim = _sim_stats(outcome, session, len(jobs))
    counters = dict(extra["counters"])
    for name in ("failovers", "hedges", "kills"):
        counters[f"fleet.{name}"] = sim["report"].counters[name]
    from repro.chaos.fleet_soak import FleetSoakConfig

    sample = session.served_jobs[:PLAN_SAMPLE]
    counters.update(plan_metrics(_sample_plans(
        sample, _executed_graphs(sample), FleetSoakConfig()
    )))
    counters["graph.bytes"] = sum(edge_bytes(g) for g in sim["graphs"].values())
    counters["serving.shed"] = served["shed"]
    counters["loadgen.late_p99_ms"] = percentile(phase.late_ms, 99)
    counters["trace.overhead_s"] = cpu["traced"] - cpu["untraced"]
    counters["trace.overhead_ratio"] = cpu["traced"] / cpu["untraced"] - 1
    accepted = {}
    for _, _, layer, _, job, start, end in spans:
        if layer == "serving.submit" and job is not None:
            accepted.setdefault(job, end)
    waits = [
        start - accepted[job]
        for _, _, layer, _, job, start, _ in spans
        if layer == "serving.kernel" and job in accepted
    ]
    outcome.per_layer = per_layer_metrics(
        spans, counters, extra.get("compiled"),
        extra_durations={"serving.queue_wait": waits},
    )
    return outcome
