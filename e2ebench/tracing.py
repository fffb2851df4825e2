"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``: it wraps each layer's public
functions at the name its caller looks up (a module attribute for a
function bound by ``from ... import``, a class attribute for a method)
and records one span per call.  Spans stay in memory and are written
once at the end.

A span is ``(span_id, parent_id, layer, tag, job_id, start, end)`` with
``perf_counter`` times.  The parent is the innermost open span of the
same thread or asyncio task (a context variable), so concurrent request
handlers never adopt each other's children.  A layer's *self time* is
its duration minus the part its direct children cover.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from e2ebench.stats import percentile


@dataclass(frozen=True)
class Patch:
    """One wrapped binding: ``module.attr`` (``attr`` may be ``Cls.meth``)."""

    layer: str
    module: str
    attr: str
    tag: str = ""
    #: Positional index of a job-id string argument (``self`` is 0).
    job_arg: Optional[int] = None
    is_async: bool = False
    #: Called as ``observe(tracer, return_value)`` after each call.
    observe: Optional[Callable] = None


def _observe_health(tracer: "Tracer", run) -> None:
    """Fault handling a resilient run went through (retries, re-plans)."""
    health = getattr(run, "health", None)
    if health is not None:
        tracer.count("faults.retries", health.retries)
        tracer.count("faults.degrades", health.replans)


REFERENCE_APPS = ("pagerank", "bfs", "closeness", "sssp", "wcc")

#: Every layer boundary the benchmark measures.  Functions bound at
#: import time are wrapped where the *caller* reads them: the framework
#: facade binds DBG, partitioning, calibration and scheduling; the
#: resilient executor binds scheduling for its re-plans; the chaos
#: oracles bind the reference algorithms; the compiled evaluator and the
#: incremental probe evaluator each bind ``compile_plan``.
PATCHES: Tuple[Patch, ...] = (
    Patch("graph.load", "repro.graph.datasets", "load_dataset"),
    Patch("graph.build", "repro.chaos.spec", "GraphSpec.build"),
    Patch("graph.dbg", "repro.core.framework", "degree_based_grouping"),
    Patch("graph.partition", "repro.core.framework", "partition_graph"),
    Patch("model.calibrate", "repro.core.framework",
          "calibrate_performance_model"),
    Patch("sched.schedule", "repro.core.framework", "build_schedule"),
    Patch("sched.schedule", "repro.faults.resilience", "build_schedule"),
    Patch("compiled.lower", "repro.compiled.evaluate", "compile_plan"),
    Patch("compiled.lower", "repro.compiled.incremental", "compile_plan"),
    Patch("compiled.lower", "repro.compiled.functional",
          "lower_functional_plan"),
    Patch("core.timing", "repro.core.system",
          "SystemSimulator.iteration_timing"),
    Patch("core.functional", "repro.core.system",
          "SystemSimulator.functional_iteration"),
    Patch("fleet.place", "repro.fleet.placement", "PlacementEngine.choose"),
    Patch("fleet.probe", "repro.fleet.placement",
          "PlacementEngine.predicted_seconds"),
    Patch("fleet.preprocess", "repro.fleet.placement",
          "PlacementEngine.preprocess_for"),
    Patch("fleet.journal", "repro.fleet.journal", "JobJournal.append"),
    Patch("fleet.store", "repro.fleet.store", "ResultStore.put"),
    Patch("runtime.execute", "repro.runtime.host",
          "AcceleratorHandle.execute", observe=_observe_health),
    Patch("chaos.validate", "repro.chaos.oracles", "validate_cell"),
    *(
        Patch("apps.reference", "repro.chaos.oracles", f"{app}_reference",
              tag=app)
        for app in REFERENCE_APPS
    ),
    Patch("apps.reference", "repro.apps.reference", "pagerank_reference",
          tag="pagerank"),
    Patch("serving.submit", "repro.serving.gateway", "ServingGateway.submit",
          is_async=True),
    Patch("serving.status", "repro.serving.gateway", "ServingGateway.status",
          job_arg=1),
    Patch("serving.store", "repro.serving.jobstore",
          "SqliteJobStore.append_job"),
    Patch("serving.store", "repro.serving.jobstore",
          "SqliteJobStore.put_result"),
    Patch("serving.traffic", "repro.serving.traffic",
          "TrafficRecorder.append"),
    Patch("serving.kernel", "repro.serving.session", "KernelSession.execute"),
)

#: Layers that get call count, busy self time and per-call p50/p99.
TIMED_LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    [p.layer for p in PATCHES] + ["serving.queue_wait"]
))

Span = Tuple[int, int, str, str, Optional[str], float, float]


def _job_of(args: Sequence, job_arg: Optional[int]) -> Optional[str]:
    """The job id a call is about, when its arguments name one."""
    if job_arg is not None:
        value = args[job_arg] if len(args) > job_arg else None
        return value if isinstance(value, str) else None
    for arg in args:
        if isinstance(arg, dict):
            if isinstance(arg.get("job_id"), str):
                return arg["job_id"]
            inner = arg.get("result")
            if isinstance(inner, dict) and isinstance(
                inner.get("job_id"), str
            ):
                return inner["job_id"]
            continue
        for name in ("job_id", "cell_id"):
            value = getattr(arg, name, None)
            if isinstance(value, str):
                return value
    return None


def _resolve(patch: Patch):
    module = importlib.import_module(patch.module)
    owner = module
    *path, leaf = patch.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """Installs layer wrappers and collects their spans in memory.

    ``record=False`` installs only the wrappers that carry an injected
    ``delays`` entry — the test-only negative control, which must also
    reach untraced runs.
    """

    def __init__(
        self,
        run_id: str,
        record: bool = True,
        delays: Optional[Dict[str, float]] = None,
    ):
        self.run_id = run_id
        self.record = record
        self.delays = dict(delays or {})
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "e2ebench_span", default=(0, None)
        )
        self._local = threading.local()
        self._undo: List[tuple] = []
        #: Counts observed from return values (see ``Patch.observe``).
        self.counters: Dict[str, float] = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrappers ---------------------------------------------------------
    def _enter(self, patch: Patch, args) -> tuple:
        span_id = next(self._ids)
        parent, parent_job = self._current.get()
        job = _job_of(args, patch.job_arg)
        if job is not None:
            self._local.job = job
        else:
            job = parent_job or getattr(self._local, "job", None)
        token = self._current.set((span_id, job))
        delay = self.delays.get(patch.layer)
        if delay:
            time.sleep(delay)
        return span_id, parent, job, token

    def _exit(self, patch, span_id, parent, job, token, start) -> None:
        end = time.perf_counter()
        self._current.reset(token)
        if self.record:
            self.spans.append(
                (span_id, parent, patch.layer, patch.tag, job, start, end)
            )

    def _wrap(self, patch: Patch, fn):
        if patch.is_async:
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                start = time.perf_counter()
                state = self._enter(patch, args)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._exit(patch, *state, start)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            state = self._enter(patch, args)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(patch, *state, start)
            if patch.observe is not None and self.record:
                patch.observe(self, result)
            return result

        return wrapper

    def install(self, patches: Iterable[Patch] = PATCHES) -> "Tracer":
        for patch in patches:
            if not self.record and patch.layer not in self.delays:
                continue
            owner, leaf = _resolve(patch)
            original = owner.__dict__[leaf]
            self._undo.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(patch, original))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    # -- output -----------------------------------------------------------
    def dump(self, path, **extra) -> None:
        """Write the spans (and ``extra`` JSON fields) in one document."""
        doc = dict(extra)
        doc["counters"] = self.counters
        doc["spans"] = [
            {"run": self.run_id, "id": sid, "parent": parent, "layer": layer,
             "tag": tag, "job": job, "start": start, "end": end}
            for sid, parent, layer, tag, job, start, end in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def load_dump(path) -> Tuple[List[Span], dict]:
    """Spans and extra fields written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    spans = [
        (r["id"], r["parent"], r["layer"], r["tag"], r["job"], r["start"],
         r["end"])
        for r in doc.pop("spans")
    ]
    return spans, doc


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its direct children cover."""
    covered: Dict[int, float] = {}
    for _, parent, _, _, _, start, end in spans:
        if parent:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    return {
        sid: (end - start) - covered.get(sid, 0.0)
        for sid, _, _, _, _, start, end in spans
    }


def top_level_seconds(spans: Sequence[Span], since: float = float("-inf"),
                      until: float = float("inf")) -> float:
    """Summed duration of root spans inside ``[since, until]``: the sum
    of every span's self time there, because children nest in roots."""
    return sum(
        end - start for _, parent, _, _, _, start, end in spans
        if not parent and start >= since and end <= until
    )


def layer_metrics(
    spans: Sequence[Span],
    extra_durations: Optional[Dict[str, List[float]]] = None,
) -> Dict[str, Tuple[float, str]]:
    """Call count, busy self time and per-call p50/p99 of every layer.

    ``extra_durations`` adds derived per-call samples that are not
    function calls (the gateway's queue wait).  Layers with no calls
    read 0 — on a workload that leaves a layer idle that is the point.
    """
    own = self_times(spans)
    busy: Dict[str, float] = {}
    samples: Dict[str, List[float]] = {}
    for sid, _, layer, _, _, start, end in spans:
        busy[layer] = busy.get(layer, 0.0) + own[sid]
        samples.setdefault(layer, []).append(end - start)
    for layer, values in (extra_durations or {}).items():
        busy[layer] = busy.get(layer, 0.0) + sum(values)
        samples.setdefault(layer, []).extend(values)
    out: Dict[str, Tuple[float, str]] = {}
    for layer in TIMED_LAYERS:
        values = samples.get(layer, [])
        out[f"{layer}_s"] = (busy.get(layer, 0.0), "s")
        out[f"{layer}.calls"] = (float(len(values)), "count")
        out[f"{layer}.p50_ms"] = (
            percentile(values, 50) * 1e3 if values else 0.0, "ms")
        out[f"{layer}.p99_ms"] = (
            percentile(values, 99) * 1e3 if values else 0.0, "ms")
    calls = {app: 0 for app in REFERENCE_APPS}
    for _, _, layer, tag, _, _, _ in spans:
        if layer == "apps.reference" and tag in calls:
            calls[tag] += 1
    for app, count in calls.items():
        out[f"apps.reference_calls.{app}"] = (float(count), "count")
    return out


#: Per-layer figures that are counts or ratios rather than call timings.
COUNTERS: Dict[str, str] = {
    "graph.bytes": "bytes",
    "model.rel_err": "ratio",
    "sched.partitions": "count",
    "sched.little": "count",
    "sched.big": "count",
    "compiled.fallback_ratio": "ratio",
    "fleet.probes": "count",
    "fleet.preprocess_hit_ratio": "ratio",
    "fleet.failovers": "count",
    "fleet.hedges": "count",
    "fleet.kills": "count",
    "faults.retries": "count",
    "faults.degrades": "count",
    "serving.shed": "count",
    "loadgen.late_p99_ms": "ms",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}


def per_layer_metrics(
    spans: Sequence[Span],
    counters: Dict[str, float],
    compiled: Optional[Dict[str, int]] = None,
    extra_durations: Optional[Dict[str, List[float]]] = None,
) -> Dict[str, Tuple[float, str]]:
    """The full per-layer metric set; absent counters read 0."""
    out = layer_metrics(spans, extra_durations)
    values = dict(counters)
    lookups = [s for s in spans if s[2] == "fleet.preprocess"]
    if lookups:
        # A preprocess call that ran DBG was a miss of the placement
        # engine's preprocess cache.
        dbg_parents = {s[1] for s in spans if s[2] == "graph.dbg"}
        misses = sum(1 for s in lookups if s[0] in dbg_parents)
        values["fleet.preprocess_hit_ratio"] = 1 - misses / len(lookups)
    values.setdefault("fleet.probes", out["fleet.probe.calls"][0])
    if compiled:
        interpreted = (
            compiled["functional_fallbacks"] + compiled["traces_interpreted"]
        )
        passes = (
            interpreted + compiled["functional_iterations"]
            + compiled["traces_synthesized"]
        )
        values["compiled.fallback_ratio"] = (
            interpreted / passes if passes else 0.0
        )
    for name, unit in COUNTERS.items():
        out[name] = (float(values.get(name, 0.0)), unit)
    return out
