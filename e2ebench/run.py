"""Run one benchmark workload in this (fresh) process.

    python3 e2ebench/run.py --workload hd-pagerank --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no layer wrappers
installed; ``--trace 1`` is the separate traced run that reports the
per-layer metrics and the tracing overhead.  Human-readable lines come
first; the last stdout line is the JSON result.  ``--out FILE`` also
writes the full record (metrics, simulated statistics, digests) that
``e2ebench/compare.py`` compares across commits.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {
    "hd-pagerank": "e2ebench.hd_pagerank",
    "fleet-soak": "e2ebench.fleet_soak",
    "gateway-http": "e2ebench.gateway_http",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the measured phase runs")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", default=None, metavar="FILE",
                   help="also write the full JSON record here")
    # Self-test hooks (e2ebench/tests); the benchmark never sets them.
    p.add_argument("--quick", action="store_true",
                   help="shrunken inputs for the self-tests")
    p.add_argument("--inject-delay", action="append", default=[],
                   metavar="LAYER=SECONDS",
                   help="negative control: sleep inside every call of LAYER")
    p.add_argument("--corrupt-output", action="store_true",
                   help="negative control: damage the checked output")
    return p.parse_args(argv)


def _delays(specs):
    delays = {}
    for spec in specs:
        layer, _, seconds = spec.partition("=")
        delays[layer] = float(seconds)
    return delays


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program source {ROOT / 'src' / 'repro'} not found; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import importlib

    from e2ebench.common import Context

    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir = ROOT / ".e2ebench_work" / run_id
    workdir.mkdir(parents=True)
    ctx = Context(
        started=STARTED,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        workdir=workdir,
        run_id=run_id,
        quick=args.quick,
        delays=_delays(args.inject_delay),
        corrupt=args.corrupt_output,
    )
    # SIGTERM unwinds like an exception, so the servers and start-up
    # processes a workload started are stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        outcome = importlib.import_module(WORKLOADS[args.workload]).run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    # BENCHMARK.json decides which figures each kind of run reports.
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    available = {**outcome.end_to_end, **outcome.per_layer}
    metrics = {
        spec["name"]: available[spec["name"]]
        for spec in bench["per_layer" if args.trace else "end_to_end"]
    }
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    rate = outcome.failed / max(outcome.attempted, 1)
    print(f"  error_rate = {rate:.6g} ratio "
          f"({outcome.failed} of {outcome.attempted} operations)")
    for key, value in outcome.sim.items():
        print(f"  sim.{key} = {value}")
    for key, value in outcome.digests.items():
        print(f"  digest.{key} = {value}")
    for key, value in outcome.host.items():
        print(f"  host.{key} = {value}")
    print("simulated statistics: model unvalidated against hardware; "
          "no hardware error figure is given")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    if args.out:
        record = dict(result, workload=args.workload, seed=args.seed,
                      trace=args.trace, sim=outcome.sim,
                      digests=outcome.digests, host=outcome.host,
                      problems=outcome.problems)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
