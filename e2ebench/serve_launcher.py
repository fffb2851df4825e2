"""Start ``repro serve``, optionally with the layer wrappers installed.

    python3 e2ebench/serve_launcher.py [--spans FILE --run-id ID] -- serve ...

The gateway's spans come from this benchmark-owned launcher: it
installs the same wrappers as the in-process workloads *before*
``HttpServer`` starts, runs the ordinary CLI entry point, and writes
the spans (plus the compiled-core counters) to ``--spans`` once the
server has drained and returned.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--spans", default=None, metavar="FILE")
    p.add_argument("--run-id", default="serve")
    p.add_argument("cli", nargs=argparse.REMAINDER,
                   help="arguments for the repro CLI, after --")
    args = p.parse_args()
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    from e2ebench.tracing import Tracer
    from repro.cli import main as repro_main

    tracer = Tracer(args.run_id) if args.spans else None
    if tracer is not None:
        tracer.install()
    try:
        code = repro_main(cli)
    finally:
        if tracer is not None:
            tracer.uninstall()
            from repro.compiled import compiled_stats

            tracer.dump(args.spans, compiled=compiled_stats())
    return code


if __name__ == "__main__":
    sys.exit(main())
