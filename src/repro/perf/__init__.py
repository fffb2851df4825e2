"""Execution acceleration layer: parallel map and perf config.

The cycle-level simulator is the inner loop of every subsystem — the
conformance oracles, the chaos campaigns, the fleet serving runtime all
call it per partition per iteration.  This package makes those calls
fast without changing a single simulated number:

* :mod:`repro.perf.parallel` — an order-preserving
  ``ProcessPoolExecutor`` map with a serial fallback, used to fan out
  chaos cells and sweep points across cores while keeping reports
  bit-identical to a serial run.
* :mod:`repro.perf.config` — :class:`PerfConfig`, the single knob
  record (``--jobs``, ``--no-compiled``) the CLI and library entry
  points thread through.

Task timings are memoised per plan by the compiled engine
(:func:`repro.compiled.plan_engine`); this package keeps no cache of
its own.
"""

from repro.perf.config import PerfConfig
from repro.perf.parallel import parallel_map

__all__ = [
    "PerfConfig",
    "parallel_map",
]
