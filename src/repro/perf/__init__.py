"""Execution acceleration layer: cache, parallel map, perf config.

The cycle-level simulator is the inner loop of every subsystem — the
conformance oracles, the chaos campaigns, the fleet serving runtime all
call it per partition per iteration.  This package makes those calls
fast without changing a single simulated number:

* :mod:`repro.perf.simcache` — an in-process, content-addressed LRU of
  :class:`~repro.arch.timing.PartitionTiming`: partition timing is a
  pure function of (edge content, pipeline config, channel params, edge
  width), so identical executions across iterations, retries, sweeps,
  chaos cells and fleet jobs share one cached result.  It is the only
  cache tier; nothing is persisted or shared between processes.
* :mod:`repro.perf.parallel` — an order-preserving
  ``ProcessPoolExecutor`` map with a serial fallback, used to fan out
  chaos cells and sweep points across cores while keeping reports
  bit-identical to a serial run.
* :mod:`repro.perf.config` — :class:`PerfConfig`, the single knob
  record (``--jobs``, cache size, enable flags) the CLI and library
  entry points thread through.
"""

from repro.perf.config import PerfConfig
from repro.perf.parallel import parallel_map
from repro.perf.simcache import (
    DEFAULT_CACHE_ENTRIES,
    SimulationCache,
    configure_cache,
    get_cache,
)

__all__ = [
    "DEFAULT_CACHE_ENTRIES",
    "PerfConfig",
    "SimulationCache",
    "configure_cache",
    "get_cache",
    "parallel_map",
]
