"""Content-addressed cache of partition-timing results.

A :class:`~repro.arch.timing.PartitionTiming` is a *pure function* of

* the pipeline kind and its frozen :class:`~repro.arch.config.PipelineConfig`,
* the frozen :class:`~repro.hbm.channel.HbmTimingParams` of the channel,
* the edge record width (8 B plain / 12 B weighted), and
* the edge content handed to the datapath (merged sources, and for the
  Big pipeline the per-edge lane assignment and lane count),

so the cache keys on a SHA-256 over exactly those inputs and nothing
else.  Dann et al. (arXiv:2104.07776) make the underlying observation —
the per-partition memory access pattern is determined by the partition's
edge structure — and LightningSimV2 (arXiv:2404.09471) demonstrates the
speedup model: simulate the invariant structure once, reuse it
everywhere.  Identical executions recur constantly here: every
functional iteration re-times the same partitions, retries replay them,
sweeps and chaos cells regenerate the same seeded graphs, and fleet
replicas of one device type serve the same plans.

**Fault bypass.**  An active timing fault (latency spike, stall, dead
channel degradation) makes the result depend on injector state, not
content.  Such calls *bypass* the cache — they neither read nor write —
mirroring the iteration-cache rule in
:meth:`repro.core.system.SystemSimulator._timing_pass`.  A fault plan
that is merely *attached* but has no timing fault active produces
fault-free numbers, so those calls cache normally and share entries
with clean runs.

The process-global instance (:func:`get_cache`) is what the pipeline
simulators consult; :func:`configure_cache` (usually via
:meth:`repro.perf.config.PerfConfig.apply`) bounds or disables it.  It
lives in one process only: nothing is persisted or shared.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.arch.timing import PartitionTiming
from repro.errors import UserInputError

#: Default LRU bound; at ~100 B per entry this is a few hundred KB.
DEFAULT_CACHE_ENTRIES = 4096


def config_digest_prefix(kind: str, config, params) -> bytes:
    """Digest prefix binding a cache key to one simulator configuration.

    ``config`` and ``params`` are frozen dataclasses, whose ``repr``
    deterministically spells every field — any config change (PE counts,
    buffer sizes, latency constants) changes the prefix and therefore
    every key derived from it.
    """
    return repr((kind, config, params)).encode()


def timing_key(
    prefix: bytes,
    edge_bytes: int,
    arrays: Iterable[np.ndarray],
    extra: Tuple = (),
) -> str:
    """SHA-256 key over one execution's content.

    ``arrays`` is the edge content (dtype + shape + bytes are all
    hashed, so an int32/int64 relabel can never alias); ``extra`` holds
    scalar identity not captured by the arrays (e.g. the Big pipeline's
    lane count).
    """
    h = hashlib.sha256()
    h.update(prefix)
    h.update(repr((int(edge_bytes),) + tuple(extra)).encode())
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(str(array.dtype).encode())
        h.update(str(array.shape).encode())
        h.update(array.tobytes())
    return h.hexdigest()


class SimulationCache:
    """Bounded LRU of ``key -> PartitionTiming`` with usage counters."""

    def __init__(
        self,
        max_entries: int = DEFAULT_CACHE_ENTRIES,
        enabled: bool = True,
    ):
        if max_entries < 1:
            raise UserInputError(
                f"cache needs max_entries >= 1, got {max_entries}"
            )
        self.max_entries = int(max_entries)
        self.enabled = bool(enabled)
        self._entries: "OrderedDict[str, PartitionTiming]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bypasses = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- core ----------------------------------------------------------
    def get(self, key: str) -> Optional[PartitionTiming]:
        """Cached timing for ``key``, or ``None`` (counted as a miss)."""
        if not self.enabled:
            return None
        timing = self._entries.get(key)
        if timing is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return timing
        self.misses += 1
        return None

    def put(self, key: str, timing: PartitionTiming) -> None:
        """Insert/refresh an entry, evicting least-recently-used ones."""
        if not self.enabled:
            return
        self._entries[key] = timing
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def contains(self, key: str) -> bool:
        """Presence probe that counts as neither hit nor miss.

        Used by the compiled evaluator to avoid re-publishing entries it
        already seeded without distorting the hit-rate counters real
        lookups produce.
        """
        return self.enabled and key in self._entries

    def note_bypass(self) -> None:
        """Record one call that skipped the cache (active timing fault)."""
        self.bypasses += 1

    def clear(self) -> None:
        """Drop all entries and reset every counter."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bypasses = 0

    # -- reporting -----------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> dict:
        """Counter snapshot for CLI/report surfaces."""
        return {
            "enabled": self.enabled,
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "bypasses": self.bypasses,
        }


#: Process-global instance the pipeline simulators consult.  Worker
#: processes forked by :func:`repro.perf.parallel.parallel_map` inherit
#: the parent's entries at fork time for free.
_GLOBAL = SimulationCache()


def get_cache() -> SimulationCache:
    """The process-global simulation cache."""
    return _GLOBAL


def configure_cache(
    enabled: Optional[bool] = None,
    max_entries: Optional[int] = None,
) -> SimulationCache:
    """Reconfigure the global cache in place; returns it.

    Shrinking ``max_entries`` evicts down to the new bound immediately.
    """
    cache = _GLOBAL
    if enabled is not None:
        cache.enabled = bool(enabled)
        if not cache.enabled:
            cache._entries.clear()
    if max_entries is not None:
        if max_entries < 1:
            raise UserInputError(
                f"cache needs max_entries >= 1, got {max_entries}"
            )
        cache.max_entries = int(max_entries)
        while len(cache._entries) > cache.max_entries:
            cache._entries.popitem(last=False)
            cache.evictions += 1
    return cache
