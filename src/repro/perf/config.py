"""The performance-knob record every accelerated entry point accepts.

One frozen :class:`PerfConfig` travels from the CLI (``--jobs``,
``--no-sim-cache``, ``--cache-entries``, ``--no-compiled``) into
:func:`repro.chaos.campaign.run_campaign`,
:func:`repro.model.sweep.sweep_parameter` and
:func:`repro.runtime.host.init_accelerator`, which may fan work out
over ``workers`` processes, and into
:func:`repro.chaos.fleet_soak.run_fleet_soak`, whose serial event loop
takes only the cache and compiled-core settings.  The cache itself is
one in-process LRU per process.  The default is the safe identity: one
worker (fully serial) with the cache on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import UserInputError
from repro.perf.simcache import DEFAULT_CACHE_ENTRIES, configure_cache


@dataclass(frozen=True)
class PerfConfig:
    """Workers + cache knobs of one accelerated invocation."""

    #: Worker processes for :func:`repro.perf.parallel.parallel_map`;
    #: 1 means strictly serial (no pool is ever created).
    workers: int = 1
    #: Whether the content-addressed simulation cache is consulted.
    cache_enabled: bool = True
    #: LRU bound of the simulation cache.
    cache_entries: int = DEFAULT_CACHE_ENTRIES
    #: Whether fault-free timing passes use the compiled simulation
    #: core (bit-identical to the interpreted path; ``--no-compiled``
    #: is the escape hatch back to the reference oracle).
    compiled: bool = True

    def __post_init__(self):
        if self.workers < 1:
            raise UserInputError(
                f"workers must be >= 1, got {self.workers}"
            )
        if self.cache_entries < 1:
            raise UserInputError(
                f"cache_entries must be >= 1, got {self.cache_entries}"
            )

    @property
    def parallel(self) -> bool:
        """True when a worker pool would actually be used."""
        return self.workers > 1

    def apply(self) -> None:
        """Configure the process-global cache and compiled switch."""
        # Imported lazily: repro.compiled pulls in the arch simulators,
        # which import this package right back.
        from repro.compiled import configure_compiled

        configure_cache(
            enabled=self.cache_enabled,
            max_entries=self.cache_entries,
        )
        configure_compiled(self.compiled)

    def to_dict(self) -> dict:
        return {
            "workers": self.workers,
            "cache_enabled": self.cache_enabled,
            "cache_entries": self.cache_entries,
            "compiled": self.compiled,
        }

    @staticmethod
    def from_dict(data: dict) -> "PerfConfig":
        return PerfConfig(
            workers=int(data.get("workers", 1)),
            cache_enabled=bool(data.get("cache_enabled", True)),
            cache_entries=int(
                data.get("cache_entries", DEFAULT_CACHE_ENTRIES)
            ),
            compiled=bool(data.get("compiled", True)),
        )
