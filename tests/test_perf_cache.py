"""Tests for the content-addressed simulation cache (repro.perf).

The load-bearing property: caching is *invisible* — a cached run
produces bit-identical reports to an uncached one, and any run whose
timing depends on live fault-injector state bypasses the cache
entirely.  Plus the mechanics: LRU bound, counters, and the acceptance
floor of >50% hit rate on a 10-iteration PageRank.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.timing import PartitionTiming
from repro.errors import UserInputError
from repro.faults import FaultPlan, LatencySpikeFault
from repro.faults.resilience import CheckpointStore, ResiliencePolicy
from repro.graph.generators import rmat_graph
from repro.compiled import configure_compiled
from repro.perf import configure_cache, get_cache
from repro.perf.simcache import (
    DEFAULT_CACHE_ENTRIES,
    SimulationCache,
    config_digest_prefix,
    timing_key,
)

from tests.helpers import make_framework
from tests.strategies import (
    STRATEGY_CONFIG,
    channel_param_perturbations,
    compiled_specs,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    """Every test starts from an empty, enabled, default-sized cache."""
    configure_cache(enabled=True, max_entries=DEFAULT_CACHE_ENTRIES)
    get_cache().clear()
    yield
    configure_cache(enabled=True, max_entries=DEFAULT_CACHE_ENTRIES)
    get_cache().clear()
    configure_compiled(True)


def _timing(n: int = 1) -> PartitionTiming:
    return PartitionTiming(
        compute_cycles=float(n), store_cycles=2.0, switch_cycles=3.0,
        num_edges=n, num_sets=1,
    )


def _pagerank_report(seed: int, iterations: int = 5, **run_kwargs):
    graph = rmat_graph(11, 8, seed=seed)
    framework = make_framework()
    pre = framework.preprocess(graph)
    return framework.run_pagerank(
        pre, max_iterations=iterations, **run_kwargs
    )


class TestKeying:
    def test_key_distinguishes_dtype_and_shape(self):
        a64 = np.arange(8, dtype=np.int64)
        a32 = np.arange(8, dtype=np.int32)
        k1 = timing_key(b"p", 8, (a64,))
        k2 = timing_key(b"p", 8, (a32,))
        k3 = timing_key(b"p", 8, (a64.reshape(2, 4),))
        assert len({k1, k2, k3}) == 3

    def test_key_covers_prefix_edge_bytes_and_extra(self):
        arr = np.arange(8, dtype=np.int64)
        base = timing_key(b"p", 8, (arr,))
        assert timing_key(b"q", 8, (arr,)) != base
        assert timing_key(b"p", 12, (arr,)) != base
        assert timing_key(b"p", 8, (arr,), extra=(4,)) != base

    def test_key_stable_for_equal_content(self):
        arr = np.arange(8, dtype=np.int64)
        assert timing_key(b"p", 8, (arr,)) == timing_key(b"p", 8, (arr.copy(),))

    @given(st.lists(st.integers(0, 1 << 20), max_size=40),
           st.lists(st.integers(0, 1 << 20), max_size=40),
           st.sampled_from([8, 12]))
    @settings(max_examples=60, deadline=None)
    def test_key_is_injective_on_content(self, xs, ys, edge_bytes):
        # Equal content -> equal key; different content -> different key
        # (injectivity up to SHA-256, which is what "content-addressed"
        # promises the equivalence tests).
        a = np.asarray(xs, dtype=np.int64)
        b = np.asarray(ys, dtype=np.int64)
        ka = timing_key(b"p", edge_bytes, (a,))
        kb = timing_key(b"p", edge_bytes, (b,))
        if xs == ys:
            assert ka == kb
        else:
            assert ka != kb

    @given(spec_a=compiled_specs(), spec_b=compiled_specs())
    @settings(max_examples=60, deadline=None)
    def test_compiled_spec_digest_is_injective(self, spec_a, spec_b):
        # The compiled core keys its published cache entries off the
        # same (config, channel-params) material the spec digests; two
        # distinct device/combo/channel-param bindings must never share
        # a digest, or a compiled evaluation could serve another spec's
        # timings.
        if spec_a == spec_b:
            assert spec_a.digest() == spec_b.digest()
        else:
            assert spec_a.digest() != spec_b.digest()

    @given(
        params_a=channel_param_perturbations(),
        params_b=channel_param_perturbations(),
    )
    @settings(max_examples=60, deadline=None)
    def test_prefix_covers_channel_params(self, params_a, params_b):
        # Audit: every HbmTimingParams field reaches the key prefix, so
        # the compiled path's per-params cache publication can never
        # collide across channel variants of the same plan.
        config = STRATEGY_CONFIG
        pa = config_digest_prefix("little", config, params_a)
        pb = config_digest_prefix("little", config, params_b)
        assert (pa == pb) == (params_a == params_b)
        assert config_digest_prefix("big", config, params_a) != pa

    def test_contains_probe_does_not_count(self):
        cache = get_cache()
        cache.put("k", _timing())
        stats_before = cache.stats()
        assert cache.contains("k")
        assert not cache.contains("missing")
        stats_after = cache.stats()
        assert stats_after["hits"] == stats_before["hits"]
        assert stats_after["misses"] == stats_before["misses"]


class TestLruBound:
    def test_eviction_keeps_bound_and_counts(self):
        cache = SimulationCache(max_entries=3)
        for i in range(5):
            cache.put(f"k{i}", _timing(i))
        assert len(cache) == 3
        assert cache.evictions == 2
        assert cache.get("k0") is None  # oldest evicted
        assert cache.get("k4") is not None

    def test_get_refreshes_recency(self):
        cache = SimulationCache(max_entries=2)
        cache.put("a", _timing())
        cache.put("b", _timing())
        cache.get("a")  # now b is LRU
        cache.put("c", _timing())
        assert cache.get("b") is None
        assert cache.get("a") is not None

    def test_shrinking_global_bound_evicts(self):
        cache = get_cache()
        for i in range(10):
            cache.put(f"k{i}", _timing(i))
        configure_cache(max_entries=4)
        assert len(cache) == 4

    def test_invalid_bound_rejected(self):
        with pytest.raises(UserInputError):
            SimulationCache(max_entries=0)
        with pytest.raises(UserInputError):
            configure_cache(max_entries=0)

    def test_disabled_cache_is_inert(self):
        cache = SimulationCache(enabled=False)
        cache.put("a", _timing())
        assert cache.get("a") is None
        assert len(cache) == 0


class TestMergeAndStats:
    def test_stats_snapshot(self):
        cache = SimulationCache(max_entries=8)
        cache.put("a", _timing())
        cache.get("a")
        cache.get("zzz")
        cache.note_bypass()
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["bypasses"] == 1
        assert stats["entries"] == 1 and stats["max_entries"] == 8

    def test_hit_rate_zero_before_lookups(self):
        assert SimulationCache().hit_rate == 0.0


class TestConcurrentStagingNames:
    """Temp names must be per-call unique, so two workers (or one
    process saving twice concurrently) never collide on one staging
    file and clobber each other's bytes mid-write."""

    def _staged_names(self, save, final, monkeypatch, times=2):
        import repro.faults.resilience as resilience_mod

        names = []
        real_replace = resilience_mod.os.replace

        def spy(src, dst):
            names.append(str(src))
            return real_replace(src, dst)

        monkeypatch.setattr("os.replace", spy)
        for _ in range(times):
            save(final)
        return names

    def test_checkpoint_store_unique_tmp_names(self, tmp_path, monkeypatch):
        import os

        store = CheckpointStore()
        store.save(0, np.zeros(4, dtype=np.int64), 0.0)
        names = self._staged_names(
            store.to_file, tmp_path / "cp.npz", monkeypatch
        )
        assert len(set(names)) == 2
        assert all(f".tmp-{os.getpid()}-" in n for n in names)


class TestCacheTransparency:
    """Cached and uncached execution must be indistinguishable."""

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_cached_run_identical_to_uncached(self, seed):
        configure_cache(enabled=False)
        cold = _pagerank_report(seed)
        configure_cache(enabled=True)
        get_cache().clear()
        warm1 = _pagerank_report(seed)  # populates the cache
        warm2 = _pagerank_report(seed)  # served largely from it
        assert get_cache().hits > 0
        for run in (warm1, warm2):
            assert run.iterations == cold.iterations
            assert run.total_cycles == cold.total_cycles
            assert run.converged == cold.converged
            np.testing.assert_array_equal(run.props, cold.props)

    def test_hit_rate_above_half_on_ten_iteration_pagerank(self):
        # The >50% floor is an interpreted-path property: every
        # iteration's per-task lookups hit the entries the first one
        # published.  A fully compiled run performs no per-task lookups
        # at all (the point of the compiled functional pass), so its
        # hit rate is vacuous — pin the floor on the interpreted walk.
        configure_compiled(False)
        _pagerank_report(3, iterations=10)
        cache = get_cache()
        assert cache.hits + cache.misses > 0
        assert cache.hit_rate > 0.5
        assert len(cache) > 0

    def test_compiled_run_seeds_entries_without_per_task_lookups(self):
        # The compiled counterpart of the floor above: a compiled run
        # publishes the per-task entries (so later interpreted callers
        # hit) while issuing no per-task gets of its own.
        _pagerank_report(3, iterations=10)
        cache = get_cache()
        assert len(cache) > 0
        assert cache.hits == 0

    def test_fault_injected_run_bypasses_cache(self):
        # One long latency spike keeps a timing fault active, so every
        # timing call must go around the cache (neither read nor write).
        plan = FaultPlan(
            seed=5,
            latency_spikes=(LatencySpikeFault(
                channel=0, onset_cycle=0.0, duration_cycles=1e12,
                multiplier=4.0,
            ),),
        )
        _pagerank_report(
            3, fault_plan=plan, resilience=ResiliencePolicy()
        )
        cache = get_cache()
        assert cache.bypasses > 0
        # The handful of cached calls are the resilience layer's *clean*
        # makespan predictions (no fault site attached); every call on
        # the faulted datapath went around the cache.
        assert cache.bypasses > cache.hits + cache.misses

    def test_clean_entries_unpolluted_by_faulted_run(self):
        clean = _pagerank_report(3)
        cache = get_cache()
        entries_before = dict(cache._entries)
        plan = FaultPlan(
            seed=5,
            latency_spikes=(LatencySpikeFault(
                channel=0, onset_cycle=0.0, duration_cycles=1e12,
                multiplier=4.0,
            ),),
        )
        _pagerank_report(3, fault_plan=plan, resilience=ResiliencePolicy())
        assert dict(cache._entries) == entries_before
        rerun = _pagerank_report(3)
        assert rerun.total_cycles == clean.total_cycles
        np.testing.assert_array_equal(rerun.props, clean.props)
