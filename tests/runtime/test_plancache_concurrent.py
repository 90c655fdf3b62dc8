"""Concurrency, TTL, and long-running hygiene for the sharded cache.

These tests hammer :class:`repro.runtime.plancache.ShardedPlanCache`
from many threads: coalescing must make concurrent identical misses
compute exactly once, invalidation must leave no stale entry behind,
and a week of uptime (simulated with a fake clock) must not leak
entries or overflow counters.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.runtime.plancache import INT64_MAX, ShardedPlanCache


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0
        self._lock = threading.Lock()

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        with self._lock:
            self.now += dt


def hammer(n_threads: int, work) -> list:
    """Run ``work(i)`` on n threads simultaneously; re-raise any error."""
    barrier = threading.Barrier(n_threads)
    results: list = [None] * n_threads
    errors: list = []

    def runner(i: int) -> None:
        try:
            barrier.wait()
            results[i] = work(i)
        except Exception as exc:  # pragma: no cover - failure diagnostics
            errors.append(exc)

    threads = [threading.Thread(target=runner, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


class TestCoalescing:
    def test_concurrent_identical_misses_compute_once(self):
        cache = ShardedPlanCache("t", maxsize=64, shards=4)
        calls = []

        def compute():
            calls.append(1)
            time.sleep(0.05)  # hold the flight open so everyone piles on
            return "value"

        results = hammer(16, lambda i: cache.get_or_compute("k", compute))
        assert results == ["value"] * 16
        assert len(calls) == 1
        assert cache.coalesced == 15
        assert cache.misses == 1 and cache.hits == 0

    def test_failed_compute_propagates_to_all_waiters_then_retries_clean(self):
        cache = ShardedPlanCache("t", maxsize=64)
        boom = RuntimeError("compute exploded")

        def failing():
            time.sleep(0.05)
            raise boom

        outcomes = []

        def work(i):
            try:
                cache.get_or_compute("k", failing)
            except RuntimeError as exc:
                outcomes.append(exc)

        hammer(8, work)
        assert len(outcomes) == 8 and all(o is boom for o in outcomes)
        assert len(cache) == 0  # no residue
        # The next caller retries cleanly and succeeds.
        assert cache.get_or_compute("k", lambda: 42) == 42

    def test_distinct_keys_do_not_coalesce(self):
        cache = ShardedPlanCache("t", maxsize=64, shards=4)
        results = hammer(8, lambda i: cache.get_or_compute(("k", i), lambda: i))
        assert results == list(range(8))
        assert cache.coalesced == 0 and cache.misses == 8


class TestInvalidation:
    def test_no_stale_entry_after_invalidation(self):
        cache = ShardedPlanCache("t", maxsize=256, shards=4)
        generation = [0]

        def work(i):
            for _ in range(50):
                key = (4, i % 8)
                cache.get_or_compute(key, lambda: generation[0], ps=(4,))
        hammer(8, work)
        generation[0] = 1
        assert cache.invalidate_for(4) > 0
        # Every subsequent read recomputes at the new generation: the old
        # values are unreachable.
        for i in range(8):
            assert cache.get_or_compute((4, i), lambda: generation[0], ps=(4,)) == 1

    def test_concurrent_get_and_invalidate_stress(self):
        cache = ShardedPlanCache("t", maxsize=128, shards=8)

        def reader(i):
            for n in range(1000):
                cache.get_or_compute((i % 4, n % 32), lambda: n, ps=(i % 4,))
                cache.peek((i % 4, n % 32))

        def invalidator(i):
            for n in range(200):
                cache.invalidate_for(n % 4)
                cache.stats()

        hammer(6, lambda i: invalidator(i) if i == 5 else reader(i))
        stats = cache.stats()
        assert stats["entries"] <= 128
        assert stats["hits"] + stats["misses"] + stats["coalesced"] > 0


class TestTTL:
    def test_expired_entries_recompute_and_count(self):
        clock = FakeClock()
        cache = ShardedPlanCache("t", maxsize=16, ttl_s=10.0, clock=clock)
        assert cache.get_or_compute("k", lambda: "old") == "old"
        clock.advance(11.0)
        assert cache.get_or_compute("k", lambda: "new") == "new"
        assert cache.expirations == 1 and cache.misses == 2

    def test_peek_stale_vs_fresh(self):
        clock = FakeClock()
        cache = ShardedPlanCache("t", maxsize=16, ttl_s=10.0, clock=clock)
        cache.get_or_compute("k", lambda: "v")
        clock.advance(11.0)
        assert cache.peek("k", allow_stale=False) == (False, None)
        assert cache.peek("k", allow_stale=True) == (True, "v")

    def test_peek_touch_counts_hit_and_protects_from_eviction(self):
        cache = ShardedPlanCache("t", maxsize=2)
        cache.put("hot", 1)
        cache.put("cold", 2)
        for _ in range(5):
            assert cache.peek("hot", touch=True) == (True, 1)
        assert cache.hits == 5
        cache.put("newcomer", 3)  # evicts the low-freq entry, not "hot"
        assert cache.peek("hot") == (True, 1)
        assert cache.peek("cold") == (False, None)

    def test_evict_expired_returns_memory(self):
        clock = FakeClock()
        cache = ShardedPlanCache("t", maxsize=64, shards=4, ttl_s=5.0, clock=clock)
        for i in range(20):
            cache.get_or_compute(("k", i), lambda: i)
        clock.advance(6.0)
        for i in range(20, 24):  # fresh entries that must survive
            cache.get_or_compute(("k", i), lambda: i)
        assert cache.evict_expired() == 20
        assert len(cache) == 4
        assert cache.evict_expired() == 0  # idempotent

    def test_ttl_none_never_expires(self):
        clock = FakeClock()
        cache = ShardedPlanCache("t", maxsize=16, clock=clock)
        cache.get_or_compute("k", lambda: "v")
        clock.advance(1e9)
        assert cache.peek("k", allow_stale=False) == (True, "v")
        assert cache.evict_expired() == 0


class TestLruTieBreak:
    """Among equal-frequency entries of one shard the least recently
    used is evicted first, and every kind of touch makes a key most
    recent.  ``hash(i) == i`` for small ints, so with 4 shards the keys
    0, 4, 8, ... share shard 0 (3 slots) and 1 sits alone in shard 1."""

    @pytest.mark.parametrize(
        "touch, seed_freq",
        [
            (lambda c: c.get_or_compute(0, lambda: "WRONG"), 1),
            (lambda c: c.peek(0, touch=True), 1),
            (lambda c: c.put(0, "v0", freq=2), 2),
        ],
        ids=["hit", "peek-touch", "put-existing"],
    )
    def test_touched_key_is_evicted_last(self, touch, seed_freq):
        cache = ShardedPlanCache("t", maxsize=12, shards=4)
        cache.put(1, "other-shard")
        cache.put(0, "v0", freq=seed_freq)
        cache.put(4, "v4", freq=2)
        cache.put(8, "v8", freq=2)
        touch(cache)  # 0 now ties at freq 2 and is the most recent
        survivors = []
        for heavy in (12, 16, 20):
            cache.put(heavy, "hot", freq=10)  # evicts one freq-2 entry
            survivors.append([k for k in (0, 4, 8) if cache.peek(k)[0]])
        assert survivors == [[0, 8], [0], []]
        assert cache.peek(1) == (True, "other-shard")
        assert cache.evictions == 3

    def test_untouched_peek_keeps_order(self):
        cache = ShardedPlanCache("t", maxsize=12, shards=4)
        for key in (0, 4, 8):
            cache.put(key, key)
        assert cache.peek(0) == (True, 0)  # no touch: 0 stays least recent
        cache.put(12, "hot", freq=10)
        assert [k for k in (0, 4, 8) if cache.peek(k)[0]] == [4, 8]


class TestLongRunningStats:
    def test_reset_stats_keeps_every_entry(self):
        cache = ShardedPlanCache("t", maxsize=64, shards=4)
        for i in range(10):
            cache.get_or_compute(("k", i), lambda: i)
        cache.get_or_compute(("k", 0), lambda: 0)
        assert cache.hits == 1 and cache.misses == 10
        cache.reset_stats()
        assert cache.hits == 0 and cache.misses == 0
        assert len(cache) == 10
        # Entries survived: this is a hit, not a recompute.
        cache.get_or_compute(("k", 3), lambda: "WRONG")
        assert cache.hits == 1 and cache.peek(("k", 3)) == (True, 3)

    def test_stats_export_clamped_to_int64(self):
        cache = ShardedPlanCache("t", maxsize=4)
        cache._stats.hits = INT64_MAX + 12345
        assert cache.stats()["hits"] == INT64_MAX
        assert cache.hits == INT64_MAX + 12345  # the raw counter is not lost

    def test_hot_entries_orders_by_frequency(self):
        cache = ShardedPlanCache("t", maxsize=16, shards=2)
        cache.put("a", 1, freq=3)
        cache.put("b", 2, freq=9)
        cache.put("c", 3, freq=1)
        assert [k for k, _, _ in cache.hot_entries()] == ["b", "a", "c"]
        assert [k for k, _, _ in cache.hot_entries(limit=1)] == ["b"]

    def test_put_freq_seeds_lfu_standing(self):
        cache = ShardedPlanCache("t", maxsize=2)
        cache.put("restored-hot", 1, freq=50)
        cache.put("x", 2)
        cache.put("y", 3)  # overflow: the freq=1 entry loses, not the hot one
        assert cache.peek("restored-hot") == (True, 1)
