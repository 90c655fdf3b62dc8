"""Concurrency hygiene for the plan cache.

These tests hammer :class:`repro.runtime.plancache.PlanCache` from many
threads: concurrent lookups must never corrupt the LRU dict or its
counters, invalidation must leave no stale entry behind, and the size
bound must hold under contention.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.runtime.plancache import PlanCache


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
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch often so races actually interleave
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "hammer threads hung"
    if errors:
        raise errors[0]
    return results


class TestCoalescing:
    """The cache does not coalesce: its lock is never held around
    ``compute``, so every concurrent miss computes on its own."""

    def test_failed_compute_propagates_to_all_waiters_then_retries_clean(self):
        cache = PlanCache("t", maxsize=64)
        boom = RuntimeError("compute exploded")

        def failing():
            time.sleep(0.01)
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
        assert cache.misses == 8 and cache.hits == 0
        # The next caller retries cleanly and succeeds.
        assert cache.get_or_compute("k", lambda: 42) == 42

    def test_distinct_keys_do_not_coalesce(self):
        cache = PlanCache("t", maxsize=64)
        results = hammer(8, lambda i: cache.get_or_compute(("k", i), lambda: i))
        assert results == list(range(8))
        assert cache.misses == 8 and cache.hits == 0
        assert len(cache) == 8


class TestInvalidation:
    def test_no_stale_entry_after_invalidation(self):
        cache = PlanCache("t", maxsize=256)
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
        # Several short rounds: each has a fair chance of switching
        # threads inside an unlocked dict walk, so together they catch
        # a missing lock reliably.
        for _ in range(8):
            cache = PlanCache("t", maxsize=128)

            def reader(i):
                for n in range(3000):
                    key = (n % 4, n % 61)
                    got = cache.get_or_compute(key, lambda: key, ps=(n % 4,))
                    assert got == key

            def invalidator(i):
                for n in range(3000):
                    cache.invalidate_for(n % 4)
                    cache.stats()

            hammer(6, lambda i: invalidator(i) if i == 5 else reader(i))
            stats = cache.stats()
            assert stats["entries"] == len(cache) <= 128
            assert stats["hits"] + stats["misses"] == 5 * 3000
            # Every surviving entry still carries the tag it was stored with.
            assert all(ps == {key[0]} for key, (_, ps) in cache._data.items())


class TestEviction:
    def test_concurrent_overflow_keeps_the_bound(self):
        cache = PlanCache("t", maxsize=64)

        def work(i):
            for n in range(500):
                key = (i, n % 100)
                assert cache.get_or_compute(key, lambda: key) == key

        hammer(4, work)
        assert len(cache) == 64
        # Two threads missing on one key both compute it; only the
        # first insert can push an entry out.
        assert cache.evictions + len(cache) <= cache.misses
        assert cache.hits + cache.misses == 4 * 500


class TestTTL:
    def test_ttl_none_never_expires(self, monkeypatch):
        # There is no time-to-live: however far the clocks move, an entry
        # leaves only by eviction or invalidation.
        cache = PlanCache("t", maxsize=16)
        cache.get_or_compute("k", lambda: "v")
        now = time.monotonic() + 1e9
        monkeypatch.setattr(time, "monotonic", lambda: now)
        monkeypatch.setattr(time, "time", lambda: now)
        assert cache.get_or_compute("k", lambda: "WRONG") == "v"
        assert cache.hits == 1 and cache.misses == 1 and len(cache) == 1


class TestLruTieBreak:
    """Every kind of touch makes a key the most recently used, so it is
    the last of its peers to be evicted."""

    @pytest.mark.parametrize(
        "touch",
        [lambda c: c.get_or_compute(0, lambda: "WRONG")],
        ids=["hit"],
    )
    def test_touched_key_is_evicted_last(self, touch):
        cache = PlanCache("t", maxsize=3)
        for key in (0, 4, 8):
            cache.get_or_compute(key, lambda: f"v{key}")
        touch(cache)  # 0 is now the most recent
        survivors = []
        for newcomer in (12, 16, 20):
            cache.get_or_compute(newcomer, lambda: "new")  # evicts one peer
            survivors.append([k for k in (0, 4, 8) if k in cache._data])
        assert survivors == [[0, 8], [0], []]
        assert cache.evictions == 3
