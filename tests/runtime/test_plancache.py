"""Tests for the runtime plan/schedule caches (:mod:`repro.runtime.plancache`)."""

import os

import numpy as np
import pytest

from repro.distribution import (
    Alignment,
    AxisMap,
    CyclicK,
    DistributedArray,
    ProcessorGrid,
    RegularSection,
)
from repro.machine.trace import machine_report
from repro.machine.vm import VirtualMachine
from repro.runtime import execute_copy
from repro.bench.nodecode import make_array_plan, materialize_addresses
from repro.runtime.address import section_slots
from repro.runtime.commsets import compute_comm_schedule
from repro.runtime.plancache import (
    PlanCache,
    cache_stats,
    cached_array_plan,
    cached_comm_schedule,
    cached_comm_schedule_2d,
    cached_localized_arrays,
    clear_plan_caches,
)


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_plan_caches()
    yield
    clear_plan_caches()


def make_1d(name, n, p, k, a=1, b=0):
    return DistributedArray(
        name,
        (n,),
        ProcessorGrid("G", (p,)),
        (AxisMap(CyclicK(k), Alignment(a, b), grid_axis=0),),
    )


class TestPlanCache:
    def test_lru_eviction(self):
        cache = PlanCache("t", maxsize=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: 1)  # refresh a
        cache.get_or_compute("c", lambda: 3)  # evicts b
        assert len(cache) == 2
        sentinel = object()
        assert cache.get_or_compute("b", lambda: sentinel) is sentinel
        assert cache.hits == 1
        assert cache.misses == 4

    def test_hit_refreshes_recency(self):
        cache = PlanCache("t", maxsize=3)
        for key in "abc":
            cache.get_or_compute(key, lambda: key)
        assert cache.get_or_compute("a", lambda: "WRONG") == "a"  # hit
        cache.get_or_compute("d", lambda: "d")  # evicts b, not a
        assert list(cache._data) == ["c", "a", "d"]
        assert cache.evictions == 1

    def test_overflow_evicts_least_recently_used(self):
        cache = PlanCache("t", maxsize=3)
        for key in range(5):
            cache.get_or_compute(key, lambda: key)
        assert list(cache._data) == [2, 3, 4]
        assert cache.evictions == 2
        sentinel = object()
        assert cache.get_or_compute(0, lambda: sentinel) is sentinel

    def test_len_is_bounded_by_maxsize(self):
        cache = PlanCache("t", maxsize=7)
        for key in range(30):
            cache.get_or_compute(key, lambda: key)
            assert len(cache) == min(key + 1, 7)
            cache.get_or_compute(key // 2, lambda: key)  # hits and misses
            assert len(cache) == min(key + 1, 7)
        assert cache.stats()["entries"] == 7

    def test_counters_and_clear(self):
        cache = PlanCache("t", maxsize=4)
        cache.get_or_compute("k", lambda: 1)
        cache.get_or_compute("k", lambda: 1)
        assert (cache.hits, cache.misses) == (1, 1)
        cache.clear()
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            PlanCache("t", maxsize=0)


class TestCachedLocalizedArrays:
    def test_hit_returns_same_objects(self):
        args = (3, 4, 50, Alignment(1, 0), RegularSection(0, 49, 2), 1)
        first = cached_localized_arrays(*args)
        second = cached_localized_arrays(*args)
        assert first[0] is second[0] and first[1] is second[1]
        assert not first[0].flags.writeable
        stats = cache_stats()["localized_arrays"]
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_distinct_keys_distinct_entries(self):
        sec = RegularSection(0, 29, 1)
        cached_localized_arrays(3, 4, 30, Alignment(1, 0), sec, 0)
        cached_localized_arrays(3, 4, 30, Alignment(1, 0), sec, 1)
        cached_localized_arrays(3, 5, 30, Alignment(1, 0), sec, 0)
        assert cache_stats()["localized_arrays"]["entries"] == 3


class TestCachedPlans:
    def test_identical_to_fresh_plan(self):
        arr = make_1d("A", 60, 4, 3)
        sec = RegularSection(2, 57, 5)
        cached = cached_array_plan(arr, 0, sec)
        fresh = section_slots(arr, 0, sec)
        assert len(cached) == 4
        for rank in range(4):
            assert not cached[rank].flags.writeable
            assert cached[rank].tolist() == fresh[rank].tolist()
            # ... and equal to the rank's expanded ΔM plan.
            assert cached[rank].tolist() == materialize_addresses(
                make_array_plan(arr, 0, sec, rank)
            ).tolist()

    def test_keyed_on_descriptor_not_name(self):
        sec = RegularSection(0, 59, 1)
        a = make_1d("A", 60, 4, 3)
        b = make_1d("B", 60, 4, 3)  # same layout, different name
        assert cached_array_plan(a, 0, sec) is cached_array_plan(b, 0, sec)
        c = make_1d("C", 60, 4, 5)  # different block size
        assert cached_array_plan(a, 0, sec) is not cached_array_plan(c, 0, sec)


class TestCachedSchedules:
    def test_identical_to_fresh_schedule(self):
        a = make_1d("A", 80, 4, 3)
        b = make_1d("B", 80, 4, 7)
        sec_a = RegularSection(0, 78, 2)
        sec_b = RegularSection(1, 79, 2)
        cached = cached_comm_schedule(a, sec_a, b, sec_b)
        fresh = compute_comm_schedule(a, sec_a, b, sec_b)
        assert cached.n_iterations == fresh.n_iterations
        assert [t.astuples() for t in cached.locals_ + cached.transfers] == [
            t.astuples() for t in fresh.locals_ + fresh.transfers
        ]
        # Second call is a pure cache hit returning the same object.
        assert cached_comm_schedule(a, sec_a, b, sec_b) is cached
        stats = cache_stats()["comm_schedules"]
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_2d_schedule_cached(self):
        grid = ProcessorGrid("G", (2, 2))

        def make2d(name):
            return DistributedArray(
                name,
                (12, 10),
                grid,
                (
                    AxisMap(CyclicK(2), grid_axis=0),
                    AxisMap(CyclicK(3), grid_axis=1),
                ),
            )

        a, b = make2d("A"), make2d("B")
        secs = (RegularSection(0, 11, 1), RegularSection(0, 9, 1))
        s1 = cached_comm_schedule_2d(a, secs, b, secs)
        s2 = cached_comm_schedule_2d(a, secs, b, secs)
        assert s1 is s2
        assert cache_stats()["comm_schedules_2d"]["entries"] == 1

    def test_executor_reuses_schedule_across_statements(self):
        p, n = 3, 40
        a = make_1d("A", n, p, 2)
        b = make_1d("B", n, p, 5)
        sec = RegularSection(0, n - 1, 1)
        vm = VirtualMachine(p)
        from repro.runtime import distribute

        host = np.arange(n, dtype=float)
        distribute(vm, b, host)
        distribute(vm, a, np.zeros(n))
        s1 = execute_copy(vm, a, sec, b, sec)
        s2 = execute_copy(vm, a, sec, b, sec)  # steady state: cache hit
        assert s1 is s2
        from repro.runtime import collect

        assert np.array_equal(collect(vm, a), host)


class TestReporting:
    def test_machine_report_surfaces_cache_stats(self):
        vm = VirtualMachine(2)
        report = machine_report(vm)
        assert "plan_caches" in report
        for name in (
            "localized_arrays",
            "array_plans",
            "comm_schedules",
            "comm_schedules_2d",
        ):
            entry = report["plan_caches"][name]
            assert set(entry) == {
                "entries", "maxsize", "hits", "misses", "evictions",
                "invalidations",
            }

    def test_clear_resets_all(self):
        a = make_1d("A", 30, 3, 2)
        cached_array_plan(a, 0, RegularSection(0, 29, 1))
        cached_localized_arrays(3, 2, 30, Alignment(1, 0), RegularSection(0, 29, 1), 0)
        assert any(c["entries"] for c in cache_stats().values())
        clear_plan_caches()
        assert all(
            c["entries"] == 0 and c["hits"] == 0 and c["misses"] == 0
            for c in cache_stats().values()
        )


class TestForkSafety:
    def test_forked_children_start_with_pristine_caches(self):
        # The multiprocess backend forks workers while the driver's
        # caches are warm (and possibly mid-lookup): a child must see
        # empty caches with fresh locks and zeroed counters, never the
        # parent's entries or hit/miss history.
        import multiprocessing

        a = make_1d("A", 30, 3, 2)
        cached_array_plan(a, 0, RegularSection(0, 29, 1))
        cached_localized_arrays(3, 2, 30, Alignment(1, 0), RegularSection(0, 29, 1), 0)
        parent_stats = cache_stats()
        assert any(c["entries"] for c in parent_stats.values())

        ctx = multiprocessing.get_context("fork")
        queue = ctx.SimpleQueue()

        def child(queue):
            from repro.runtime.plancache import cache_stats

            queue.put(cache_stats())

        proc = ctx.Process(target=child, args=(queue,))
        proc.start()
        child_stats = queue.get()
        proc.join(10.0)
        assert proc.exitcode == 0
        for name, entry in child_stats.items():
            assert entry["entries"] == 0, f"{name} leaked entries into the child"
            assert entry["hits"] == 0 and entry["misses"] == 0
        # The parent's caches are untouched by the child's reset.
        assert cache_stats() == parent_stats

    def test_pid_guard_resets_state_inherited_without_fork_hooks(self):
        # Backstop for processes created without running the at-fork
        # hooks: the first lookup under a new PID starts clean.
        from repro.runtime import plancache

        a = make_1d("A", 30, 3, 2)
        cached_array_plan(a, 0, RegularSection(0, 29, 1))
        assert cache_stats()["array_plans"]["entries"] == 1
        original = plancache._owner_pid
        try:
            plancache._owner_pid = original - 1  # simulate an inherited pid
            cached_array_plan(a, 0, RegularSection(0, 29, 1))
            stats = cache_stats()["array_plans"]
            # The stale entry was discarded and this lookup recomputed.
            assert stats["entries"] == 1
            assert stats["hits"] == 0 and stats["misses"] == 1
        finally:
            assert plancache._owner_pid == os.getpid()
