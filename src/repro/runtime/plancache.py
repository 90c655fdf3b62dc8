"""Keyed LRU caches for access plans and communication schedules.

The paper's algorithm makes *constructing* an access sequence cheap
(O(k) tables), but a runtime replays the same statements: every
superstep of an iterative solver re-derives the same localized element
vectors, the same per-dimension plans, and -- when section bounds are
compile-time constants -- the same communication schedules.  All of
these are pure functions of hashable layout descriptors, so this module
memoizes them:

* :func:`cached_period_table` -- the all-ranks
  :class:`~repro.distribution.period.PeriodTable` of one ``(p, k,
  alignment)``, which gives every rank's owners and compressed slots;
* :func:`cached_dim_indices` -- every rank's array indices of one whole
  dimension in slot order, the image ``distribute`` and ``collect`` move
  (a few entries: each is as long as the dimension);
* :func:`cached_localized_arrays` -- the ``(p, k, extent, alignment,
  section, rank)``-keyed index/slot vectors of
  :func:`repro.distribution.localize.localized_arrays` (no runtime
  statement reads it; tests do, and ``benchmarks/e2e/layers.py`` wraps
  it by name);
* :func:`cached_array_plan` -- every rank's compressed slots of one
  section along one dimension, keyed on the owning array's
  :meth:`DistributedArray.descriptor`;
* :func:`cached_comm_schedule` / :func:`cached_comm_schedule_2d` --
  whole communication schedules keyed on both sides' descriptors plus
  the section bounds (name-independent: transfers carry only ranks and
  slots, never array identities).

Each cache is one :class:`PlanCache`: a dict in LRU order behind one
lock, with every entry tagged by the rank counts its plan was computed
for so :func:`invalidate_for_p` can drop a retired membership epoch.

Cached values are shared across callers, so they must be treated as
immutable -- the vectorized producers already mark their arrays
read-only, and schedules are never mutated after construction (the lazy
per-rank send/receive indexes are idempotent).

Hit/miss counters are kept per cache and surfaced through
:func:`cache_stats`, which :func:`repro.machine.trace.machine_report`
folds into every machine report.
"""

from __future__ import annotations

import os
from threading import Lock
from typing import Callable, TypeVar

from ..distribution.array import DistributedArray
from ..distribution.localize import localized_arrays
from ..distribution.period import PeriodTable, build_period_table, period_key
from ..distribution.section import RegularSection
from ..obs import ambient

__all__ = [
    "PlanCache",
    "cached_period_table",
    "cached_dim_indices",
    "cached_localized_arrays",
    "cached_array_plan",
    "cached_comm_schedule",
    "cached_comm_schedule_2d",
    "cache_stats",
    "clear_plan_caches",
    "invalidate_for_p",
]

T = TypeVar("T")


class PlanCache:
    """A bounded map of plan keys to plans, evicting least recently used.

    Insertion order of the dict is recency order (LRU first): a hit pops
    and reinserts its entry.  The lock is held only around bookkeeping,
    never around ``compute``, so two threads missing on one key may both
    compute it; plans are pure functions of their keys, so either result
    is correct and the later insert wins.

    A ``nested`` cache is looked up from inside other caches' computes;
    its misses record no ``plan_compute`` span of their own, so the time
    is counted once, in the enclosing span.
    """

    def __init__(self, name: str, maxsize: int, nested: bool = False) -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.name = name
        self.maxsize = maxsize
        self.nested = nested
        self._reset_for_new_process()

    def _reset_for_new_process(self) -> None:
        """Fresh (unheld) lock, no entries, zeroed counters."""
        self._lock = Lock()
        # key -> (value, frozenset of the rank counts it was computed for)
        self._data: dict[object, tuple[object, frozenset]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._data)

    def get_or_compute(self, key, compute: Callable[[], T], ps=()) -> T:
        """Return the cached value for ``key``, computing and inserting
        it on a miss.  ``ps`` tags the entry with the rank counts it
        depends on (see :meth:`invalidate_for`)."""
        if os.getpid() != _owner_pid:
            _reset_inherited_state()
        obs = ambient()
        data = self._data
        with self._lock:
            entry = data.pop(key, None)
            if entry is not None:
                data[key] = entry
                self.hits += 1
            else:
                self.misses += 1
        if entry is not None:
            obs.inc(f"plancache.{self.name}.hits")
            return entry[0]  # type: ignore[return-value]

        obs.inc(f"plancache.{self.name}.misses")
        if self.nested:
            value = compute()
        else:
            with obs.span("plan_compute", cache=self.name):
                value = compute()
        evicted = 0
        with self._lock:
            data.pop(key, None)
            data[key] = (value, frozenset(ps))
            while len(data) > self.maxsize:
                del data[next(iter(data))]
                evicted += 1
            self.evictions += evicted
        if evicted:
            obs.inc(f"plancache.{self.name}.evictions", evicted)
        return value

    def invalidate_for(self, p: int) -> int:
        """Drop every entry tagged with rank count ``p``; returns the
        number of entries dropped."""
        with self._lock:
            dead = [key for key, (_, ps) in self._data.items() if p in ps]
            for key in dead:
                del self._data[key]
            self.invalidations += len(dead)
        if dead:
            ambient().inc(f"plancache.{self.name}.invalidations", len(dead))
        return len(dead)

    def clear(self) -> None:
        """Empty the cache and zero its counters."""
        with self._lock:
            self._data.clear()
            self.hits = self.misses = self.evictions = self.invalidations = 0

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._data),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }


# ---------------------------------------------------------------------------
# Fork/spawn hygiene
# ---------------------------------------------------------------------------
#
# The multiprocess backend (repro.machine.mp) forks worker processes while
# the driver may be mid-``get_or_compute``: a child would then inherit a
# *held* lock (instant deadlock on its first cache access) plus the parent's
# cached plans and hit/miss counters, which would double-count in any
# observability dump the child writes.  Two layers of defence:
#
# * ``os.register_at_fork(after_in_child=...)`` -- the normal path: every
#   fork re-arms fresh locks and empty caches in the child.
# * the pid check at the top of ``get_or_compute`` -- the backstop for
#   processes created without running the fork hooks (exotic embedders,
#   pre-registration forks).  Spawned children re-import this module and
#   need neither.

_owner_pid = os.getpid()


def _reset_inherited_state() -> None:
    """Give this process pristine caches: fresh (unheld) locks, no
    inherited entries, zeroed counters."""
    global _owner_pid
    _owner_pid = os.getpid()
    for cache in _CACHES:
        cache._reset_for_new_process()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_inherited_state)


_CACHES = (
    PlanCache("localized_arrays", 4096),
    PlanCache("array_plans", 4096),
    PlanCache("comm_schedules", 512),
    PlanCache("comm_schedules_2d", 256),
    PlanCache("period_tables", 1024, nested=True),
    PlanCache("dim_indices", 16),
)
(_localized_cache, _plan_cache, _schedule_cache, _schedule2d_cache,
 _period_cache, _indices_cache) = _CACHES


def cached_period_table(p: int, k: int, alignment, extent: int) -> PeriodTable:
    """Memoized :func:`repro.distribution.period.build_period_table` for
    an ``extent``-element array aligned by ``alignment`` under
    ``cyclic(k)`` over ``p`` processors.  Positive alignments share one
    table across extents (see :func:`~repro.distribution.period.period_key`)."""
    key = period_key(p, k, alignment, extent)
    return _period_cache.get_or_compute(
        key, lambda: build_period_table(*key), ps=(p,)
    )


def cached_dim_indices(p: int, k: int, alignment, extent: int) -> tuple:
    """Memoized :meth:`~repro.distribution.period.PeriodTable.indices_by_owner`
    of an ``extent``-element dimension: every coordinate's array indices
    in compressed-slot order (read-only, shared)."""
    key = (period_key(p, k, alignment, extent), extent)
    return _indices_cache.get_or_compute(
        key,
        lambda: cached_period_table(p, k, alignment, extent).indices_by_owner(extent),
        ps=(p,),
    )


def cached_localized_arrays(p, k, extent, alignment, section, rank):
    """Memoized :func:`repro.distribution.localize.localized_arrays`.

    The returned ``(indices, slots)`` vectors are read-only and shared;
    copy before mutating.
    """
    key = (p, k, extent, alignment, section, rank)
    return _localized_cache.get_or_compute(
        key,
        lambda: localized_arrays(p, k, extent, alignment, section, rank),
        ps=(p,),
    )


def cached_array_plan(array: DistributedArray, dim: int, section: RegularSection):
    """Memoized :func:`repro.runtime.address.section_slots`: every grid
    coordinate's compressed slots of ``section`` along ``dim``.  Keyed on
    ``(p, layout descriptor)`` -- not the array's identity/name.  The
    explicit leading rank count makes membership epochs first-class in
    the key space alongside the entry's ``ps`` tag.  A section outside
    the dimension's extent raises ``IndexError``."""
    from .address import section_slots

    p = array.grid.size
    key = (p, array.descriptor(), dim, section)
    return _plan_cache.get_or_compute(
        key, lambda: section_slots(array, dim, section), ps=(p,)
    )


def cached_comm_schedule(
    a: DistributedArray,
    sec_a: RegularSection,
    b: DistributedArray,
    sec_b: RegularSection,
):
    """Memoized :func:`repro.runtime.commsets.compute_comm_schedule`.

    Keyed on ``((p_a, p_b), layout descriptors, section bounds)`` -- two
    statements over identically mapped arrays share one schedule object
    regardless of array names, and both sides' rank counts are tagged
    so a membership change can invalidate exactly the schedules that
    mention a retired p (cross-p migration schedules included).  Callers
    must treat the schedule as immutable (every executor already does).
    """
    from .commsets import compute_comm_schedule

    ps = (a.grid.size, b.grid.size)
    key = (ps, a.descriptor(), sec_a, b.descriptor(), sec_b)
    return _schedule_cache.get_or_compute(
        key, lambda: compute_comm_schedule(a, sec_a, b, sec_b), ps=ps
    )


def cached_comm_schedule_2d(
    a: DistributedArray,
    secs_a: tuple[RegularSection, RegularSection],
    b: DistributedArray,
    secs_b: tuple[RegularSection, RegularSection],
    rhs_dims: tuple[int, int] = (0, 1),
):
    """Memoized :func:`repro.runtime.commsets2d.compute_comm_schedule_2d`
    (tensor-product 2-D schedules, including the transpose pairing);
    keyed and tagged with both sides' rank counts, as in
    :func:`cached_comm_schedule`."""
    from .commsets2d import compute_comm_schedule_2d

    ps = (a.grid.size, b.grid.size)
    key = (ps, a.descriptor(), tuple(secs_a), b.descriptor(), tuple(secs_b), rhs_dims)
    return _schedule2d_cache.get_or_compute(
        key,
        lambda: compute_comm_schedule_2d(a, tuple(secs_a), b, tuple(secs_b), rhs_dims),
        ps=ps,
    )


def cache_stats() -> dict:
    """Per-cache ``{entries, maxsize, hits, misses, evictions,
    invalidations}`` counters."""
    return {cache.name: cache.stats() for cache in _CACHES}


def invalidate_for_p(p: int) -> int:
    """Drop every cached plan/schedule computed for rank count ``p``
    across all caches; returns the total entries dropped.

    The elastic runtime (:mod:`repro.runtime.elastic`) calls this when a
    membership epoch retires so a later epoch that happens to reuse the
    same rank count starts from freshly keyed plans -- a retired epoch
    can never serve a stale plan because the keys carry p explicitly.
    """
    return sum(cache.invalidate_for(p) for cache in _CACHES)


def clear_plan_caches() -> None:
    """Empty every plan cache and reset its counters (tests and
    benchmarks call this between timed configurations)."""
    for cache in _CACHES:
        cache.clear()
