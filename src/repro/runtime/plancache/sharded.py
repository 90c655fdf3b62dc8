"""The concurrency-safe sharded cache behind the plan caches.

:class:`ShardedPlanCache` generalizes the original single-lock LRU
``PlanCache`` for long-running, many-client use (the planning service of
:mod:`repro.service` keeps one process hot for days):

* **Sharding.**  Keys hash onto ``shards`` independent shards, each with
  its own lock and its own slice of the size budget, so concurrent
  lookups of unrelated plans never contend on one lock.

* **TTL + LFU admission.**  Entries optionally expire ``ttl_s`` seconds
  after insertion (monotonic clock, injectable for tests).  When a shard
  overflows its budget, eviction prefers already-expired entries, then
  the least-frequently-used entry, ties broken least-recently-used --
  a steady diet of one-off keys cannot flush the hot working set.

* **Coalescing.**  Concurrent misses on the *same* key compute once: the
  first caller computes while the rest park on an event and share the
  result (counted in ``coalesced``).  A compute that raises propagates
  the same exception to every wave of waiters and leaves no residue, so
  the next caller retries cleanly.

* **Stale reads.**  :meth:`peek` can return an expired entry without
  touching the hit/miss counters -- the planning service's degradation
  ladder serves these (tagged ``degraded``) when a shard's circuit
  breaker is open or the compute queue is saturated.  Plans are pure
  functions of their keys, so a stale entry is still bit-identical to a
  fresh computation; "stale" only means it outlived its freshness
  window.

* **Overflow-safe, resettable stats.**  Counters accumulate in Python
  integers (which cannot overflow) and are clamped to the signed-64-bit
  range on export for fixed-width consumers; :meth:`reset_stats` zeroes
  them *without* dropping any cached plan, so a week-long process can
  emit windowed rates.

Locks are held only around bookkeeping, never around ``compute`` -- the
same discipline as the original cache, now with single-flight instead of
duplicate computes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from threading import Event, Lock
from typing import Callable, TypeVar

from ...obs import ambient

__all__ = ["ShardedPlanCache", "PlanCache", "INT64_MAX"]

T = TypeVar("T")

#: Export clamp: stats snapshots never exceed what an int64 consumer
#: (struct-packed snapshot metadata, downstream dashboards) can hold.
INT64_MAX = (1 << 63) - 1


def _clamp64(value: int) -> int:
    return value if value <= INT64_MAX else INT64_MAX


@dataclass(slots=True)
class _Entry:
    value: object
    freq: int  # accesses since insertion (LFU weight)
    expires_at: float | None  # monotonic deadline, None = never


class _Flight:
    """One in-progress compute that concurrent misses coalesce onto."""

    __slots__ = ("done", "value", "error")

    def __init__(self) -> None:
        self.done = Event()
        self.value: object = None
        self.error: BaseException | None = None


class _Shard:
    """One independently locked slice of the key space."""

    __slots__ = ("lock", "data", "ps", "inflight")

    def __init__(self) -> None:
        self.lock = Lock()
        # Insertion order is recency order (LRU first): a touch pops and
        # reinserts.  A plain dict, not an OrderedDict, because the
        # eviction scan iterates it and OrderedDict iteration rehashes
        # every (deep, tuple-valued) key.
        self.data: dict[object, _Entry] = {}
        self.ps: dict[object, frozenset] = {}
        self.inflight: dict[object, _Flight] = {}


class _Stats:
    """Unbounded counters with a lock of their own (shared by shards)."""

    __slots__ = (
        "lock", "hits", "misses", "evictions", "invalidations",
        "expirations", "coalesced",
    )

    def __init__(self) -> None:
        self.lock = Lock()
        self.reset()

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.expirations = 0
        self.coalesced = 0

    def add(self, field: str, n: int = 1) -> None:
        with self.lock:
            setattr(self, field, getattr(self, field) + n)


class ShardedPlanCache:
    """Sharded, TTL/LFU-bounded, coalescing map of plan keys to plans.

    ``maxsize`` bounds the *total* entry count (split evenly across
    shards); ``ttl_s=None`` disables expiry.  ``guard`` is an optional
    pre-access hook (the global plan caches install the fork/pid guard
    through it).  The single-shard default preserves the original
    ``PlanCache`` semantics exactly.
    """

    def __init__(
        self,
        name: str,
        maxsize: int,
        shards: int = 1,
        ttl_s: float | None = None,
        guard: Callable[[], None] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        if shards <= 0:
            raise ValueError(f"shards must be positive, got {shards}")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError(f"ttl_s must be positive or None, got {ttl_s}")
        self.name = name
        self.maxsize = maxsize
        self.shards = shards
        self.ttl_s = ttl_s
        self._guard = guard
        self._clock = clock
        # Per-shard budget: ceil so the total never undershoots maxsize.
        self._shard_max = max(1, -(-maxsize // shards))
        self._shards = [_Shard() for _ in range(shards)]
        self._stats = _Stats()

    # -- counters (attribute compatibility with the original cache) ----

    @property
    def hits(self) -> int:
        return self._stats.hits

    @property
    def misses(self) -> int:
        return self._stats.misses

    @property
    def evictions(self) -> int:
        return self._stats.evictions

    @property
    def invalidations(self) -> int:
        return self._stats.invalidations

    @property
    def expirations(self) -> int:
        return self._stats.expirations

    @property
    def coalesced(self) -> int:
        return self._stats.coalesced

    # Aggregated read-only views kept for white-box tests and debugging.

    @property
    def _data(self) -> dict:
        out: dict = {}
        for shard in self._shards:
            with shard.lock:
                out.update(shard.data)
        return {k: e.value for k, e in out.items()}

    @property
    def _ps(self) -> dict:
        out: dict = {}
        for shard in self._shards:
            with shard.lock:
                out.update(shard.ps)
        return out

    def __len__(self) -> int:
        return sum(len(shard.data) for shard in self._shards)

    def _shard_of(self, key) -> _Shard:
        return self._shards[hash(key) % self.shards]

    def _expired(self, entry: _Entry) -> bool:
        return entry.expires_at is not None and self._clock() >= entry.expires_at

    def _expiry(self) -> float | None:
        return None if self.ttl_s is None else self._clock() + self.ttl_s

    # -- the hot path --------------------------------------------------

    def get_or_compute(self, key, compute: Callable[[], T], ps=()) -> T:
        """Return the cached value for ``key``, computing it at most once
        across all concurrent callers (single-flight).  Expired entries
        are recomputed (and counted in ``expirations``) but remain
        readable through :meth:`peek` until the fresh value lands."""
        if self._guard is not None:
            self._guard()
        obs = ambient()
        shard = self._shard_of(key)
        while True:
            with shard.lock:
                entry = shard.data.get(key)
                if entry is not None and not self._expired(entry):
                    entry.freq += 1
                    shard.data[key] = shard.data.pop(key)
                    self._stats.add("hits")
                    obs.inc(f"plancache.{self.name}.hits")
                    return entry.value
                flight = shard.inflight.get(key)
                if flight is None:
                    if entry is not None:  # present but expired
                        self._stats.add("expirations")
                        obs.inc(f"plancache.{self.name}.expirations")
                    shard.inflight[key] = flight = _Flight()
                    leader = True
                else:
                    leader = False
            if not leader:
                flight.done.wait()
                if flight.error is not None:
                    raise flight.error
                self._stats.add("coalesced")
                obs.inc(f"plancache.{self.name}.coalesced")
                return flight.value  # type: ignore[return-value]
            break

        # Leader: compute outside every lock, then publish.
        self._stats.add("misses")
        obs.inc(f"plancache.{self.name}.misses")
        try:
            with obs.span("plan_compute", cache=self.name):
                value = compute()
        except BaseException as exc:
            flight.error = exc
            with shard.lock:
                shard.inflight.pop(key, None)
            flight.done.set()
            raise
        self._insert(shard, key, value, ps, obs)
        flight.value = value
        with shard.lock:
            shard.inflight.pop(key, None)
        flight.done.set()
        return value

    def _insert(self, shard: _Shard, key, value, ps, obs, freq: int = 1) -> None:
        with shard.lock:
            shard.data.pop(key, None)
            shard.data[key] = _Entry(value, max(1, freq), self._expiry())
            if ps:
                shard.ps[key] = frozenset(ps)
            else:
                shard.ps.pop(key, None)
            evicted = 0
            while len(shard.data) > self._shard_max:
                victim = self._pick_victim(shard)
                del shard.data[victim]
                shard.ps.pop(victim, None)
                evicted += 1
        if evicted:
            self._stats.add("evictions", evicted)
            obs.inc(f"plancache.{self.name}.evictions", evicted)

    def _pick_victim(self, shard: _Shard):
        """Choose the entry to evict (shard lock held): an expired entry
        if any exists (oldest first), else minimum freq, ties broken by
        LRU order -- the TTL+LFU admission policy."""
        best_key = None
        best_freq = None
        for k, entry in shard.data.items():  # LRU -> MRU order
            if self._expired(entry):
                return k
            if best_freq is None or entry.freq < best_freq:
                best_key, best_freq = k, entry.freq
        return best_key

    # -- cold paths ----------------------------------------------------

    def peek(self, key, allow_stale: bool = True, touch: bool = False):
        """Return ``(found, value)`` without triggering a recompute.
        ``allow_stale=True`` also returns expired entries -- the
        degraded-serving path of the planning service.  ``touch=True``
        counts a fresh find as a hit and bumps its LFU/LRU standing
        (the service's fast path); stale finds are never touched."""
        shard = self._shard_of(key)
        with shard.lock:
            entry = shard.data.get(key)
            if entry is None or (not allow_stale and self._expired(entry)):
                return False, None
            if touch and not self._expired(entry):
                entry.freq += 1
                shard.data[key] = shard.data.pop(key)
                self._stats.add("hits")
                ambient().inc(f"plancache.{self.name}.hits")
            return True, entry.value

    def put(self, key, value, ps=(), freq: int = 1) -> None:
        """Insert ``value`` directly (snapshot warm-start); subject to
        the same admission/eviction policy as computed entries.
        ``freq`` seeds the LFU weight so restored hot entries keep their
        standing against the cold ones behind them."""
        if self._guard is not None:
            self._guard()
        self._insert(self._shard_of(key), key, value, ps, ambient(), freq=freq)

    def hot_entries(self, limit: int | None = None) -> list[tuple]:
        """``(key, value, freq)`` triples, hottest (highest-freq) first,
        skipping expired entries -- what the snapshot writer persists."""
        out: list[tuple] = []
        for shard in self._shards:
            with shard.lock:
                for k, entry in shard.data.items():
                    if not self._expired(entry):
                        out.append((k, entry.value, entry.freq))
        out.sort(key=lambda t: -t[2])
        return out if limit is None else out[:limit]

    def evict_expired(self) -> int:
        """Drop every expired entry now (long-running processes call this
        periodically so TTL actually returns memory); returns the count."""
        dropped = 0
        for shard in self._shards:
            with shard.lock:
                dead = [k for k, e in shard.data.items() if self._expired(e)]
                for k in dead:
                    del shard.data[k]
                    shard.ps.pop(k, None)
                dropped += len(dead)
        if dropped:
            self._stats.add("expirations", dropped)
            self._stats.add("evictions", dropped)
            ambient().inc(f"plancache.{self.name}.evictions", dropped)
        return dropped

    def invalidate_for(self, p: int) -> int:
        """Drop every entry whose plan was computed for rank count ``p``
        (by tag when present, falling back to a leading-``p`` key
        component).  Returns the number of entries dropped."""
        dropped = 0
        for shard in self._shards:
            with shard.lock:
                for key in list(shard.data):
                    tags = shard.ps.get(key)
                    if tags is None:
                        tags = _ps_from_key(key)
                    if p in tags:
                        del shard.data[key]
                        shard.ps.pop(key, None)
                        dropped += 1
        if dropped:
            self._stats.add("invalidations", dropped)
            ambient().inc(f"plancache.{self.name}.invalidations", dropped)
        return dropped

    def clear(self) -> None:
        """Empty the cache and zero its counters."""
        for shard in self._shards:
            with shard.lock:
                shard.data.clear()
                shard.ps.clear()
        self._stats.reset()

    def reset_stats(self) -> None:
        """Zero the counters *without* dropping any cached plan."""
        self._stats.reset()

    def _reset_for_new_process(self) -> None:
        """Fork hygiene: fresh (unheld) locks, no inherited entries or
        in-flight computes, zeroed counters."""
        self._shards = [_Shard() for _ in range(self.shards)]
        self._stats = _Stats()

    def stats(self) -> dict:
        s = self._stats
        with s.lock:
            return {
                "entries": len(self),
                "maxsize": self.maxsize,
                "shards": self.shards,
                "hits": _clamp64(s.hits),
                "misses": _clamp64(s.misses),
                "evictions": _clamp64(s.evictions),
                "invalidations": _clamp64(s.invalidations),
                "expirations": _clamp64(s.expirations),
                "coalesced": _clamp64(s.coalesced),
            }


def _ps_from_key(key) -> frozenset:
    """Fallback rank-count tags for untagged entries: every int in the
    key's leading component (all cached_* keys lead with their p
    values; see the key layouts in the package ``__init__``)."""
    if isinstance(key, tuple) and key:
        head = key[0]
        if isinstance(head, int):
            return frozenset((head,))
        if isinstance(head, tuple) and all(isinstance(x, int) for x in head):
            return frozenset(head)
    return frozenset()


#: Backward-compatible name: a single-shard :class:`ShardedPlanCache`
#: behaves exactly like the original lock-per-cache LRU ``PlanCache``
#: (plus single-flight coalescing instead of duplicate computes).
PlanCache = ShardedPlanCache
