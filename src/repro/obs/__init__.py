"""Unified tracing, metrics, and profiling for the SPMD runtime.

The paper's claim is a performance claim, and the repo's three hot
subsystems -- the vectorized kernels, the plan/schedule cache, and the
resilient exchange -- each kept private ad-hoc counters.  This package
is the one substrate they all report through:

* :mod:`repro.obs.spans` -- nestable monotonic-clock spans and instant
  events in a bounded global :class:`~repro.obs.spans.TraceBuffer`,
  plus the per-rank machine-:class:`~repro.obs.spans.EventLog` the
  flight recorder is a view over;
* :mod:`repro.obs.metrics` -- named counters/gauges/histograms with a
  true no-op disabled path;
* :mod:`repro.obs.export` -- JSON-lines and Chrome trace-event
  exporters (open the latter in Perfetto / ``chrome://tracing``) and a
  plain-text summary built on :mod:`repro.viz.tables`.

Everything hangs off one :class:`Observability` handle threaded from
:class:`repro.machine.vm.VirtualMachine` (``VirtualMachine(p,
obs=Observability())``); library layers that have no machine in scope
(:mod:`repro.core.kernels`, plan-cache misses) report to the process
:func:`ambient` handle, which is disabled unless a driver (the
``python -m repro trace`` CLI, a benchmark) installs an enabled one.
See docs/OBSERVABILITY.md for the event taxonomy and overhead budget.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass
from pathlib import Path

from .metrics import (
    DEFAULT_BYTE_BUCKETS,
    DEFAULT_TIME_BUCKETS_NS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .spans import EventLog, EventRecord, SpanRecord, TraceBuffer, monotonic_ns

__all__ = [
    "HandleLimits",
    "Observability",
    "ambient",
    "set_ambient",
    "dump_active",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BYTE_BUCKETS",
    "DEFAULT_TIME_BUCKETS_NS",
    "EventLog",
    "EventRecord",
    "SpanRecord",
    "TraceBuffer",
]

#: Live *enabled* handles, weakly held, so a test-failure hook can dump
#: whatever was being traced when things went wrong (see dump_active).
_LIVE: "weakref.WeakSet[Observability]" = weakref.WeakSet()


@dataclass(frozen=True)
class HandleLimits:
    """Memory bounds for one :class:`Observability` handle.

    Spans and machine events live in rings of these sizes, so a
    handle's footprint is ``O(max_spans + ranks * event_capacity)``
    however long it records.
    """

    max_spans: int = 65536
    event_capacity: int = 256

    def __post_init__(self) -> None:
        for name in ("max_spans", "event_capacity"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


class _NullSpan:
    """Shared no-op context manager returned by disabled ``span()``."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _Span:
    """An open span: created by :meth:`Observability.span`, records
    itself into the trace buffer on ``__exit__``.  Spans must close in
    LIFO order (the ``with`` statement guarantees it)."""

    __slots__ = ("_obs", "name", "rank", "_attrs", "_start")

    def __init__(self, obs: "Observability", name: str, rank, attrs: dict) -> None:
        self._obs = obs
        self.name = name
        self.rank = rank
        self._attrs = attrs
        self._start = 0

    def set(self, **attrs) -> None:
        """Attach/override attributes while the span is open."""
        self._attrs.update(attrs)

    def __enter__(self) -> "_Span":
        self._obs._stack.append(self)
        self._start = self._obs.clock()
        return self

    def __exit__(self, *exc) -> bool:
        obs = self._obs
        end = obs.clock()
        obs._stack.pop()
        obs.trace.add(
            SpanRecord(
                self.name,
                self.rank,
                self._start,
                end - self._start,
                len(obs._stack),
                tuple(self._attrs.items()),
            )
        )
        return False


class Observability:
    """One handle bundling the span buffer, metric registry, and
    machine-event log.

    ``enabled=False`` (the default for machines constructed without an
    explicit handle) makes every instrument a no-op: ``span()`` returns
    a shared null context manager, metric mutators return immediately,
    and the event log records nothing -- unless a
    :class:`~repro.machine.trace.FlightRecorder` attaches, which
    force-enables just the event log so post-mortem rings stay
    available.
    """

    def __init__(
        self,
        enabled: bool = True,
        max_spans: int = 65536,
        event_capacity: int = 256,
        clock=monotonic_ns,
        handle_limits: HandleLimits | None = None,
    ) -> None:
        if handle_limits is None:
            handle_limits = HandleLimits(
                max_spans=max_spans, event_capacity=event_capacity
            )
        self.enabled = enabled
        self.limits = handle_limits
        self.clock = clock
        self.metrics = MetricsRegistry(enabled)
        self.trace = TraceBuffer(handle_limits.max_spans)
        self.events = EventLog(handle_limits.event_capacity, enabled=enabled)
        self._stack: list[_Span] = []
        if enabled:
            _LIVE.add(self)

    # -- spans ---------------------------------------------------------

    def span(self, name: str, rank: int | None = None, **attrs):
        """Context manager timing a nested unit of work.

        ``rank`` selects the Chrome-trace thread lane (``None`` = the
        host lane); keyword attributes land in the record verbatim.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, rank, attrs)

    def instant(self, name: str, rank: int | None = None, **attrs) -> None:
        """Record a zero-duration event at the current time."""
        if not self.enabled:
            return
        self.trace.add(
            SpanRecord(
                name, rank, self.clock(), None, len(self._stack),
                tuple(attrs.items()),
            )
        )

    @property
    def depth(self) -> int:
        """Number of currently open spans."""
        return len(self._stack)

    # -- metrics (conveniences mirroring MetricsRegistry) -------------

    def inc(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.metrics.counter(name).inc(n)

    def observe(self, name: str, value, buckets=DEFAULT_BYTE_BUCKETS) -> None:
        if self.enabled:
            self.metrics.histogram(name, buckets).observe(value)

    def set_gauge(self, name: str, value) -> None:
        if self.enabled:
            self.metrics.gauge(name).set(value)

    # -- machine events ------------------------------------------------

    def machine_event(self, rank: int, superstep: int, kind: str, detail: str) -> None:
        """Append to ``rank``'s bounded event ring (no-op unless the
        event log is enabled -- by ``enabled=True`` or an attached
        flight recorder)."""
        if self.events.enabled:
            self.events.record(rank, superstep, kind, detail)

    # -- snapshots -----------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready summary: metrics, buffer occupancy, and the
        global plan-cache counters (single-sourced from
        :func:`repro.runtime.plancache.cache_stats`)."""
        from ..runtime.plancache import cache_stats

        return {
            "enabled": self.enabled,
            "metrics": self.metrics.snapshot(),
            "plan_caches": cache_stats(),
            "spans": len(self.trace),
            "dropped_spans": self.trace.dropped,
            "events": self.events.count(),
            "dropped_events": self.events.dropped,
        }

    def clear(self) -> None:
        """Empty every store (metric values, spans, events)."""
        self.metrics.clear()
        self.trace.clear()
        self.events.clear()


#: Process-wide fallback handle for layers with no machine in scope.
_DISABLED = Observability(enabled=False)
_ambient = _DISABLED


def ambient() -> Observability:
    """The process-ambient handle (disabled unless a driver installed
    one with :func:`set_ambient`)."""
    return _ambient


def set_ambient(obs: Observability | None) -> Observability:
    """Install ``obs`` as the ambient handle (``None`` restores the
    disabled default); returns the previous handle so callers can
    restore it."""
    global _ambient
    previous = _ambient
    _ambient = obs if obs is not None else _DISABLED
    return previous


def dump_active(directory, label: str = "trace") -> list[Path]:
    """Dump every live enabled handle's trace buffer as JSON-lines into
    ``directory``; returns the written paths.  The test suite's failure
    hook calls this so a red test leaves its trace next to the flight
    recorder dumps (see tests/conftest.py and CI)."""
    from .export import write_jsonl

    paths: list[Path] = []
    directory = Path(directory)
    for i, obs in enumerate(list(_LIVE)):
        if len(obs.trace) == 0 and obs.events.count() == 0:
            continue
        directory.mkdir(parents=True, exist_ok=True)
        # Per-PID filename: with the multiprocess backend several
        # processes may dump into one fault-reports/ directory at once.
        path = directory / f"obs-{label}-p{os.getpid()}-{i}.jsonl"
        write_jsonl(obs, path)
        paths.append(path)
    if paths:
        from .export import rotate_reports

        rotate_reports(directory)
    return paths
