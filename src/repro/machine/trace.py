"""Execution tracing and statistics for the simulated machine.

Benchmarks and integration tests use these helpers to assert *what* a
node program touched (exact local addresses, in order) and to report
aggregate machine activity (message counts, bytes, memory traffic) in
the spirit of the paper's per-processor measurements.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..obs.spans import EventLog, EventRecord
from .iface import Machine
from .vm import VirtualMachine

__all__ = [
    "AccessTrace",
    "FlightRecord",
    "FlightRecorder",
    "TracingMemory",
    "fault_report",
    "machine_report",
]


@dataclass
class AccessTrace:
    """Ordered record of loads/stores against one local arena."""

    reads: list[int] = field(default_factory=list)
    writes: list[int] = field(default_factory=list)

    @property
    def addresses(self) -> list[int]:
        """All touched addresses in program order (reads and writes merged
        is not tracked; most node codes are write-only or read-only)."""
        return self.writes if self.writes else self.reads


class TracingMemory:
    """A local-memory proxy that records every indexed access.

    Wraps a NumPy arena; integer and array indexing are both recorded.
    Node-code templates accept any object with ``__getitem__`` /
    ``__setitem__`` and ``len``, so tests can substitute this for the raw
    arena to check the paper's claim that the ΔM walk touches exactly
    the owned section elements in increasing order.
    """

    def __init__(self, arena: np.ndarray, trace: AccessTrace | None = None) -> None:
        self.arena = arena
        self.trace = trace if trace is not None else AccessTrace()

    def __len__(self) -> int:
        return len(self.arena)

    def _record(self, log: list[int], index) -> None:
        if isinstance(index, (int, np.integer)):
            log.append(int(index))
        else:
            log.extend(int(i) for i in np.asarray(index).ravel())

    def __getitem__(self, index):
        self._record(self.trace.reads, index)
        return self.arena[index]

    def __setitem__(self, index, value) -> None:
        self._record(self.trace.writes, index)
        self.arena[index] = value


#: Flight-recorder entries are machine events; the recorder is a view
#: over the observability event log, so they share one record type.
FlightRecord = EventRecord


class FlightRecorder:
    """Per-rank bounded ring buffer of recent machine activity.

    The post-mortem instrument for the silent-corruption defense
    (docs/FAULT_MODEL.md §5): each rank keeps its last ``capacity``
    events -- sends, deliveries, drops, quarantines, injected faults,
    audit verdicts, repairs -- so when a verified exchange gives up with
    an ``ExchangeFailure``, :meth:`dump` leaves a JSON snapshot in
    ``fault-reports/`` that tells the story of the final supersteps
    without having traced the whole (possibly enormous) run.

    Since the observability refactor this class owns no storage of its
    own once attached: :meth:`attach` force-enables the machine's
    :class:`repro.obs.spans.EventLog` (the single store the network and
    VM write sends, deliveries, drops, quarantines, and fault events
    into) and re-bounds it to ``capacity``; :meth:`detach` restores the
    log's previous enabled state.  Runtime layers append their own
    entries (audit verdicts, repair decisions) via :meth:`record`.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._vm: Machine | None = None
        # Standalone store used only until attach() points us at a
        # machine's event log (record() before attach still works).
        self._own = EventLog(capacity, enabled=True)
        self._prev_enabled = False

    @property
    def _log(self) -> EventLog:
        return self._vm.obs.events if self._vm is not None else self._own

    @property
    def dropped_records(self) -> int:
        """Ring evictions in the backing log (bounded-buffer honesty)."""
        return self._log.dropped

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(self, vm: Machine) -> None:
        if self._vm is not None and self._vm is not vm:
            raise ValueError("recorder is already attached to another machine")
        if self._vm is None:
            self._vm = vm
            log = vm.obs.events
            self._prev_enabled = log.enabled
            log.enabled = True
            log.set_capacity(self.capacity)
            # Carry over anything recorded while unattached.
            for rank, ring in self._own.rings().items():
                for ev in ring:
                    log.record(rank, ev.superstep, ev.kind, ev.detail)
            self._own.clear()

    def detach(self) -> None:
        if self._vm is None:
            return
        self._vm.obs.events.enabled = self._prev_enabled
        self._vm = None

    # ------------------------------------------------------------------
    # Recording / dumping
    # ------------------------------------------------------------------

    def record(self, rank: int, superstep: int, kind: str, detail: str) -> None:
        self._log.record(rank, superstep, kind, detail)

    def snapshot(self) -> dict:
        return {
            "capacity": self.capacity,
            "dropped_records": self.dropped_records,
            "superstep": self._vm.superstep if self._vm is not None else None,
            "ranks": {
                str(rank): [
                    {"superstep": r.superstep, "kind": r.kind, "detail": r.detail}
                    for r in ring
                ]
                for rank, ring in sorted(self._log.rings().items())
            },
        }

    def dump(self, directory, label: str = "exchange") -> Path:
        """Write the rings as JSON under ``directory`` (created if
        needed); returns the file path.  Called by the verified exchange
        on any ``ExchangeFailure``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        # Per-PID filename: worker processes and the driver can all dump
        # without clobbering each other under fault-reports/.
        path = directory / f"flight-{label}-p{os.getpid()}-{int(time.time() * 1000):x}.json"
        path.write_text(json.dumps(self.snapshot(), indent=1))
        from ..obs.export import rotate_reports

        rotate_reports(directory)
        return path


def machine_report(vm: VirtualMachine) -> dict:
    """Aggregate activity summary of a virtual machine run.

    Includes the runtime's plan-cache counters (``plan_caches``) so
    reports show how much schedule/plan construction was amortized, and
    the machine's observability snapshot (``metrics``/``observability``)
    when an enabled handle is attached.  The plan-cache import is
    deferred: the machine layer does not depend on the runtime package
    at module level.
    """
    from ..runtime.plancache import cache_stats

    net = vm.network.stats
    return {
        "plan_caches": cache_stats(),
        "metrics": vm.obs.metrics.snapshot(),
        "observability": {
            "enabled": vm.obs.enabled,
            "spans": len(vm.obs.trace),
            "dropped_spans": vm.obs.trace.dropped,
            "events": vm.obs.events.count(),
            "dropped_events": vm.obs.events.dropped,
        },
        "ranks": vm.p,
        "messages": net.messages,
        "bytes": net.bytes,
        "channels": dict(net.per_channel),
        "supersteps": vm.network.superstep,
        "network": {
            "sent": net.sent,
            "delivered": net.delivered,
            "dropped": net.dropped,
            "duplicated": net.duplicated,
            "corrupted": net.corrupted,
            "stalled": net.stalled,
            "quarantined": net.quarantined,
            "fault_events": len(vm.network.fault_events),
        },
        "crashes": list(vm.crash_log),
        "dead_ranks": list(vm.dead_ranks),
        "incarnations": [proc.incarnation for proc in vm.processors],
        "memory": [
            {
                "rank": proc.rank,
                "reads": proc.stats.reads,
                "writes": proc.stats.writes,
                "allocations": proc.stats.allocations,
                "allocated_cells": proc.stats.allocated_cells,
                "scribbles": proc.stats.scribbles,
            }
            for proc in vm.processors
        ],
    }


def fault_report(vm: VirtualMachine) -> dict:
    """Summary of the fault trace: per-kind counts plus the ordered
    event list (:class:`repro.machine.faults.FaultEvent` records,
    including ``crash`` / ``restart`` / ``quarantine`` lifecycle events).

    Deterministic given the plan's seed and the program -- two runs with
    the same seed produce identical reports, which is what makes
    fault-injection failures replayable.
    """
    events = list(vm.network.fault_events)
    by_kind: dict[str, int] = {}
    for ev in events:
        by_kind[ev.kind] = by_kind.get(ev.kind, 0) + 1
    return {
        "plan": vm.network.fault_plan,
        "events": events,
        "by_kind": by_kind,
        "supersteps": vm.network.superstep,
        "crashes": list(vm.crash_log),
    }
