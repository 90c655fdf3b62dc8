"""Bulk-synchronous SPMD virtual machine.

The paper's experiments ran SPMD node programs on a 32-node iPSC/860;
this module provides the deterministic stand-in (see DESIGN.md's
substitution table).  A *node program* is a Python callable
``fn(ctx, *args)`` executed once per rank.  Execution is
bulk-synchronous: within one superstep every rank runs to completion in
rank order, sends are buffered, and a barrier delivers them for the
next superstep.  ``ctx.barrier()`` may also be called *inside* a node
program -- it splits the program into supersteps using generator-style
re-execution-free coroutines (the node function simply returns, and the
next phase function receives the delivered messages).

For programs that need receives of same-step sends, use
:meth:`VirtualMachine.bsp` with explicit phase functions -- the idiom
all of :mod:`repro.runtime` uses (compute send sets / exchange / apply).
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np

from ..obs import Observability
from .faults import FaultPlan, scribble_arena
from .iface import Machine, NodeContext
from .network import Network
from .processor import Processor

__all__ = ["NodeContext", "VirtualMachine"]

#: Arenas of fewer bytes are never handed on: below glibc's default
#: ``mmap`` threshold the allocator recycles freed chunks without
#: re-faulting them, so holding small spares back only adds to the peak
#: resident set (handing on every arena gained no setup time on the e2e
#: workloads and cost ``layout-sweep`` 0.6 MB of peak RSS).
_SPARE_MIN_BYTES = 128 * 1024

#: The unshared arenas of the most recently closed machine, by
#: ``(dtype, size)``; the next machine takes them, and whatever it does
#: not claim is dropped when it closes in turn.  Process-wide on
#: purpose: callers build each machine afresh (one per program run), so
#: there is no object to carry the arenas from one to the next.
_released: dict[tuple[np.dtype, int], list[np.ndarray]] = {}
#: Makes taking :data:`_released` one step, so no two machines share it.
_released_lock = threading.Lock()


class VirtualMachine(Machine):
    """A simulated ``p``-rank distributed-memory machine.

    Pass a :class:`~repro.machine.faults.FaultPlan` to make the
    interconnect adversarial (deterministically, in the plan's seed);
    see docs/FAULT_MODEL.md and :mod:`repro.runtime.resilient` for the
    protocol that survives it.  Plans with crash points (or explicit
    :meth:`crash_rank` calls) kill whole ranks at barriers: a dead rank
    skips execution, its in-flight traffic is quarantined, and after its
    downtime it restarts with wiped memory -- state restoration is the
    job of :mod:`repro.machine.checkpoint`.  The superstep loop and the
    lifecycle bookkeeping live in :class:`~repro.machine.iface.Machine`;
    this backend supplies the in-process :class:`Network`.  :meth:`close`
    releases the arenas for the next machine to reuse.
    """

    def __init__(
        self,
        p: int,
        fault_plan: FaultPlan | None = None,
        obs: Observability | None = None,
    ) -> None:
        global _released
        super().__init__(p, obs)
        with _released_lock:
            self._spares, _released = _released, {}
        self.processors = [Processor(rank, self._spares) for rank in range(p)]
        self.network = Network(p, fault_plan=fault_plan, obs=self.obs)

    @property
    def superstep(self) -> int:
        """Number of barriers crossed so far (the fault plan's clock)."""
        return self.network.superstep

    @property
    def fault_plan(self) -> FaultPlan | None:
        return self.network.fault_plan

    @property
    def profile(self):
        """The attached :class:`repro.obs.profile.ProfileCollector`, if
        any -- the traffic seam lives on the network, where sends and
        barrier deliveries happen."""
        return self.network.profile

    @profile.setter
    def profile(self, collector) -> None:
        self.network.profile = collector

    # ------------------------------------------------------------------
    # Machine-level messaging (the in-process backend simply delegates
    # to its Network)
    # ------------------------------------------------------------------

    def send(self, source: int, dest: int, tag: Any, payload: Any) -> None:
        self.network.send(source, dest, tag, payload)

    def recv(self, dest: int, source: int, tag: Any) -> Any:
        return self.network.recv(dest, source, tag)

    def probe(self, dest: int, source: int, tag: Any) -> bool:
        return self.network.probe(dest, source, tag)

    def drain(self, dest: int, tag: Any) -> list[tuple[int, Any]]:
        return self.network.drain(dest, tag)

    def outstanding(self, tags: Any) -> int:
        return self.network.outstanding(tags)

    def record_fault(
        self, step: int, kind: str, source: int, dest: int, tag: Any, seq: int
    ) -> None:
        self.network.record_fault(step, kind, source, dest, tag, seq)

    # ------------------------------------------------------------------
    # Barrier and lifecycle hooks
    # ------------------------------------------------------------------

    def _deliver(self, step: int) -> None:
        self.network.deliver()

    def _quarantine(self, rank: int, step: int) -> None:
        self.network.mark_dead(rank, step)

    def _respawn(self, rank: int) -> None:
        self.network.mark_alive(rank)

    def _scribble(self, rank: int, name: str, salt: int, width: int) -> list[int]:
        return scribble_arena(self.processors[rank].memory(name), salt, width)

    # ------------------------------------------------------------------
    # Elastic membership
    # ------------------------------------------------------------------

    def grow_to(self, new_p: int) -> None:
        """Add ranks ``p .. new_p-1`` to the machine (empty memories,
        alive, incarnation 0).  Existing ranks, their arenas, and any
        in-flight traffic are untouched."""
        if new_p <= self.p:
            raise ValueError(f"grow_to({new_p}) from p={self.p}: need new_p > p")
        step = self.network.superstep
        for rank in range(self.p, new_p):
            self.processors.append(Processor(rank, self._spares))
        self.network.resize(new_p)
        self.p = new_p
        self.obs.inc("elastic.grow")
        self.network.record_fault(step, "grow", -1, -1, None, new_p)

    def retire_to(self, new_p: int) -> None:
        """Retire ranks ``new_p .. p-1``: their arenas are freed, their
        in-flight traffic is quarantined (like a crash, but permanent),
        and the machine shrinks to ``new_p`` ranks.  Surviving ranks are
        untouched."""
        if not 0 < new_p < self.p:
            raise ValueError(f"retire_to({new_p}) from p={self.p}: need 0 < new_p < p")
        step = self.network.superstep
        for rank in range(new_p, self.p):
            self._restart_at.pop(rank, None)
        self.network.resize(new_p)
        del self.processors[new_p:]
        self.p = new_p
        self.obs.inc("elastic.retire")
        self.network.record_fault(step, "retire", -1, -1, None, new_p)

    def close(self) -> None:
        """Release every arena for reuse: each one nothing else
        references (no view, export or caller holds it) goes to the next
        machine built in this process; afterwards every rank's
        :meth:`~repro.machine.processor.Processor.memory` raises
        ``KeyError``."""
        global _released
        released: dict[tuple[np.dtype, int], list[np.ndarray]] = {}
        for proc in self.processors:
            proc.release(released, _SPARE_MIN_BYTES)
        self._spares.clear()
        _released = released

    def reset_stats(self) -> None:
        from .network import NetworkStats
        from .processor import MemoryStats

        self.network.stats = NetworkStats()
        self.network.fault_events.clear()
        for proc in self.processors:
            proc.stats = MemoryStats()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VirtualMachine(p={self.p})"
