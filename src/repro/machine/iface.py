"""The execution-backend seam: what a *machine* is, independent of how
its ranks actually run.

Everything above this layer -- the executors in :mod:`repro.runtime`,
the resilient exchange, checkpointing, the integrity auditor, the
collectives -- drives a distributed-memory machine through a small
surface: per-rank named memory arenas, point-to-point messages that
cross superstep barriers, and a rank crash/restart lifecycle.  This
module owns that surface as two shared base classes:

* :class:`RankState` -- one rank's volatile state, i.e.
  :class:`repro.machine.processor.Processor`; the multiprocess
  backend's rank handles subclass it and swap only the arena storage;
* :class:`Machine` -- the whole machine.  It owns the superstep loop
  (:meth:`Machine.run_spmd`, :meth:`Machine.run`, :meth:`Machine.bsp`),
  the barrier phase order, the crash/restart bookkeeping, scribble
  injection, and the whole-machine conveniences.

Two backends inherit :class:`Machine`:

* :class:`repro.machine.vm.VirtualMachine` -- the in-process simulator,
  deterministic by construction.  It is the **oracle**: every other
  backend must produce bit-identical results under the same seeds
  (``tests/runtime/test_differential.py``).
* :class:`repro.machine.mp.MpMachine` -- each rank a real OS process
  with arenas in ``multiprocessing.shared_memory`` and exchange over
  framed unix-socket packets, supervised with monotonic-clock
  heartbeats and real ``SIGKILL`` crash recovery
  (docs/BACKENDS.md).

A backend supplies only what really differs between substrates: the
messaging ops, barrier delivery, how one rank is killed, respawned or
scribbled, elastic membership, and teardown -- the methods below that
raise :class:`NotImplementedError`, plus the no-op hooks it overrides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from ..obs import Observability
from .processor import Processor

__all__ = [
    "BACKENDS",
    "Machine",
    "NodeContext",
    "RankDied",
    "RankState",
    "create_machine",
]

#: One rank's volatile state: identity, liveness, incarnation, named
#: arenas.  ``incarnation`` counts restarts (so peers and the recovery
#: loop can tell a reboot from a stall) and ``crashed_at`` records the
#: superstep of the latest crash.
RankState = Processor


class RankDied(BaseException):
    """Internal control flow: the rank whose node function is executing
    lost its worker mid-superstep.  Derives from ``BaseException`` so a
    node function's own ``except Exception`` cannot swallow it; the
    machine's run loop converts it into the rank's ``None`` result."""

    def __init__(self, rank: int) -> None:
        super().__init__(rank)
        self.rank = rank


@dataclass
class NodeContext:
    """Per-rank view handed to node programs.

    Backend-agnostic: it drives its machine purely through the
    :class:`Machine` surface (machine-level ``send``/``recv``/``probe``/
    ``drain`` and the rank's :class:`RankState`), so the same node
    function runs unchanged on the in-process oracle and the
    multiprocess backend.
    """

    vm: Any  # any Machine backend
    rank: int

    @property
    def p(self) -> int:
        return self.vm.p

    @property
    def processor(self):
        return self.vm.processors[self.rank]

    def memory(self, name: str):
        return self.processor.memory(name)

    def allocate(self, name: str, size: int, **kw):
        return self.processor.allocate(name, size, **kw)

    def send(self, dest: int, tag: Any, payload: Any) -> None:
        self.vm.send(self.rank, dest, tag, payload)

    def recv(self, source: int, tag: Any) -> Any:
        return self.vm.recv(self.rank, source, tag)

    def probe(self, source: int, tag: Any) -> bool:
        return self.vm.probe(self.rank, source, tag)

    def drain(self, tag: Any) -> list[tuple[int, Any]]:
        return self.vm.drain(self.rank, tag)


class Machine:
    """A ``p``-rank bulk-synchronous distributed-memory machine.

    The contract every executor and resilience layer relies on:

    * **Execution** -- :meth:`run` executes a node function once per
      live rank and then crosses a barrier; messages sent during
      superstep ``t`` are receivable during superstep ``t + 1``.
    * **Messaging** -- :meth:`send` / :meth:`recv` / :meth:`probe` /
      :meth:`drain` are the per-rank mailbox ops (:class:`NodeContext`
      routes through them); :meth:`outstanding` is the host-side
      quiescence check.
    * **Lifecycle** -- ranks crash (losing their volatile arenas and
      in-flight traffic) and restart with a bumped incarnation;
      ``crash_log`` records ``(rank, superstep)`` pairs in the order
      observed.
    * **Elastic membership** -- :meth:`grow_to` appends fresh, empty
      ranks; :meth:`retire_to` fences the top ranks' traffic and removes
      them.  :mod:`repro.runtime.elastic` drives crash-tolerant
      re-layout migrations through this pair.
    * **Hooks** -- ``barrier_hooks`` run at every barrier after node
      execution but before fault injection (the integrity auditor's
      commit point); they receive ``(machine, superstep)``.
    * **Teardown** -- :meth:`close` releases whatever the backend
      holds; machines are context managers that close on exit.
    """

    fault_plan: Any  # the FaultPlan whose schedule the barrier follows
    processors: list[RankState]

    def __init__(self, p: int, obs: Observability | None) -> None:
        if p <= 0:
            raise ValueError(f"need at least one rank, got p={p}")
        self.p = p
        # The machine's observability handle (repro.obs): superstep and
        # barrier spans, network/fault metrics, and the machine-event
        # rings all hang off it.  Disabled (free) unless one is passed.
        self.obs = obs if obs is not None else Observability(enabled=False)
        self.crash_log: list[tuple[int, int]] = []  # (rank, superstep)
        self._restart_at: dict[int, int] = {}
        # Called at every barrier *after* node execution but *before*
        # fault injection (scribbles, crash points) -- the last instant
        # at which every arena still holds only legitimate writes.  The
        # integrity auditor commits its ledger here; the flight recorder
        # syncs here.
        self.barrier_hooks: list[Callable[[Any, int], None]] = []

    # ------------------------------------------------------------------
    # What a backend supplies
    # ------------------------------------------------------------------

    @property
    def superstep(self) -> int:
        """Number of barriers crossed so far (the fault plan's clock)."""
        raise NotImplementedError

    def send(self, source: int, dest: int, tag: Any, payload: Any) -> None:
        raise NotImplementedError

    def recv(self, dest: int, source: int, tag: Any) -> Any:
        raise NotImplementedError

    def probe(self, dest: int, source: int, tag: Any) -> bool:
        raise NotImplementedError

    def drain(self, dest: int, tag: Any) -> list[tuple[int, Any]]:
        raise NotImplementedError

    def outstanding(self, tags: Any) -> int:
        """Pending or delivered-but-unreceived messages with a tag in
        ``tags`` -- the quiescence check of the resilient protocols."""
        raise NotImplementedError

    def grow_to(self, new_p: int) -> None:
        raise NotImplementedError

    def retire_to(self, new_p: int) -> None:
        raise NotImplementedError

    def record_fault(
        self, step: int, kind: str, source: int, dest: int, tag: Any, seq: int
    ) -> None:
        raise NotImplementedError

    def _deliver(self, step: int) -> None:
        """Barrier delivery: this step's sends become receivable, and
        the superstep clock advances."""
        raise NotImplementedError

    def _quarantine(self, rank: int, step: int) -> None:
        """Drop the in-flight traffic of a rank that just crashed."""
        raise NotImplementedError

    def _respawn(self, rank: int) -> None:
        """Bring a restarted rank's execution substrate back up."""
        raise NotImplementedError

    def _scribble(self, rank: int, name: str, salt: int, width: int) -> list[int]:
        """Flip bits in one live arena; returns the touched slots."""
        raise NotImplementedError

    def _kill(self, rank: int) -> None:
        """Really stop a rank that is about to be marked crashed."""

    def _reap(self, step: int) -> None:
        """Fold deaths the backend detected on its own into crash
        bookkeeping (called at each barrier before fault injection)."""

    def close(self) -> None:
        """Release backend resources (the in-process machine hands its
        unshared arenas to the next machine)."""

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, fn: Callable[..., Any], *args: Any) -> list[Any]:
        """Run one superstep: ``fn(ctx, *args)`` on every live rank, then
        a barrier.  Dead ranks skip execution and yield ``None``."""
        return self.run_spmd(fn, [args] * self.p)

    def run_spmd(
        self, fn: Callable[..., Any], per_rank_args: Sequence[tuple] | None = None
    ) -> list[Any]:
        """Superstep with per-rank argument tuples.  A rank whose worker
        dies mid-superstep (:class:`RankDied`) also yields ``None``."""
        if per_rank_args is not None and len(per_rank_args) != self.p:
            raise ValueError(
                f"need {self.p} argument tuples, got {len(per_rank_args)}"
            )
        obs = self.obs
        step = self.superstep
        with obs.span("superstep", step=step):
            self._revive_due()
            results = []
            for rank in range(self.p):
                if not self.processors[rank].alive:
                    results.append(None)
                    continue
                args = per_rank_args[rank] if per_rank_args is not None else ()
                with obs.span("node", rank=rank, step=step):
                    try:
                        results.append(fn(NodeContext(self, rank), *args))
                    except RankDied:
                        results.append(None)
            self._barrier()
        return results

    def bsp(self, *phases: Callable[..., Any]) -> list[list[Any]]:
        """Run a sequence of supersteps.  Messages sent during phase ``t``
        are receivable during phase ``t + 1``.  Returns per-phase,
        per-rank results."""
        if not phases:
            raise ValueError("need at least one phase")
        return [self.run(phase) for phase in phases]

    def _barrier(self) -> None:
        """Superstep barrier: run the legitimate-write hooks, reap deaths
        the backend noticed, fire this step's scribble points (in-arena
        bit rot) and crash points (quarantining the victims' in-flight
        sends), then deliver."""
        step = self.superstep
        with self.obs.span("barrier", step=step):
            for hook in self.barrier_hooks:
                hook(self, step)
            self._reap(step)
            plan = self.fault_plan
            if plan is not None:
                self._inject_scribbles(plan, step)
                for rank in range(self.p):
                    if self.processors[rank].alive and plan.crashed(step, rank):
                        self._kill_rank(rank, step, plan.crash_downtime)
            self._deliver(step)
        self.obs.inc("vm.supersteps")

    def _inject_scribbles(self, plan, step: int) -> None:
        """Fire this barrier's ``(superstep, rank, arena)`` scribble
        points: flip bits inside live arenas, in place.  Runs *after*
        the barrier hooks, so an attached auditor's ledger reflects the
        pre-rot state -- that ordering is what makes the corruption
        detectable at all."""
        if plan.scribble <= 0.0 and not plan.forced_scribbles:
            return
        for rank in range(self.p):
            proc = self.processors[rank]
            if not proc.alive:
                continue  # nothing to rot: a dead rank's memory is gone
            for name in proc.memory_names:
                if not plan.scribbled(step, rank, name):
                    continue
                salt = plan.scribble_salt(step, rank, name)
                try:
                    touched = self._scribble(rank, name, salt, plan.scribble_width)
                except RankDied:
                    break  # rank died under us; it has no arenas now
                if not touched:
                    continue
                proc.stats.scribbles += 1
                self.record_fault(step, "scribble", rank, -1, name, touched[0])

    # ------------------------------------------------------------------
    # Crash lifecycle
    # ------------------------------------------------------------------

    def alive(self, rank: int) -> bool:
        return self.processors[rank].alive

    @property
    def dead_ranks(self) -> tuple[int, ...]:
        return tuple(r for r in range(self.p) if not self.processors[r].alive)

    def _default_downtime(self) -> int:
        plan = self.fault_plan
        return plan.crash_downtime if plan is not None else 1

    def crash_rank(self, rank: int, downtime: int | None = None) -> None:
        """Kill ``rank`` at the current superstep (outside any fault
        plan): memory wiped, in-flight messages quarantined, automatic
        restart ``downtime`` supersteps later (default: the plan's
        ``crash_downtime``, or 1).  Killing a dead rank is an error."""
        if downtime is None:
            downtime = self._default_downtime()
        if downtime < 1:
            raise ValueError(f"downtime must be >= 1 superstep, got {downtime}")
        if not self.processors[rank].alive:
            raise RuntimeError(f"rank {rank} is already dead")
        self._kill_rank(rank, self.superstep, downtime)

    def _kill_rank(self, rank: int, step: int, downtime: int) -> None:
        self._kill(rank)
        self._crash(rank, step, downtime)

    def _crash(self, rank: int, step: int, downtime: int) -> None:
        """Crash bookkeeping: wipe the rank, quarantine its traffic, log
        it, and schedule its restart.  Idempotent, since a backend may
        detect one death twice in a step."""
        proc = self.processors[rank]
        if not proc.alive:
            return
        proc.crash(step)
        self._quarantine(rank, step)
        self.record_fault(step, "crash", rank, -1, None, 0)
        self.crash_log.append((rank, step))
        self._restart_at[rank] = step + 1 + downtime

    def _revive_due(self) -> None:
        """Restart dead ranks whose downtime has elapsed (called before
        each superstep's execution): alive again under a bumped
        incarnation, arenas empty -- restoring state is the job of
        :mod:`repro.machine.checkpoint`."""
        step = self.superstep
        for rank, when in list(self._restart_at.items()):
            if step >= when:
                proc = self.processors[rank]
                proc.restart()
                self._respawn(rank)
                self.record_fault(step, "restart", rank, -1, None, proc.incarnation)
                del self._restart_at[rank]

    # ------------------------------------------------------------------
    # Whole-machine conveniences
    # ------------------------------------------------------------------

    def allocate_all(self, name: str, sizes: Iterable[int], **kw) -> None:
        """Allocate a named arena on every rank (``sizes`` per rank)."""
        sizes = list(sizes)
        if len(sizes) != self.p:
            raise ValueError(f"need {self.p} sizes, got {len(sizes)}")
        for proc, size in zip(self.processors, sizes):
            proc.allocate(name, size, **kw)

    def memories(self, name: str) -> list:
        return [proc.memory(name) for proc in self.processors]

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


#: Backend registry for :func:`create_machine`.  Values are import
#: paths resolved lazily so importing the machine package never drags
#: in the multiprocess machinery (sockets, shared memory) unless asked.
BACKENDS = {
    "inprocess": ("repro.machine.vm", "VirtualMachine"),
    "mp": ("repro.machine.mp", "MpMachine"),
}


def create_machine(p: int, backend: str = "inprocess", **kw) -> Machine:
    """Construct a machine by backend name.

    ``create_machine(p, "inprocess", fault_plan=...)`` returns the
    deterministic in-process oracle; ``create_machine(p, "mp", ...)``
    the real-process backend (see :class:`repro.machine.mp.MpConfig`
    for its keyword knobs).  Both accept ``fault_plan`` and ``obs``.
    """
    try:
        module_name, cls_name = BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; known backends: {sorted(BACKENDS)}"
        ) from None
    import importlib

    cls = getattr(importlib.import_module(module_name), cls_name)
    return cls(p, **kw)
