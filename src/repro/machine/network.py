"""Deterministic message-passing fabric for the SPMD simulator.

Substitutes for the iPSC/860's interconnect (see DESIGN.md).  Messages
are delivered in FIFO order per ``(source, destination, tag)`` channel;
delivery is deterministic because node programs execute in
bulk-synchronous supersteps (:mod:`repro.machine.vm`): everything sent
during superstep ``t`` is available to receives in superstep ``t + 1``.

A network may carry a :class:`~repro.machine.faults.FaultPlan`, in which
case :meth:`Network.deliver` consults it per message and may drop,
duplicate, reorder, or corrupt traffic, or hold back a stalled rank's
sends for one superstep (see docs/FAULT_MODEL.md).  Without a plan the
fabric is perfect, as before.

Byte accounting uses ``numpy`` buffer sizes when available and
``sys.getsizeof`` otherwise, so benchmarks can report traffic volumes.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..obs import Observability
from .faults import FaultEvent, FaultPlan, corrupt_payload, plan_channel_delivery

__all__ = ["Message", "Network", "NetworkStats", "payload_nbytes"]


def payload_nbytes(payload: Any, _depth: int = 0) -> int:
    """Approximate wire size of a payload in bytes.

    Objects exposing an integer ``nbytes`` (NumPy arrays and scalars,
    the resilient protocol's packets) report their buffer size exactly;
    byte strings their length.  Lists, tuples, and dicts recurse **one
    level** (dicts over keys *and* values) so that e.g. a list of arrays
    or a header dict of buffers counts the element buffers, not just
    ``sys.getsizeof``'s pointer-table size -- deeper nesting and other
    containers still fall back to ``sys.getsizeof``, which measures the
    container shell only.  The result is an accounting approximation,
    not a serialization: Python object headers and deep structure are
    deliberately not charged.
    """
    nbytes = getattr(payload, "nbytes", None)
    if isinstance(nbytes, (int, np.integer)):
        return int(nbytes)
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, (list, tuple)) and _depth == 0:
        return sys.getsizeof(payload) + sum(
            payload_nbytes(item, _depth=1) for item in payload
        )
    if isinstance(payload, dict) and _depth == 0:
        return sys.getsizeof(payload) + sum(
            payload_nbytes(k, _depth=1) + payload_nbytes(v, _depth=1)
            for k, v in payload.items()
        )
    return sys.getsizeof(payload)


@dataclass(frozen=True, slots=True)
class Message:
    """One point-to-point message.

    ``nbytes`` is the payload's :func:`payload_nbytes`, fixed when the
    message is built at send time: every later charge (delivery, drop,
    quarantine, trace) reuses it.  A corrupted copy is a new message and
    is sized anew.
    """

    source: int
    dest: int
    tag: Any
    payload: Any
    nbytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nbytes", payload_nbytes(self.payload))


@dataclass
class NetworkStats:
    """Traffic counters, split into *sent* vs *delivered* vs *dropped*.

    ``messages`` / ``bytes`` count sends (the legacy counters every
    benchmark reports); ``delivered`` / ``bytes_delivered`` count what
    actually crossed the barrier into a receive queue (duplicates
    included), and ``dropped`` / ``bytes_dropped`` what the fault plan
    discarded.  On a fault-free network ``delivered == messages`` once
    everything pending has crossed a barrier.
    """

    messages: int = 0
    bytes: int = 0
    per_channel: dict[tuple[int, int], int] = field(default_factory=dict)
    delivered: int = 0
    bytes_delivered: int = 0
    dropped: int = 0
    bytes_dropped: int = 0
    duplicated: int = 0
    corrupted: int = 0
    stalled: int = 0
    quarantined: int = 0
    bytes_quarantined: int = 0

    @property
    def sent(self) -> int:
        """Alias for ``messages`` under the sent/delivered/dropped split."""
        return self.messages

    @property
    def bytes_sent(self) -> int:
        return self.bytes

    def record(self, msg: Message) -> None:
        self.messages += 1
        self.bytes += msg.nbytes
        key = (msg.source, msg.dest)
        self.per_channel[key] = self.per_channel.get(key, 0) + 1

    def record_delivered(self, msg: Message) -> None:
        self.delivered += 1
        self.bytes_delivered += msg.nbytes

    def record_dropped(self, msg: Message) -> None:
        self.dropped += 1
        self.bytes_dropped += msg.nbytes

    def record_quarantined(self, msg: Message) -> None:
        self.quarantined += 1
        self.bytes_quarantined += msg.nbytes


class Network:
    """Point-to-point channels between ``p`` ranks with BSP delivery.

    ``send`` enqueues into the *pending* buffer; :meth:`deliver` (called
    by the VM at superstep barriers) moves pending messages into the
    receivable queues.  ``recv`` raises :class:`LookupError` when no
    matching message has been delivered -- in a correct BSP program that
    is a programming error, not a race.

    With a ``fault_plan``, :meth:`deliver` becomes adversarial (drops,
    duplicates, reorders, corruption, stalls) while staying fully
    deterministic in the plan's seed; every injected fault is appended
    to :attr:`fault_events`.
    """

    def __init__(
        self,
        p: int,
        fault_plan: FaultPlan | None = None,
        obs: Observability | None = None,
    ) -> None:
        if p <= 0:
            raise ValueError(f"need at least one rank, got p={p}")
        self.p = p
        self.fault_plan = fault_plan
        self.superstep = 0
        self._pending: list[Message] = []
        self._queues: dict[tuple[int, int, Any], deque[Message]] = {}
        self.stats = NetworkStats()
        self.fault_events: list[FaultEvent] = []
        self.dead: set[int] = set()  # ranks whose NIC is down (crashed)
        # The observability sink for deliveries and faults: metric
        # counters when enabled, and the per-rank machine-event rings
        # the flight recorder is a view over (see repro.obs).
        self.obs = obs if obs is not None else Observability(enabled=False)
        # Optional per-superstep traffic sink: a
        # :class:`repro.obs.profile.ProfileCollector` while one is
        # attached, consulted on every send and delivered copy.
        self.profile = None

    def _observe(self, event: str, msg: Message, step: int) -> None:
        """Route a traffic event into the machine-event rings: sends to
        the source's ring, deliveries to the destination's, quarantines
        to both endpoints (drops go through :meth:`record_fault`)."""
        events = self.obs.events
        if not events.enabled:
            return
        detail = f"{msg.source}->{msg.dest} tag={msg.tag!r} {msg.nbytes}B"
        if event == "send":
            events.record(msg.source, step, event, detail)
        elif event == "deliver":
            events.record(msg.dest, step, event, detail)
        else:
            events.record(msg.source, step, event, detail)
            if msg.dest != msg.source:
                events.record(msg.dest, step, event, detail)

    def record_fault(
        self, step: int, kind: str, source: int, dest: int, tag: Any, seq: int
    ) -> None:
        """Single entry point for injected-fault bookkeeping: appends to
        :attr:`fault_events` (the deterministic replay trace), bumps the
        per-kind fault counter, and lands a machine event in the
        victim's ring.  The VM routes crash/restart/scribble lifecycle
        events through here too."""
        self.fault_events.append(FaultEvent(step, kind, source, dest, tag, seq))
        obs = self.obs
        obs.inc(f"faults.{kind}")
        if obs.events.enabled:
            rank = source if dest < 0 else dest
            obs.events.record(
                rank, step, kind,
                f"src={source} dest={dest} tag={tag!r} seq={seq}",
            )

    def _check_rank(self, rank: int, what: str) -> None:
        if not 0 <= rank < self.p:
            raise ValueError(f"{what} rank {rank} out of range [0, {self.p})")

    def send(self, source: int, dest: int, tag: Any, payload: Any) -> None:
        self._check_rank(source, "source")
        self._check_rank(dest, "destination")
        msg = Message(source, dest, tag, payload)
        self._pending.append(msg)
        self.stats.record(msg)
        obs = self.obs
        if obs.enabled:
            nbytes = msg.nbytes
            obs.inc("net.messages_sent")
            obs.inc("net.bytes_sent", nbytes)
            obs.observe("net.message_bytes", nbytes)
        if self.profile is not None:
            self.profile.record_send(self.superstep, source, dest, msg.nbytes)
        self._observe("send", msg, self.superstep)

    # ------------------------------------------------------------------
    # Crash quarantine
    # ------------------------------------------------------------------

    def mark_dead(self, rank: int, superstep: int | None = None) -> int:
        """Take ``rank``'s NIC down: its in-flight messages (pending
        sends *and* delivered-but-unreceived traffic addressed to it)
        are quarantined -- removed and counted, never delivered.  While
        dead, anything addressed to the rank is quarantined at the next
        barrier.  Returns the number of messages quarantined now."""
        self._check_rank(rank, "dead")
        self.dead.add(rank)
        step = self.superstep if superstep is None else superstep
        gone = 0
        keep: list[Message] = []
        for msg in self._pending:
            if msg.source == rank or msg.dest == rank:
                self._quarantine(msg, step)
                gone += 1
            else:
                keep.append(msg)
        self._pending = keep
        for (source, dest, tag), queue in self._queues.items():
            if dest == rank:
                while queue:
                    self._quarantine(queue.popleft(), step)
                    gone += 1
        return gone

    def mark_alive(self, rank: int) -> None:
        self.dead.discard(rank)

    # ------------------------------------------------------------------
    # Elastic membership
    # ------------------------------------------------------------------

    def resize(self, new_p: int) -> int:
        """Change the rank count of the fabric (elastic membership).

        Growing simply widens the valid rank range -- channels are
        created lazily, so no other state changes.  Shrinking fences the
        retired ranks first: any pending send and any
        delivered-but-unreceived message touching a rank ``>= new_p`` is
        quarantined (counted, never delivered), exactly like a crashed
        rank's traffic, so a retired rank can never leak stale messages
        into a later membership epoch.  Returns the number of messages
        quarantined."""
        if new_p <= 0:
            raise ValueError(f"need at least one rank, got p={new_p}")
        if new_p >= self.p:
            self.p = new_p
            return 0
        step = self.superstep
        gone = 0
        keep: list[Message] = []
        for msg in self._pending:
            if msg.source >= new_p or msg.dest >= new_p:
                self._quarantine(msg, step)
                gone += 1
            else:
                keep.append(msg)
        self._pending = keep
        for (source, dest, tag), queue in list(self._queues.items()):
            if source >= new_p or dest >= new_p:
                while queue:
                    self._quarantine(queue.popleft(), step)
                    gone += 1
                del self._queues[(source, dest, tag)]
        self.dead = {rank for rank in self.dead if rank < new_p}
        self.p = new_p
        return gone

    def _quarantine(self, msg: Message, step: int) -> None:
        self.stats.record_quarantined(msg)
        self.fault_events.append(
            FaultEvent(step, "quarantine", msg.source, msg.dest, msg.tag, 0)
        )
        obs = self.obs
        if obs.enabled:
            obs.inc("net.messages_quarantined")
            obs.inc("net.bytes_quarantined", msg.nbytes)
        self._observe("quarantine", msg, step)

    # ------------------------------------------------------------------
    # Barrier
    # ------------------------------------------------------------------

    def deliver(self) -> int:
        """Barrier: make pending messages receivable, consulting the
        fault plan (if any) per message.  Returns the number of messages
        made receivable (duplicates count)."""
        step = self.superstep
        self.superstep += 1
        if self.dead:
            # Traffic touching a downed NIC never crosses the barrier.
            live: list[Message] = []
            for msg in self._pending:
                if msg.source in self.dead or msg.dest in self.dead:
                    self._quarantine(msg, step)
                else:
                    live.append(msg)
            self._pending = live
        plan = self.fault_plan
        if plan is None:
            n = len(self._pending)
            for msg in self._pending:
                key = (msg.source, msg.dest, msg.tag)
                self._queues.setdefault(key, deque()).append(msg)
                self.stats.record_delivered(msg)
                self._record_delivered_obs(msg, step)
                self._observe("deliver", msg, step)
            self._pending.clear()
            return n
        return self._deliver_faulty(plan, step)

    def _record_delivered_obs(self, msg: Message, step: int) -> None:
        obs = self.obs
        if obs.enabled:
            obs.inc("net.messages_delivered")
            obs.inc("net.bytes_delivered", msg.nbytes)
        if self.profile is not None:
            self.profile.record_delivery(step, msg.source, msg.dest, msg.nbytes)

    def _deliver_faulty(self, plan: FaultPlan, step: int) -> int:
        # Stalled ranks: their messages stay pending until a barrier at
        # which the plan lets the rank through.
        held: list[Message] = []
        batch: list[Message] = []
        stalled_ranks: set[int] = set()
        for msg in self._pending:
            if plan.stalled(step, msg.source):
                held.append(msg)
                if msg.source not in stalled_ranks:
                    stalled_ranks.add(msg.source)
                    self.record_fault(step, "stall", msg.source, -1, None, 0)
                self.stats.stalled += 1
            else:
                batch.append(msg)
        self._pending = held

        # Group the surviving batch per channel, preserving send order,
        # so reordering and per-message sequence numbers are well defined.
        channels: dict[tuple[int, int], list[Message]] = {}
        for msg in batch:
            channels.setdefault((msg.source, msg.dest), []).append(msg)

        delivered = 0
        for (source, dest), msgs in channels.items():
            # The delivery schedule comes from the backend-shared
            # helper so the in-process oracle and the multiprocess
            # worker apply byte-identical fault schedules per seed.
            actions, reordered = plan_channel_delivery(
                plan, step, source, dest, len(msgs)
            )
            if reordered:
                self.record_fault(step, "reorder", source, dest, None, len(msgs))
            for act in actions:
                msg = msgs[act.index]
                if act.drop:
                    self.record_fault(step, "drop", source, dest, msg.tag, act.seq)
                    self.stats.record_dropped(msg)
                    if self.obs.enabled:
                        self.obs.inc("net.messages_dropped")
                        self.obs.inc("net.bytes_dropped", msg.nbytes)
                    continue
                if act.corrupt_salt is not None:
                    msg = Message(
                        msg.source,
                        msg.dest,
                        msg.tag,
                        corrupt_payload(msg.payload, act.corrupt_salt),
                    )
                    self.record_fault(step, "corrupt", source, dest, msg.tag, act.seq)
                    self.stats.corrupted += 1
                if act.copies > 1:
                    self.record_fault(
                        step, "duplicate", source, dest, msg.tag, act.seq
                    )
                    self.stats.duplicated += 1
                key = (msg.source, msg.dest, msg.tag)
                for _ in range(act.copies):
                    self._queues.setdefault(key, deque()).append(msg)
                    self.stats.record_delivered(msg)
                    self._record_delivered_obs(msg, step)
                    self._observe("deliver", msg, step)
                    delivered += 1
        return delivered

    # ------------------------------------------------------------------
    # Receives
    # ------------------------------------------------------------------

    def recv(self, dest: int, source: int, tag: Any) -> Any:
        """Receive the next delivered message on ``(source, dest, tag)``."""
        key = (source, dest, tag)
        queue = self._queues.get(key)
        if not queue:
            raise LookupError(
                f"rank {dest}: no delivered message from {source} with tag {tag!r} "
                "(BSP programs may only receive what a previous superstep sent)"
            )
        return queue.popleft().payload

    def probe(self, dest: int, source: int, tag: Any) -> bool:
        """True when a matching delivered message is waiting."""
        queue = self._queues.get((source, dest, tag))
        return bool(queue)

    def drain(self, dest: int, tag: Any) -> list[tuple[int, Any]]:
        """Receive every delivered message for ``dest`` with ``tag``, as
        ``(source, payload)`` pairs in source order."""
        out = []
        for source in range(self.p):
            key = (source, dest, tag)
            queue = self._queues.get(key)
            while queue:
                out.append((source, queue.popleft().payload))
        return out

    def outstanding(self, tags: Any) -> int:
        """Number of pending or delivered-but-unreceived messages whose
        tag is in ``tags`` -- the host-side quiescence check resilient
        protocols use before declaring their channels drained."""
        tags = set(tags)
        n = sum(1 for msg in self._pending if msg.tag in tags)
        for (_, _, tag), queue in self._queues.items():
            if tag in tags:
                n += len(queue)
        return n

    @property
    def idle(self) -> bool:
        """No pending and no undelivered messages remain."""
        return not self._pending and all(not q for q in self._queues.values())
