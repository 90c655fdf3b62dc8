"""The multiprocess machine: real processes under a crash-tolerant driver.

:class:`MpMachine` is the :class:`~repro.machine.iface.Machine`
backend with one real OS process per rank
(:mod:`repro.machine.mp.worker`), arenas in POSIX shared memory
(:mod:`repro.machine.mp.shm`), peer exchange over framed unix-domain
sockets (:mod:`repro.machine.mp.framing`), and supervision --
exit-code polling, heartbeat suspicion, ``SIGKILL`` fencing, restart
with incarnation bump -- in :mod:`repro.machine.mp.supervisor`.

Node functions still execute on the driver (they are closures over
host-side protocol state), driving their rank's worker through control
commands; what is *real* is everything underneath: the bytes in the
arenas, the frames on the wire, and the deaths.  ``kill -9`` of a rank
worker mid-exchange is detected (exit code or stale heartbeat within a
monotonic deadline), converted into the same crash bookkeeping the
in-process oracle produces (``crash_log`` entry, quarantined traffic,
scheduled restart with a new incarnation), and recovered through the
ordinary checkpoint/replay path of :mod:`repro.runtime.resilient` --
which is why every tier-1 program is bit-identical across backends
under the same seeds (``tests/runtime/test_differential.py``, and
docs/BACKENDS.md for the full story).

Teardown is orphan-free by construction: an explicit :meth:`close` (or
context-manager exit) shuts workers down gracefully then escalates;
a ``weakref.finalize`` backstop kills processes, unlinks every
shared-memory segment, and removes the session directory even when the
driver is garbage-collected or the interpreter exits without cleanup.
"""

from __future__ import annotations

import os
import selectors
import shutil
import socket
import tempfile
import weakref
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from ...obs import Observability
from ..faults import FaultEvent, FaultPlan
from ..iface import Machine, RankDied
from ..network import Message, NetworkStats
from ..processor import MemoryStats, Processor
from .framing import FrameError, recv_frame, send_frame
from .shm import ShmArena
from .supervisor import Supervisor
from .timeouts import Deadline
from .worker import ctrl_path, hb_path

__all__ = ["MpConfig", "MpError", "MpMachine", "RankHandle"]


class MpError(RuntimeError):
    """Unrecoverable backend failure (a *diagnostic*, never a hang)."""


@dataclass(frozen=True)
class MpConfig:
    """Timing knobs of the multiprocess backend.

    Every value feeds a ``time.monotonic()``-based
    :class:`~repro.machine.mp.timeouts.Deadline`.  ``mark_timeout`` is
    how long a worker waits for peers' barrier marks before reporting
    them missing; ``suspect_after`` is the heartbeat staleness bound
    beyond which a live-looking process is fenced with ``SIGKILL``.
    ``fork`` is the default start method (fast, Linux-native); the
    backend also runs under ``spawn`` (exercised by the test suite)
    since every worker input is picklable and the entry point is
    importable.
    """

    start_method: str = "fork"
    hb_interval: float = 0.05
    suspect_after: float = 2.0
    mark_timeout: float = 2.0
    barrier_grace: float = 2.0
    connect_timeout: float = 2.0
    ctrl_timeout: float = 10.0
    spawn_timeout: float = 20.0
    shutdown_timeout: float = 2.0


class RankHandle(Processor):
    """Driver-side :class:`~repro.machine.iface.RankState` for one rank.

    A :class:`~repro.machine.processor.Processor` whose arenas are
    driver-owned shared-memory segments
    (:class:`~repro.machine.mp.shm.ShmArena`): the rank's worker process
    maps the same bytes, so worker-side writes (scribbles) are visible
    here without copies, and checkpoint capture/restore work unchanged.
    Only arena creation, :meth:`free`, and the crash wipe differ.
    """

    def __init__(self, rank: int, registry: set[str]) -> None:
        super().__init__(rank)
        self._registry = registry  # session-wide shm names, for teardown
        self._segments: dict[str, ShmArena] = {}

    def _new_arena(self, name: str, size: int, dtype, fill) -> np.ndarray:
        if name in self._segments:
            self.free(name)
        arena = ShmArena(name, size, dtype, fill)
        self._segments[name] = arena
        self._registry.add(arena.shm_name)
        return arena.array

    def free(self, name: str) -> None:
        # The driver-side view must go before its segment can close.
        super().free(name)
        self._unlink(self._segments.pop(name))

    def _wipe(self) -> None:
        super()._wipe()
        for arena in self._segments.values():
            self._unlink(arena)
        self._segments.clear()

    def _unlink(self, arena: ShmArena) -> None:
        self._registry.discard(arena.shm_name)
        arena.close(unlink=True)

    def shm_arena(self, name: str) -> ShmArena:
        """The backing segment (the scribble command needs its name)."""
        return self._segments[name]


def _teardown(
    supervisor: Supervisor,
    shm_names: set[str],
    session_dir: str,
    socks: list,
) -> None:
    """Last-resort resource reaper, runnable without the machine object
    (``weakref.finalize`` target): kill the fleet, unlink every segment,
    remove the session directory.  Idempotent and exception-free."""
    try:
        supervisor.shutdown_all(1.0)
    except Exception:
        pass
    for sock in socks:
        try:
            sock.close()
        except Exception:
            pass
    for name in list(shm_names):
        try:
            os.unlink(f"/dev/shm/{name}")
        except OSError:
            pass
        shm_names.discard(name)
    shutil.rmtree(session_dir, ignore_errors=True)


class MpMachine(Machine):
    """A ``p``-rank machine whose ranks are real, killable processes.

    Drop-in for :class:`~repro.machine.vm.VirtualMachine`: both inherit
    the superstep loop, barrier phase order, and crash bookkeeping of
    :class:`~repro.machine.iface.Machine`, and share the fault-plan
    schedule (via :func:`~repro.machine.faults.plan_channel_delivery`)
    -- plus real ``SIGKILL`` kill points and detection of deaths nobody
    scheduled.
    """

    def __init__(
        self,
        p: int,
        fault_plan: FaultPlan | None = None,
        obs: Observability | None = None,
        config: MpConfig | None = None,
        **overrides: Any,
    ) -> None:
        super().__init__(p, obs)
        self.fault_plan = fault_plan
        self.config = replace(config or MpConfig(), **overrides)
        self._shm_names: set[str] = set()
        self.processors = [RankHandle(rank, self._shm_names) for rank in range(p)]
        self.stats = NetworkStats()
        self.fault_events: list[FaultEvent] = []
        self._superstep = 0
        self._staged: dict[int, list[tuple[int, Any, Any]]] = {
            r: [] for r in range(p)
        }
        # Optional per-superstep traffic sink (repro.obs.profile): sends
        # are recorded here (they stage driver-side anyway), deliveries
        # from the per-source deltas in the workers' barrier replies.
        self.profile = None
        self._session_dir = tempfile.mkdtemp(prefix="repro-mp-")
        self._socks: list = []
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(ctrl_path(self._session_dir))
        self._listener.listen(p + 2)
        self._socks.append(self._listener)
        self._hb_sock = socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM)
        self._hb_sock.bind(hb_path(self._session_dir))
        self._hb_sock.setblocking(False)
        self._socks.append(self._hb_sock)
        self.supervisor = Supervisor(
            self._session_dir,
            self.config.start_method,
            self._hb_sock,
            self.config.suspect_after,
        )
        self._ctrl: dict[int, socket.socket] = {}
        self._finalizer = weakref.finalize(
            self, _teardown, self.supervisor, self._shm_names,
            self._session_dir, self._socks,
        )
        try:
            for rank in range(p):
                self._spawn(rank)
            self._await_hello(set(range(p)))
        except Exception:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------

    def _spawn(self, rank: int) -> None:
        handle = self.processors[rank]
        spec = {
            "rank": rank,
            "incarnation": handle.incarnation,
            "p": self.p,
            "plan": self.fault_plan,
            "session_dir": self._session_dir,
            "hb_interval": self.config.hb_interval,
            "mark_timeout": self.config.mark_timeout,
            "connect_timeout": self.config.connect_timeout,
        }
        self.supervisor.spawn(rank, handle.incarnation, spec)

    def _await_hello(self, expected: set[int]) -> None:
        """Accept control connections until every expected rank has
        identified itself (bounded; a worker that never says hello is a
        spawn failure, not a hang)."""
        deadline = Deadline(self.config.spawn_timeout)
        waiting = dict.fromkeys(expected)
        while waiting:
            if deadline.expired():
                raise MpError(
                    f"workers {sorted(waiting)} never connected within "
                    f"{self.config.spawn_timeout}s"
                )
            self._listener.settimeout(max(deadline.remaining(), 0.05))
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            hello = recv_frame(conn, Deadline(deadline.remaining() + 0.5))
            rank = hello["rank"]
            old = self._ctrl.get(rank)
            if old is not None:
                try:
                    old.close()
                except OSError:
                    pass
                if old in self._socks:
                    self._socks.remove(old)
            self._ctrl[rank] = conn
            self._socks.append(conn)
            waiting.pop(rank, None)

    # ------------------------------------------------------------------
    # Control commands
    # ------------------------------------------------------------------

    def _command(
        self, rank: int, cmd: dict, timeout: float | None = None
    ) -> dict:
        """One request/reply on ``rank``'s control channel.

        A transport failure is triaged on the spot: a dead (or
        heartbeat-stale, then fenced) worker becomes a crash at the
        current superstep and raises :class:`RankDied`; anything else is
        a hard :class:`MpError` diagnostic."""
        sock = self._ctrl.get(rank)
        if sock is None:
            raise MpError(f"rank {rank} has no control channel")
        try:
            send_frame(sock, cmd)
            reply = recv_frame(
                sock, Deadline(timeout if timeout is not None else self.config.ctrl_timeout)
            )
        except (FrameError, OSError):
            code = self.supervisor.exitcode(rank)
            self.supervisor.drain_heartbeats()
            if code is None and self.supervisor.suspected(rank):
                code = self.supervisor.kill(rank)
            if code is not None:
                self._crash(rank, self._superstep, self._default_downtime())
                raise RankDied(rank) from None
            raise MpError(
                f"control channel to live rank {rank} failed on "
                f"{cmd.get('op')!r} at superstep {self._superstep}"
            ) from None
        if not reply.get("ok"):
            if reply.get("error") == "LookupError":
                raise LookupError(reply["message"])
            raise MpError(
                f"rank {rank} {cmd.get('op')!r} failed: "
                f"{reply.get('error')}: {reply.get('message')}"
            )
        return reply

    # ------------------------------------------------------------------
    # Machine-level messaging
    # ------------------------------------------------------------------

    def _check_rank(self, rank: int, what: str) -> None:
        if not 0 <= rank < self.p:
            raise ValueError(f"{what} rank {rank} out of range [0, {self.p})")

    def send(self, source: int, dest: int, tag: Any, payload: Any) -> None:
        """Stage a message at its source (shipped to the source worker
        and onto the wire at the next barrier -- the mp analogue of the
        oracle network's pending buffer)."""
        self._check_rank(source, "source")
        self._check_rank(dest, "destination")
        msg = Message(source, dest, tag, payload)
        self._staged[source].append((dest, tag, payload))
        self.stats.record(msg)
        obs = self.obs
        if obs.enabled:
            nbytes = msg.nbytes
            obs.inc("net.messages_sent")
            obs.inc("net.bytes_sent", nbytes)
            obs.observe("net.message_bytes", nbytes)
        if self.profile is not None:
            self.profile.record_send(self._superstep, source, dest, msg.nbytes)
        if obs.events.enabled:
            obs.events.record(
                source, self._superstep, "send",
                f"{source}->{dest} tag={tag!r} {msg.nbytes}B",
            )

    def recv(self, dest: int, source: int, tag: Any) -> Any:
        if not self.processors[dest].alive:
            raise LookupError(f"rank {dest} is dead; its mailbox was quarantined")
        return self._command(dest, {"op": "recv", "source": source, "tag": tag})[
            "payload"
        ]

    def probe(self, dest: int, source: int, tag: Any) -> bool:
        if not self.processors[dest].alive:
            return False
        return self._command(dest, {"op": "probe", "source": source, "tag": tag})[
            "result"
        ]

    def drain(self, dest: int, tag: Any) -> list[tuple[int, Any]]:
        if not self.processors[dest].alive:
            return []
        result = self._command(dest, {"op": "drain", "tag": tag})["result"]
        return [(source, payload) for source, payload in result]

    def outstanding(self, tags: Any) -> int:
        tag_set = set(tags)
        n = sum(
            1
            for msgs in self._staged.values()
            for _, tag, _ in msgs
            if tag in tag_set
        )
        for rank in range(self.p):
            if not self.processors[rank].alive:
                continue
            try:
                n += self._command(
                    rank, {"op": "outstanding", "tags": sorted(tag_set)}
                )["result"]
            except RankDied:
                continue  # its in-flight traffic died with it
        return n

    # ------------------------------------------------------------------
    # Crash lifecycle
    # ------------------------------------------------------------------

    def _kill(self, rank: int) -> None:
        """Really kill the rank's worker (``SIGKILL``)."""
        self.supervisor.kill(rank)

    def _quarantine(self, rank: int, step: int) -> None:
        # The rank's staged sends die with it -- oracle quarantine of a
        # dead source's pending traffic.
        for dest, tag, _payload in self._staged[rank]:
            self._quarantine_event(step, rank, dest, tag)
        self._staged[rank] = []

    def _respawn(self, rank: int) -> None:
        """A fresh worker process under the bumped incarnation."""
        self._spawn(rank)
        self._await_hello({rank})

    # ------------------------------------------------------------------
    # Elastic membership
    # ------------------------------------------------------------------

    def grow_to(self, new_p: int) -> None:
        """Admit ranks ``p .. new_p-1``: spawn their worker processes,
        wait for their hellos (bounded), and tell every existing worker
        the new world size.  The new ranks start with empty arenas --
        populating them is the elastic runtime's job
        (:mod:`repro.runtime.elastic`)."""
        if new_p <= self.p:
            raise ValueError(f"grow_to({new_p}) from p={self.p}: need new_p > p")
        step = self._superstep
        old_p = self.p
        for rank in range(old_p, new_p):
            self.processors.append(RankHandle(rank, self._shm_names))
            self._staged[rank] = []
        self.p = new_p
        try:
            for rank in range(old_p, new_p):
                self._spawn(rank)
            self._await_hello(set(range(old_p, new_p)))
        except Exception:
            # Failed admission: put the machine back the way it was.
            self.p = old_p
            for rank in range(old_p, new_p):
                self.supervisor.retire(rank, join_timeout=0.5)
                self._staged.pop(rank, None)
                sock = self._ctrl.pop(rank, None)
                if sock is not None:
                    try:
                        sock.close()
                    except OSError:
                        pass
                    if sock in self._socks:
                        self._socks.remove(sock)
            del self.processors[old_p:]
            raise
        for rank in range(old_p):
            if not self.processors[rank].alive:
                continue  # a respawn picks up the new p from its spec
            try:
                self._command(rank, {"op": "resize", "p": new_p})
            except RankDied:
                pass
        self.obs.inc("elastic.grow")
        self.record_fault(step, "grow", -1, -1, None, new_p)

    def retire_to(self, new_p: int) -> None:
        """Release ranks ``new_p .. p-1``: graceful shutdown, then the
        supervisor reaps (escalating to ``SIGKILL``), shared-memory
        arenas are unlinked, control channels closed, and survivors told
        the shrunk world size.  Dead retiring ranks lose their scheduled
        respawn -- a retired rank can never come back."""
        if not 0 < new_p < self.p:
            raise ValueError(
                f"retire_to({new_p}) from p={self.p}: need 0 < new_p < p"
            )
        step = self._superstep
        old_p = self.p
        for rank in range(new_p, old_p):
            handle = self.processors[rank]
            self._restart_at.pop(rank, None)
            sock = self._ctrl.pop(rank, None)
            if sock is not None:
                if handle.alive:
                    try:
                        send_frame(sock, {"op": "shutdown"})
                        recv_frame(sock, Deadline(self.config.shutdown_timeout))
                    except (FrameError, OSError):
                        pass
                try:
                    sock.close()
                except OSError:
                    pass
                if sock in self._socks:
                    self._socks.remove(sock)
            self.supervisor.retire(rank)
            handle._wipe()
            self._staged.pop(rank, None)
        del self.processors[new_p:]
        self.p = new_p
        for rank in range(new_p):
            if not self.processors[rank].alive:
                continue
            try:
                self._command(rank, {"op": "resize", "p": new_p})
            except RankDied:
                pass
        self.obs.inc("elastic.retire")
        self.record_fault(step, "retire", -1, -1, None, new_p)

    # ------------------------------------------------------------------
    # Fault/event bookkeeping (oracle parity)
    # ------------------------------------------------------------------

    def record_fault(
        self, step: int, kind: str, source: int, dest: int, tag: Any, seq: int
    ) -> None:
        self.fault_events.append(FaultEvent(step, kind, source, dest, tag, seq))
        obs = self.obs
        obs.inc(f"faults.{kind}")
        if obs.events.enabled:
            rank = source if dest < 0 else dest
            obs.events.record(
                rank, step, kind,
                f"src={source} dest={dest} tag={tag!r} seq={seq}",
            )

    def _quarantine_event(self, step: int, source: int, dest: int, tag: Any) -> None:
        self.stats.quarantined += 1
        self.fault_events.append(
            FaultEvent(step, "quarantine", source, dest, tag, 0)
        )
        obs = self.obs
        if obs.enabled:
            obs.inc("net.messages_quarantined")
        if obs.events.enabled:
            detail = f"{source}->{dest} tag={tag!r}"
            obs.events.record(source, step, "quarantine", detail)
            if dest >= 0 and dest != source:
                obs.events.record(dest, step, "quarantine", detail)

    def _merge_reply(self, step: int, rank: int, reply: dict) -> None:
        """Fold a worker's per-barrier events and counters into the
        driver-side trace -- the per-process rings merge into one
        machine-wide record here.  ``rank`` is the replying worker (the
        destination of any deliveries it reports)."""
        for event in reply.get("events", ()):
            _step, kind, source, dest, tag, seq = event
            if kind == "quarantine":
                self._quarantine_event(step, source, dest, tag)
            else:
                self.record_fault(step, kind, source, dest, tag, seq)
        counters = reply.get("counters", {})
        delivered = counters.get("delivered", 0)
        self.stats.delivered += delivered
        self.stats.bytes_delivered += counters.get("bytes_delivered", 0)
        self.stats.dropped += counters.get("dropped", 0)
        self.stats.duplicated += counters.get("duplicated", 0)
        self.stats.corrupted += counters.get("corrupted", 0)
        self.stats.stalled += counters.get("stalled", 0)
        if delivered and self.obs.enabled:
            # Oracle-parity delivery counters: the in-process network
            # increments these per delivered copy.
            self.obs.inc("net.messages_delivered", delivered)
            self.obs.inc("net.bytes_delivered", counters.get("bytes_delivered", 0))
        if self.profile is not None:
            for source, (messages, nbytes, max_nbytes) in reply.get(
                "received", {}
            ).items():
                self.profile.record_delivery_batch(
                    step, source, rank, messages, nbytes, max_nbytes
                )

    # ------------------------------------------------------------------
    # Barrier
    # ------------------------------------------------------------------

    def _reap(self, step: int) -> None:
        """Fold deaths nobody scheduled (external ``kill -9``, a worker
        segfault) into ordinary crash bookkeeping at this superstep."""
        self.supervisor.drain_heartbeats()
        for rank in range(self.p):
            if not self.processors[rank].alive:
                continue
            if self.supervisor.exitcode(rank) is not None:
                self._crash(rank, step, self._default_downtime())

    def _scribble(self, rank: int, name: str, salt: int, width: int) -> list[int]:
        """Oracle-parity scribble, executed *inside the worker process*
        against the shared segment (the cross-process write is the
        backend's proof the memory is really shared)."""
        arena = self.processors[rank].shm_arena(name)
        reply = self._command(
            rank,
            {
                "op": "scribble",
                "shm_name": arena.shm_name,
                "size": arena.size,
                "dtype": arena.dtype.str,
                "salt": salt,
                "width": width,
            },
        )
        return reply["touched"]

    def _post(self, rank: int, cmd: dict) -> bool:
        """Fire a command without waiting for the reply (barrier
        fan-out).  Returns False when the channel is already broken."""
        sock = self._ctrl.get(rank)
        if sock is None:
            return False
        try:
            send_frame(sock, cmd)
            return True
        except OSError:
            return False

    def _collect(
        self, step: int, ranks: list[int], deadline: Deadline, what: str
    ) -> dict[int, dict]:
        """Gather one reply per rank, triaging stragglers: a dead
        worker becomes a crash at this step; a heartbeat-stale one is
        fenced first; a live, beating one past the deadline is a hard
        diagnostic.  Never hangs."""
        replies: dict[int, dict] = {}
        pending = set(ranks)
        sel = selectors.DefaultSelector()
        for rank in ranks:
            sock = self._ctrl.get(rank)
            if sock is None:
                pending.discard(rank)
                continue
            sel.register(sock, selectors.EVENT_READ, rank)
        try:
            while pending:
                for key, _ in sel.select(timeout=0.05):
                    rank = key.data
                    if rank not in pending:
                        continue
                    try:
                        reply = recv_frame(
                            key.fileobj, Deadline(deadline.remaining() + 0.5)
                        )
                    except (FrameError, OSError):
                        continue  # triaged below via exitcode/heartbeat
                    replies[rank] = reply
                    pending.discard(rank)
                    sel.unregister(key.fileobj)
                if not pending:
                    break
                self.supervisor.drain_heartbeats()
                for rank in list(pending):
                    code = self.supervisor.exitcode(rank)
                    if code is None and self.supervisor.suspected(rank):
                        code = self.supervisor.kill(rank)
                    if code is not None:
                        sock = self._ctrl.get(rank)
                        if sock is not None:
                            try:
                                sel.unregister(sock)
                            except (KeyError, ValueError):
                                pass
                        pending.discard(rank)
                        self._crash(rank, step, self._default_downtime())
                if pending and deadline.expired():
                    raise MpError(
                        f"{what} at superstep {step}: live ranks "
                        f"{sorted(pending)} did not reply within the deadline"
                    )
        finally:
            sel.close()
        return replies

    def _deliver(self, step: int) -> None:
        """Two-phase distributed barrier delivery, same place in the
        barrier phase order as the oracle's, then the clock advances.

        Phase 1 (*flush*): every live worker receives its staged sends
        plus the live-set/incarnation map, pushes data frames to peers,
        and exchanges marks; its reply names any live peer whose mark
        never arrived.  Deaths discovered while waiting shrink the live
        set.  Phase 2 (*deliver*): survivors apply the shared fault
        schedule to this step's arrived batches; batches from ranks that
        died mid-flush are quarantined, so a partial flush can never be
        half-delivered.
        """
        live = [r for r in range(self.p) if self.processors[r].alive]
        incarnations = {r: self.processors[r].incarnation for r in live}
        posted = []
        for rank in live:
            msgs = self._staged[rank]
            self._staged[rank] = []
            cmd = {
                "op": "flush",
                "step": step,
                "live": live,
                "incarnations": incarnations,
                "msgs": msgs,
            }
            if self._post(rank, cmd):
                posted.append(rank)
            else:
                # Channel already broken: triage immediately.
                code = self.supervisor.exitcode(rank) or self.supervisor.kill(rank)
                self._crash(rank, step, self._default_downtime())
        deadline = Deadline(self.config.mark_timeout + self.config.barrier_grace)
        replies = self._collect(step, posted, deadline, "barrier flush")
        for rank, reply in replies.items():
            self._merge_reply(step, rank, reply)
        # Marks missing from ranks that are still alive mean a straggler
        # flush, not a death: one bounded re-wait round (flush is
        # idempotent per step), then give up loudly.
        unresolved = {
            rank: [m for m in reply.get("missing", ()) if self.processors[m].alive]
            for rank, reply in replies.items()
        }
        retry = [r for r, missing in unresolved.items() if missing and self.processors[r].alive]
        if retry:
            live_now = [r for r in range(self.p) if self.processors[r].alive]
            incarnations = {r: self.processors[r].incarnation for r in live_now}
            posted = [
                r
                for r in retry
                if self._post(
                    r,
                    {
                        "op": "flush",
                        "step": step,
                        "live": live_now,
                        "incarnations": incarnations,
                        "msgs": [],
                    },
                )
            ]
            redo = self._collect(
                step,
                posted,
                Deadline(self.config.mark_timeout + self.config.barrier_grace),
                "barrier flush retry",
            )
            still = {
                r: [m for m in reply.get("missing", ()) if self.processors[m].alive]
                for r, reply in redo.items()
            }
            bad = {r: m for r, m in still.items() if m}
            if bad:
                raise MpError(
                    f"barrier at superstep {step} could not complete: "
                    f"marks missing from live ranks {bad} after retry"
                )
        # Phase 2: deliver on whoever is still alive now.
        live_now = [r for r in range(self.p) if self.processors[r].alive]
        posted = [
            r
            for r in live_now
            if self._post(r, {"op": "deliver", "step": step, "live": live_now})
        ]
        for rank in live_now:
            if rank not in posted:
                self.supervisor.kill(rank)
                self._crash(rank, step, self._default_downtime())
        replies = self._collect(
            step, posted, Deadline(self.config.ctrl_timeout), "barrier deliver"
        )
        for rank, reply in replies.items():
            self._merge_reply(step, rank, reply)
        self._superstep += 1

    @property
    def superstep(self) -> int:
        return self._superstep

    def reset_stats(self) -> None:
        self.stats = NetworkStats()
        self.fault_events.clear()
        for handle in self.processors:
            handle.stats = MemoryStats()

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Orphan-free teardown: polite shutdown commands, then the
        finalizer kills anything left, unlinks every shared-memory
        segment, and removes the session directory.  Idempotent."""
        if not self._finalizer.alive:
            return
        for rank in range(self.p):
            if not self.processors[rank].alive:
                continue
            sock = self._ctrl.get(rank)
            if sock is None:
                continue
            try:
                send_frame(sock, {"op": "shutdown"})
                recv_frame(sock, Deadline(0.5))
            except (FrameError, OSError):
                pass
        for handle in self.processors:
            handle._wipe()
        self._finalizer()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MpMachine(p={self.p}, superstep={self._superstep}, "
            f"start_method={self.config.start_method!r})"
        )
