"""End-to-end memory-integrity auditing for the SPMD machine.

Packet CRCs (:mod:`repro.runtime.resilient`) defend data *in flight*;
checkpoint checksums (:mod:`repro.machine.checkpoint`) defend data *on
stable storage*.  Neither sees bits that rot *at rest* inside a rank's
live arena -- a ``scribble`` fault (:mod:`repro.machine.faults`) is
faithfully packed, retransmitted, checkpointed, and "recovered", which
is exactly the silent-data-corruption failure mode fleet-scale studies
report.  This module is the detection layer (docs/FAULT_MODEL.md §5).

An :class:`IntegrityAuditor` keeps, per ``(rank, arena)``, a *ledger*:
a shadow copy of the last known-legitimate contents.  The runtime
*notes* every legitimate write (:meth:`IntegrityAuditor.note_write`);
the ledger folds those notes into the shadow at the superstep barrier
via the virtual machine's ``barrier_hooks`` -- which run **before**
fault injection, so the ledger always reflects the pre-rot state.  An
:meth:`IntegrityAuditor.audit` pass compares each arena's bytes with its
shadow in one comparison.  Only an arena that differs is localized
further: to each ``chunk_size``-element chunk holding differing bytes,
the exact diverged local addresses within it, and (via
:func:`localize_divergence`, using the paper's own access-sequence
machinery in :mod:`repro.distribution.localize`) the owned global array
indices -- "rank 2's A, chunk 3, slots 17-19, global indices 134:146:6"
instead of "something is wrong".

The auditor only *detects*; repair policy (re-fetch from the sender's
retransmit buffer, chunk restore from checkpoint, full rank restore)
belongs to the verified-exchange mode of :mod:`repro.runtime.resilient`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .processor import Processor
from .vm import VirtualMachine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (layering)
    from ..distribution.array import DistributedArray

__all__ = [
    "AuditStats",
    "Divergence",
    "IntegrityAuditor",
    "localize_divergence",
]

# Whole-arena divergences (e.g. an unexplained reallocation) carry this
# sentinel instead of a chunk number; localization has failed and the
# caller must escalate to a full rank restore.
WHOLE_ARENA = -1


@dataclass(frozen=True, slots=True)
class Divergence:
    """One localized integrity violation: which chunk of which arena on
    which rank no longer matches the ledger, down to the element slots.

    ``chunk == WHOLE_ARENA`` (with empty ``slots``) means localization
    failed -- the arena changed shape or dtype outside any legitimate
    write path -- and only a full restore can help.
    """

    superstep: int
    rank: int
    arena: str
    chunk: int
    slots: tuple[int, ...]  # diverged element slots (local addresses)

    @property
    def localized(self) -> bool:
        return self.chunk != WHOLE_ARENA


@dataclass
class AuditStats:
    """What the auditor did and found (feeds the resilience report and
    the audit-overhead benchmark)."""

    captures: int = 0
    commits: int = 0
    slots_refreshed: int = 0
    audits: int = 0
    chunks_checked: int = 0
    divergences: int = 0


class _ArenaLedger:
    """Shadow copy of one ``(rank, arena)``: the ledger *is* the shadow.

    The shadow holds the last legitimate contents; an audit is one
    bytewise comparison of the live arena against it, and only an arena
    that differs pays for bucketing its differing bytes into chunks.
    """

    __slots__ = ("shadow", "chunk_size")

    def __init__(self, arena: np.ndarray, chunk_size: int) -> None:
        self.shadow = arena.copy()
        self.chunk_size = chunk_size

    def matches_layout(self, arena: np.ndarray) -> bool:
        return (
            arena.shape == self.shadow.shape and arena.dtype == self.shadow.dtype
        )

    @property
    def chunks(self) -> int:
        """Chunks an audit covers: ``ceil(size / chunk_size)``, at least
        1 (an empty arena is one empty chunk)."""
        return max(1, -(-self.shadow.size // self.chunk_size))

    def refresh(self, slots: np.ndarray, arena: np.ndarray) -> None:
        """Fold legitimately-written element slots into the shadow."""
        self.shadow[slots] = arena[slots]

    def audit(self, arena: np.ndarray) -> list[tuple[int, tuple[int, ...]]]:
        """``(chunk, diverged_slots)`` pairs, in chunk order, where the
        live arena's bytes differ from the shadow's.  Bytewise, so a
        ``-0.0`` or a changed NaN payload diverges like any other bit."""
        live = np.ascontiguousarray(arena).reshape(-1).view(np.uint8)
        shadow = self.shadow.reshape(-1).view(np.uint8)
        if np.array_equal(live, shadow):
            return []
        slots = np.unique(np.nonzero(live != shadow)[0] // self.shadow.itemsize)
        cuts = np.flatnonzero(np.diff(slots // self.chunk_size)) + 1
        return [
            (int(run[0]) // self.chunk_size, tuple(run.tolist()))
            for run in np.split(slots, cuts)
        ]

    def expected(self, slots) -> np.ndarray:
        """The ledger's (trusted) values at the given element slots."""
        return self.shadow[np.asarray(slots, dtype=np.int64)].copy()


class IntegrityAuditor:
    """Shadow ledger over every live arena of a machine.

    Lifecycle::

        auditor = IntegrityAuditor(chunk_size=64)
        auditor.attach(vm)           # capture + register barrier hook
        ...                          # node code; runtime calls
        ...                          # auditor.note_write(...) after each
        ...                          # legitimate arena write
        divs = auditor.audit(vm)     # localize any at-rest corruption
        auditor.detach(vm)

    The barrier hook (:meth:`commit`) folds noted writes into the ledger
    at each barrier *before* scribble injection, so anything that later
    diverges from the ledger is, by construction, not a legitimate
    write.  Writes that are never noted look like corruption -- that is
    the contract: the ledger trusts exactly what the runtime vouches
    for.
    """

    def __init__(self, chunk_size: int = 64) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1 element, got {chunk_size}")
        self.chunk_size = chunk_size
        self._ledgers: dict[tuple[int, str], _ArenaLedger] = {}
        self._pending: dict[tuple[int, str], list[np.ndarray]] = {}
        self.verdicts: list[Divergence] = []
        self.stats = AuditStats()
        self._attached_to: VirtualMachine | None = None

    # ------------------------------------------------------------------
    # Capture / lifecycle
    # ------------------------------------------------------------------

    def capture_rank(self, proc: Processor) -> None:
        """(Re)snapshot every arena of one rank as the new ledger truth
        -- used at attach time and after a verified checkpoint restore."""
        for key in [k for k in self._ledgers if k[0] == proc.rank]:
            del self._ledgers[key]
        for key in [k for k in self._pending if k[0] == proc.rank]:
            del self._pending[key]
        for name, arena in proc.arenas():
            self._ledgers[(proc.rank, name)] = _ArenaLedger(arena, self.chunk_size)
        self.stats.captures += 1

    def capture(self, vm: VirtualMachine) -> None:
        for proc in vm.processors:
            if proc.alive:
                self.capture_rank(proc)

    def attach(self, vm: VirtualMachine) -> None:
        """Capture the machine and register the ledger-commit barrier
        hook; idempotent per machine."""
        if self._attached_to is not None and self._attached_to is not vm:
            raise ValueError("auditor is already attached to another machine")
        self.capture(vm)
        if self.commit not in vm.barrier_hooks:
            vm.barrier_hooks.append(self.commit)
        self._attached_to = vm

    def detach(self, vm: VirtualMachine) -> None:
        if self.commit in vm.barrier_hooks:
            vm.barrier_hooks.remove(self.commit)
        self._attached_to = None

    # ------------------------------------------------------------------
    # Legitimate-write tracking
    # ------------------------------------------------------------------

    def note_write(self, rank: int, arena: str, slots) -> None:
        """Record that the runtime legitimately wrote the given element
        slots; folded into the ledger at the next barrier commit."""
        slots = np.asarray(slots, dtype=np.int64).reshape(-1)
        if slots.size == 0:
            return
        self._pending.setdefault((rank, arena), []).append(slots)

    def commit(self, vm: VirtualMachine, superstep: int | None = None) -> None:
        """Barrier hook: fold every noted write into the shadow
        ledger from the live (still pre-fault) arenas, and pick up any
        newly allocated arena.  Pending notes whose arena has vanished
        (rank crashed this barrier window) are discarded -- the crash
        path recaptures on restore."""
        pending, self._pending = self._pending, {}
        for (rank, name), slot_runs in pending.items():
            proc = vm.processors[rank]
            if not proc.alive or not proc.has_memory(name):
                continue
            arena = proc.memory(name)
            ledger = self._ledgers.get((rank, name))
            if ledger is None or not ledger.matches_layout(arena):
                # Legitimate (re)allocation: start a fresh ledger.
                self._ledgers[(rank, name)] = _ArenaLedger(arena, self.chunk_size)
                continue
            slots = np.unique(np.concatenate(slot_runs))
            ledger.refresh(slots, arena)
            self.stats.slots_refreshed += int(slots.size)
        self.stats.commits += 1

    # ------------------------------------------------------------------
    # Auditing
    # ------------------------------------------------------------------

    def audit(
        self, vm: VirtualMachine, superstep: int | None = None
    ) -> list[Divergence]:
        """Compare every live, ledgered arena bytewise against its shadow
        and return (and record) the localized divergences.

        Divergence means bytes changed outside any noted write since the
        last barrier commit -- at-rest corruption, never a false alarm
        for legitimate traffic (those were committed pre-fault).  Ranks
        that are dead, or alive-but-wiped awaiting restore, are skipped;
        an arena whose very shape/dtype changed un-noted is reported as
        a ``WHOLE_ARENA`` divergence (localization failed).
        """
        step = vm.superstep if superstep is None else superstep
        found: list[Divergence] = []
        for (rank, name), ledger in sorted(self._ledgers.items()):
            proc = vm.processors[rank]
            if not proc.alive or not proc.has_memory(name):
                continue  # crash path owns wiped/rebooting ranks
            arena = proc.memory(name)
            if not ledger.matches_layout(arena):
                found.append(Divergence(step, rank, name, WHOLE_ARENA, ()))
                continue
            self.stats.chunks_checked += ledger.chunks
            for chunk, slots in ledger.audit(arena):
                found.append(Divergence(step, rank, name, chunk, slots))
        self.stats.audits += 1
        self.stats.divergences += len(found)
        self.verdicts.extend(found)
        return found

    def expected_values(self, rank: int, arena: str, slots) -> np.ndarray:
        """Ledger (trusted) values for the given slots -- what a correct
        repair must reproduce, byte for byte."""
        return self._ledgers[(rank, arena)].expected(slots)

    def has_ledger(self, rank: int, arena: str) -> bool:
        return (rank, arena) in self._ledgers

    def chunk_range(self, rank: int, arena: str, chunk: int) -> tuple[int, int]:
        """Half-open element-slot range ``[lo, hi)`` covered by a chunk."""
        ledger = self._ledgers[(rank, arena)]
        lo = chunk * ledger.chunk_size
        return lo, min(lo + ledger.chunk_size, ledger.shadow.size)


# ----------------------------------------------------------------------
# Localization to global indices
# ----------------------------------------------------------------------


def localize_divergence(
    div: Divergence, array: "DistributedArray"
) -> dict[int, tuple[int, ...]]:
    """Map a divergence's local slots to the owned **global** indices of
    ``array`` -- the final step of the audit story: chunk -> local
    addresses -> global elements a neighbor would have read wrong.

    Returns ``{slot: index_tuple}``; slots holding no element of the
    array (e.g. a divergence reported against a different arena) are
    omitted.  Rank-1 arrays take the O(owned) access-sequence path
    through :mod:`repro.distribution.localize` (the paper's own
    machinery); higher ranks fall back to an ownership scan.
    """
    # Lazy import: repro.machine must stay importable without the
    # distribution layer (layering; see DESIGN.md §3.3).
    from ..distribution.localize import localized_elements
    from ..distribution.section import RegularSection

    wanted = set(div.slots)
    out: dict[int, tuple[int, ...]] = {}
    if not wanted:
        return out
    if array.rank == 1:
        dim = array._dims[0]
        full = RegularSection(0, array.shape[0] - 1, 1)
        pairs = localized_elements(
            dim.layout.p, dim.layout.k, dim.extent,
            dim.axis_map.alignment, full, div.rank,
        )
        for index, slot in pairs:
            if slot in wanted:
                out[slot] = (index,)
        return out
    for idx in np.ndindex(*array.shape):
        if array.is_local(idx, div.rank):
            slot = array.local_address(idx, div.rank)
            if slot in wanted:
                out[slot] = tuple(int(i) for i in idx)
    return out
