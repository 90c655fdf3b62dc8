"""Communication sets for array-assignment statements.

For a statement ``A(la:ua:sa) = B(lb:ub:sb)`` over differently mapped
arrays, iteration ``t`` reads ``B(lb + t*sb)`` from its owner ``q`` and
writes ``A(la + t*sa)`` on its owner ``r``; whenever ``q != r`` the
value must be communicated.  "Generating local addresses and
communication sets" is exactly the companion problem of the paper's
Chatterjee et al. reference.

Every rank's owner and compressed slot of every element come from one
cached all-ranks period table per side
(:class:`repro.distribution.period.PeriodTable`), so the public
:func:`compute_comm_schedule` needs no per-sender access table:
:func:`dim_transfers` reads both sides' owners and slots for all ``n``
iterations at once, orders them by ``(source, dest)`` and then
iteration with one stable radix ``argsort`` on a narrow unsigned key,
and cuts the :class:`Transfer` buckets with one boundary split.
:func:`repro.oracle.compute_comm_schedule_reference` keeps the
original element-at-a-time loop over each sender's localized elements as
the oracle the property tests and benchmarks compare against.

:class:`Transfer` and :class:`CommSchedule` are the one schedule type of
the runtime: rank-1 statements build them here, and 2-D statements
(:mod:`repro.runtime.commsets2d`) build them from the tensor product of
two :func:`dim_transfers` calls, over flat row-major slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..distribution.array import DistributedArray
from ..distribution.section import RegularSection
from .address import dim_period_table

__all__ = [
    "Transfer",
    "CommSchedule",
    "compute_comm_schedule",
    "dim_transfers",
]


@dataclass(frozen=True, slots=True)
class Transfer:
    """One sender->receiver element list.

    Parallel sequences (int64 vectors on the vectorized path, plain
    tuples from the reference path -- consumers index them uniformly via
    :func:`repro.runtime.exec.as_index`): ``src_slots[i]`` is the
    sender-local B slot, ``dst_slots[i]`` the receiver-local A slot of
    the transfer's ``i``-th element.  Elements are in ascending
    iteration order (odometer order, iteration axis 0 slowest, for 2-D
    statements, whose slots are flat row-major local addresses); the
    sender's slot determines the iteration.
    """

    source: int
    dest: int
    src_slots: tuple[int, ...] | np.ndarray
    dst_slots: tuple[int, ...] | np.ndarray

    def __len__(self) -> int:
        return len(self.src_slots)

    def astuples(self) -> tuple:
        """Canonical hashable form ``(source, dest, src_slots,
        dst_slots)`` with tuple element lists -- the equality key the
        tests compare vectorized and reference schedules by."""
        return (
            self.source,
            self.dest,
            tuple(int(s) for s in self.src_slots),
            tuple(int(s) for s in self.dst_slots),
        )


@dataclass
class CommSchedule:
    """All transfers of one array-assignment statement.

    ``locals_`` are the ``q == r`` fast-path copies (no network);
    ``transfers`` the cross-processor messages, keyed for deterministic
    iteration.  :meth:`sends_from` / :meth:`receives_at` are backed by
    per-rank indexes built once (lazily, after construction) -- they are
    called every superstep by the executors and the resilient exchange,
    and must not rescan the transfer list each time.

    ``n_iterations`` is the statement's flat iteration count (``n0 * n1``
    for a 2-D statement); every iteration moves exactly one element, so
    it is also :attr:`total_elements`.
    """

    n_iterations: int
    locals_: list[Transfer] = field(default_factory=list)
    transfers: list[Transfer] = field(default_factory=list)
    _send_index: dict[int, list[Transfer]] | None = field(
        default=None, repr=False, compare=False
    )
    _recv_index: dict[int, list[Transfer]] | None = field(
        default=None, repr=False, compare=False
    )
    _indexed_count: int = field(default=-1, repr=False, compare=False)

    @property
    def total_elements(self) -> int:
        return self.n_iterations

    @property
    def communicated_elements(self) -> int:
        return sum(len(t) for t in self.transfers)

    def _reindex(self) -> None:
        if self._indexed_count == len(self.transfers):
            return
        send: dict[int, list[Transfer]] = {}
        recv: dict[int, list[Transfer]] = {}
        for t in self.transfers:
            send.setdefault(t.source, []).append(t)
            recv.setdefault(t.dest, []).append(t)
        self._send_index = send
        self._recv_index = recv
        self._indexed_count = len(self.transfers)

    def sends_from(self, rank: int) -> list[Transfer]:
        self._reindex()
        return self._send_index.get(rank, [])

    def receives_at(self, rank: int) -> list[Transfer]:
        self._reindex()
        return self._recv_index.get(rank, [])

    def locals_at(self, rank: int) -> list[Transfer]:
        """The ``source == dest == rank`` copies, in schedule order.  A
        plain filter: ``locals_`` holds at most one transfer per rank."""
        return [t for t in self.locals_ if t.source == rank]


def _check_rank1(array: DistributedArray, role: str) -> None:
    if array.rank != 1:
        raise ValueError(f"{role} array {array.name} must be rank-1 (got rank {array.rank})")
    if array.grid.rank != 1:
        raise ValueError(
            f"{role} array {array.name} must be mapped onto a rank-1 grid"
        )
    if not array.axis_maps[0].distribution.partitions:
        raise ValueError(f"{role} array {array.name} dimension 0 is not distributed")


def _check_conformable(sec_a: RegularSection, sec_b: RegularSection) -> None:
    if len(sec_a) != len(sec_b):
        raise ValueError(
            f"non-conformable sections: |{sec_a}| = {len(sec_a)} vs "
            f"|{sec_b}| = {len(sec_b)}"
        )


def dim_transfers(
    dim_a, sec_a: RegularSection, dim_b, sec_b: RegularSection
) -> list[tuple[int, int, np.ndarray, np.ndarray]]:
    """Transfer vectors of one iteration axis, for every rank pair at once.

    Returns ``(q, r, src_slots, dst_slots)`` for every RHS coordinate
    ``q`` sending to LHS coordinate ``r``, ascending in ``(q, r)``, each
    pair of vectors in ascending iteration order.  One vectorized pass
    over all ``n`` iterations: both sides' owners and slots from their
    period tables, one stable radix ``argsort`` on the narrow key
    ``q * p_a + r``, and one boundary split into read-only slices.

    Shared by the 1-D schedule below and the tensor-product 2-D
    schedule (:mod:`repro.runtime.commsets2d`).
    """
    n = len(sec_a)
    if n == 0:
        return []
    p_a = dim_a.layout.p
    # The narrowest unsigned key dtype (uint16 while p_a * p_b < 2**16)
    # lets NumPy's stable sort take its radix path; int64 keys cost
    # measurably more on large schedules.
    key_type = np.min_scalar_type(p_a * dim_b.layout.p)
    src, src_slots = dim_period_table(dim_b).owners_and_slots(sec_b.lower, sec_b.stride, n)
    # The owner vectors are fresh, so a same-dtype key may reuse one.
    key = src.astype(key_type, copy=False)
    del src
    key *= key_type.type(p_a)
    dst, dst_slots = dim_period_table(dim_a).owners_and_slots(sec_a.lower, sec_a.stride, n)
    key += dst
    del dst
    # Stable: within one (q, r) bucket the iterations stay ascending.
    order = np.argsort(key, kind="stable")
    key = key[order]
    src_slots = src_slots[order]
    dst_slots = dst_slots[order]
    for vec in (src_slots, dst_slots):
        vec.flags.writeable = False
    bounds = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), n]
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        q, r = divmod(int(key[lo]), p_a)
        out.append((q, r, src_slots[lo:hi], dst_slots[lo:hi]))
    return out


def compute_comm_schedule(
    a: DistributedArray,
    sec_a: RegularSection,
    b: DistributedArray,
    sec_b: RegularSection,
) -> CommSchedule:
    """Communication schedule for ``A(sec_a) = B(sec_b)``, vectorized.

    The two sections must have equal lengths (conformable statement).
    One pass of :func:`dim_transfers` over all ``n`` iterations and all
    ranks -- O(n) vector ops plus, on a period-table miss, one O(k)
    Figure 5 table per rank; no per-element Python executes.  Produces
    transfers element-for-element identical to
    :func:`repro.oracle.compute_comm_schedule_reference`.
    """
    _check_rank1(a, "LHS")
    _check_rank1(b, "RHS")
    _check_conformable(sec_a, sec_b)
    schedule = CommSchedule(n_iterations=len(sec_a))
    for q, r, src_slots, dst_slots in dim_transfers(
        a._dims[0], sec_a, b._dims[0], sec_b
    ):
        transfer = Transfer(q, r, src_slots, dst_slots)
        if q == r:
            schedule.locals_.append(transfer)
        else:
            schedule.transfers.append(transfer)
    return schedule
