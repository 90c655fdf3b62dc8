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
:func:`dim_transfers` reads both sides' owners and slots over one block
of their joint period, orders it by ``(source, dest)`` and then
iteration with one stable radix ``argsort`` on a narrow unsigned key,
cuts the :class:`Transfer` buckets with one boundary split, and extends
each bucket over the rest of a long section by per-owner slot steps --
the paper's start-plus-periodic-table form, applied to whole schedules.
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
from math import lcm

import numpy as np

from ..distribution.array import DistributedArray
from ..distribution.period import _MIN_BLOCK
from ..distribution.section import RegularSection
from .address import dim_period_table

__all__ = [
    "Transfer",
    "CommSchedule",
    "compute_comm_schedule",
    "dim_transfers",
]

#: Sections spanning at least this many joint blocks extend one sorted
#: block by per-bucket outer sums; shorter ones sort every iteration.
#: Below the line the buckets' two NumPy calls each cost more than the
#: one radix sort they replace (measured on the ``resilient`` e2e
#: workload, whose schedules span 21 to 31 blocks).
_MIN_BLOCKS = 64


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


def _extend(first: np.ndarray, step: int, rows: int, out: np.ndarray) -> None:
    """Write ``first + x*step`` for the block rows ``x = 0, 1, ...`` into
    ``out``, row-major: ``rows`` whole rows, then the first terms of one
    more row that ``out`` has room for -- each slot once."""
    full = rows * first.size
    np.add.outer(
        np.arange(rows, dtype=np.int64) * step, first,
        out=out[:full].reshape(rows, first.size),
    )
    np.add(first[: out.size - full], rows * step, out=out[full:])


def dim_transfers(
    dim_a, sec_a: RegularSection, dim_b, sec_b: RegularSection
) -> list[tuple[int, int, np.ndarray, np.ndarray]]:
    """Transfer vectors of one iteration axis, for every rank pair at once.

    Returns ``(q, r, src_slots, dst_slots)`` for every RHS coordinate
    ``q`` sending to LHS coordinate ``r``, ascending in ``(q, r)``, each
    pair of vectors in ascending iteration order.

    Both sides' owners repeat with the *joint period* of the iteration
    number, the lcm of either side's ``T / gcd(|s|, T)``, and across a
    joint period every slot advances by a per-owner step.  So one block
    of whole joint periods (at least ``_MIN_BLOCK`` terms) is sorted:
    its owners and slots from the period tables, one stable radix
    ``argsort`` on the narrow key ``q * p_a + r``, one boundary split.
    A section of at least :data:`_MIN_BLOCKS` blocks then extends each
    ``(q, r)`` bucket row by row, an outer sum of the block's slots and
    the owners' per-block steps, into one buffer per side; a shorter
    section is one block, the whole section sorted at once.  Every slot
    vector is a read-only slice of its side's buffer.

    Shared by the 1-D schedule below and the tensor-product 2-D
    schedule (:mod:`repro.runtime.commsets2d`).
    """
    n = len(sec_a)
    if n == 0:
        return []
    table_a, table_b = dim_period_table(dim_a), dim_period_table(dim_b)
    block = n
    if n >= _MIN_BLOCKS * _MIN_BLOCK:  # else no block fits that often
        joint = lcm(table_a.term_period(sec_a.stride), table_b.term_period(sec_b.stride))
        joint *= -(-_MIN_BLOCK // joint)
        if n >= _MIN_BLOCKS * joint:
            block = joint
    p_a = table_a.p
    # The narrowest unsigned key dtype (uint16 while p_a * p_b < 2**16)
    # lets NumPy's stable sort take its radix path; int64 keys cost
    # measurably more on large schedules.
    key_type = np.min_scalar_type(p_a * table_b.p)
    src, src_slots = table_b.owners_and_slots(sec_b.lower, sec_b.stride, block)
    # The owner vectors are fresh, so a same-dtype key may reuse one.
    key = src.astype(key_type, copy=False)
    del src
    key *= key_type.type(p_a)
    dst, dst_slots = table_a.owners_and_slots(sec_a.lower, sec_a.stride, block)
    key += dst
    del dst
    # Stable: within one (q, r) bucket the iterations stay ascending.
    order = np.argsort(key, kind="stable")
    key = key[order]
    src_slots = src_slots[order]
    dst_slots = dst_slots[order]
    cuts = (np.flatnonzero(key[1:] != key[:-1]) + 1).tolist()
    lows, highs = [0, *cuts], [*cuts, block]
    sources, dests = (v.tolist() for v in np.divmod(key[lows], key_type.type(p_a)))
    if block < n:
        rows, rest = divmod(n, block)
        src_steps = table_b.block_steps(sec_b.stride, block).tolist()
        dst_steps = table_a.block_steps(sec_a.stride, block).tolist()
        src_out = np.empty(n, dtype=np.int64)
        dst_out = np.empty(n, dtype=np.int64)
        start = 0
        for i, (q, r, lo, hi) in enumerate(zip(sources, dests, lows, highs)):
            # The bucket's block positions ascend, so the ones inside
            # the partial last row are a prefix.
            stop = start + rows * (hi - lo) + int(np.searchsorted(order[lo:hi], rest))
            _extend(src_slots[lo:hi], src_steps[q], rows, src_out[start:stop])
            _extend(dst_slots[lo:hi], dst_steps[r], rows, dst_out[start:stop])
            lows[i], highs[i] = start, stop
            start = stop
        src_slots, dst_slots = src_out, dst_out
    for vec in (src_slots, dst_slots):
        vec.flags.writeable = False
    return [
        (q, r, src_slots[lo:hi], dst_slots[lo:hi])
        for q, r, lo, hi in zip(sources, dests, lows, highs)
    ]


def compute_comm_schedule(
    a: DistributedArray,
    sec_a: RegularSection,
    b: DistributedArray,
    sec_b: RegularSection,
) -> CommSchedule:
    """Communication schedule for ``A(sec_a) = B(sec_b)``, vectorized.

    The two sections must have equal lengths (conformable statement).
    One call of :func:`dim_transfers` for all ranks -- O(n) vector ops
    plus, on a period-table miss, one O(k) Figure 5 table per rank; no
    per-element Python executes.  Produces
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
