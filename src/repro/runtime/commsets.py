"""Communication sets for array-assignment statements.

For a statement ``A(la:ua:sa) = B(lb:ub:sb)`` over differently mapped
arrays, iteration ``t`` reads ``B(lb + t*sb)`` from its owner ``q`` and
writes ``A(la + t*sa)`` on its owner ``r``; whenever ``q != r`` the
value must be communicated.  "Generating local addresses and
communication sets" is exactly the companion problem of the paper's
Chatterjee et al. reference, and the access-sequence machinery makes the
enumeration efficient: each sender enumerates only *its own* elements of
the RHS section (O(#local elements) after an O(k) table construction)
and computes the LHS owner/address arithmetically.

The public :func:`compute_comm_schedule` is fully vectorized: every
sender's RHS elements come from
:func:`repro.distribution.localize.localized_arrays` as index/slot
vectors, the LHS owners and compressed slots are closed-form divmod
arithmetic (:mod:`repro.core.kernels`), and the per-destination
:class:`Transfer` buckets fall out of one ``lexsort`` + boundary split.
:func:`compute_comm_schedule_reference` keeps the original
element-at-a-time loop as the oracle the property tests and benchmarks
compare against.

Rank-1 arrays on rank-1 grids are supported directly; multidimensional
statements decompose per-dimension at the :mod:`repro.runtime.exec`
level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..core.kernels import local_addresses_of, owners_of
from ..distribution.array import DistributedArray
from ..distribution.localize import localized_arrays, localized_elements
from ..distribution.section import RegularSection

__all__ = [
    "Transfer",
    "CommSchedule",
    "compute_comm_schedule",
    "compute_comm_schedule_reference",
    "iter_dim_buckets",
]


@dataclass(frozen=True, slots=True)
class Transfer:
    """One sender->receiver element list.

    Parallel sequences (int64 vectors on the vectorized path, plain
    tuples from the reference path -- consumers index them uniformly via
    :func:`repro.runtime.exec.as_index`): ``iterations[t]`` is the
    iteration number, ``src_slots[t]`` the sender-local B slot,
    ``dst_slots[t]`` the receiver-local A slot.
    """

    source: int
    dest: int
    iterations: tuple[int, ...] | np.ndarray
    src_slots: tuple[int, ...] | np.ndarray
    dst_slots: tuple[int, ...] | np.ndarray

    def __len__(self) -> int:
        return len(self.iterations)

    def astuples(self) -> tuple:
        """Canonical hashable form ``(source, dest, iterations,
        src_slots, dst_slots)`` with tuple element lists -- the equality
        key the tests compare vectorized and reference schedules by."""
        return (
            self.source,
            self.dest,
            tuple(int(t) for t in self.iterations),
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
        return sum(len(t) for t in self.locals_) + sum(len(t) for t in self.transfers)

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


def iter_dim_buckets(
    dim_a, sec_a: RegularSection, dim_b, sec_b: RegularSection, q: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Per-destination transfer vectors of one iteration axis, from
    sender coordinate ``q``.

    Yields ``(r, iterations, src_slots, dst_slots)`` for every LHS
    coordinate ``r`` receiving elements from ``q``, ascending in ``r``,
    each vector sorted by iteration number.  One vectorized pass:
    sender-side elements from :func:`localized_arrays`, LHS owners and
    template-local addresses as closed-form divmod arithmetic, LHS
    compressed slots via the (per-destination) vectorized rank function,
    and the bucketing as a single ``lexsort`` + boundary split.

    Shared by the 1-D schedule below and the tensor-product 2-D
    schedule (:mod:`repro.runtime.commsets2d`).
    """
    b_indices, b_slots = localized_arrays(
        dim_b.layout.p,
        dim_b.layout.k,
        dim_b.extent,
        dim_b.axis_map.alignment,
        sec_b,
        q,
    )
    if b_indices.size == 0:
        return
    # Iteration numbers: exact division (every element is a section
    # member), valid for negative strides too.
    t = (b_indices - sec_b.lower) // sec_b.stride
    a_indices = sec_a.lower + t * sec_a.stride

    layout_a = dim_a.layout
    align_a = dim_a.axis_map.alignment
    p_a, k_a = layout_a.p, layout_a.k
    dests = owners_of(a_indices, p_a, k_a, align_a.a, align_a.b)
    addrs = local_addresses_of(a_indices, p_a, k_a, align_a.a, align_a.b)

    order = np.lexsort((t, dests))
    dests_sorted = dests[order]
    bounds = np.flatnonzero(np.diff(dests_sorted)) + 1
    identity = align_a.is_identity
    for seg in np.split(order, bounds):
        r = int(dests[seg[0]])
        if identity:
            # Stride-1 allocation: the compressed slot *is* the
            # template-local address.
            a_slots = addrs[seg]
        else:
            ranks = dim_a.rank_function(r)
            assert ranks is not None
            a_slots = ranks.rank_array(addrs[seg])
        yield r, t[seg], b_slots[seg], a_slots


def compute_comm_schedule(
    a: DistributedArray,
    sec_a: RegularSection,
    b: DistributedArray,
    sec_b: RegularSection,
) -> CommSchedule:
    """Communication schedule for ``A(sec_a) = B(sec_b)``, vectorized.

    The two sections must have equal lengths (conformable statement).
    Each sending rank contributes one vectorized pass over its own RHS
    elements -- O(k) table construction plus O(#local elements) vector
    ops; no per-element Python executes.  Produces transfers
    element-for-element identical to
    :func:`compute_comm_schedule_reference`.
    """
    _check_rank1(a, "LHS")
    _check_rank1(b, "RHS")
    _check_conformable(sec_a, sec_b)
    n = len(sec_a)
    schedule = CommSchedule(n_iterations=n)
    if n == 0:
        return schedule

    dim_a = a._dims[0]
    dim_b = b._dims[0]
    for q in range(b.grid.size):
        for r, t, src_slots, dst_slots in iter_dim_buckets(
            dim_a, sec_a, dim_b, sec_b, q
        ):
            for vec in (t, src_slots, dst_slots):
                vec.flags.writeable = False
            transfer = Transfer(
                source=q,
                dest=r,
                iterations=t,
                src_slots=src_slots,
                dst_slots=dst_slots,
            )
            if q == r:
                schedule.locals_.append(transfer)
            else:
                schedule.transfers.append(transfer)
    return schedule


def compute_comm_schedule_reference(
    a: DistributedArray,
    sec_a: RegularSection,
    b: DistributedArray,
    sec_b: RegularSection,
) -> CommSchedule:
    """Element-at-a-time schedule construction (the original scalar
    path), kept as the oracle for :func:`compute_comm_schedule` --
    property tests assert both produce identical transfers, and the
    kernel benchmarks report the speedup between them."""
    _check_rank1(a, "LHS")
    _check_rank1(b, "RHS")
    _check_conformable(sec_a, sec_b)
    n = len(sec_a)
    schedule = CommSchedule(n_iterations=n)
    if n == 0:
        return schedule

    dim_a = a._dims[0]
    dim_b = b._dims[0]
    p_b = b.grid.size

    buckets: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for q in range(p_b):
        pairs = localized_elements(
            dim_b.layout.p,
            dim_b.layout.k,
            dim_b.extent,
            dim_b.axis_map.alignment,
            sec_b,
            q,
        )
        for b_index, b_slot in pairs:
            t = sec_b.position_of(b_index)
            a_index = sec_a.element(t)
            r = dim_a.owner(a_index)
            a_slot = dim_a.local_slot(a_index, r)
            buckets.setdefault((q, r), []).append((t, b_slot, a_slot))

    for (q, r), triples in sorted(buckets.items()):
        triples.sort()
        transfer = Transfer(
            source=q,
            dest=r,
            iterations=tuple(t for t, _, _ in triples),
            src_slots=tuple(bs for _, bs, _ in triples),
            dst_slots=tuple(asl for _, _, asl in triples),
        )
        if q == r:
            schedule.locals_.append(transfer)
        else:
            schedule.transfers.append(transfer)
    return schedule
