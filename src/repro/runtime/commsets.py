"""Communication sets for array-assignment statements.

For a statement ``A(la:ua:sa) = B(lb:ub:sb)`` over differently mapped
arrays, iteration ``t`` reads ``B(lb + t*sb)`` from its owner ``q`` and
writes ``A(la + t*sa)`` on its owner ``r``; whenever ``q != r`` the
value must be communicated.  "Generating local addresses and
communication sets" is exactly the companion problem of the paper's
Chatterjee et al. reference.

The owner and compressed slot of one element are closed-form ``cyclic(k)``
arithmetic, so the public :func:`compute_comm_schedule` needs no
per-sender access table: :func:`dim_transfers` computes both sides'
owners and slots for all ``n`` iterations at once
(:mod:`repro.core.kernels`; non-identity alignments rank addresses
through one cached rank function per owning coordinate), orders them by
``(source, dest)`` and then iteration with one stable radix ``argsort``
on a narrow unsigned key, and cuts the :class:`Transfer` buckets with
one boundary split.  The paper's ΔM tables still drive fills,
distribute/collect and :func:`repro.distribution.localize.localize_section`.
:func:`repro.oracle.compute_comm_schedule_reference` keeps the
original element-at-a-time loop over each sender's localized elements as
the oracle the property tests and benchmarks compare against.

Rank-1 arrays on rank-1 grids are supported directly; multidimensional
statements decompose per-dimension at the :mod:`repro.runtime.exec`
level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.kernels import local_addresses_of, owners_of
from ..distribution.array import DistributedArray
from ..distribution.section import RegularSection

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


def _owners_and_slots(dim, sec: RegularSection, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Owning coordinates and compressed local slots of the first ``n``
    elements of ``sec`` along one dimension, in iteration order.

    Closed-form ``cyclic(k)`` arithmetic (:mod:`repro.core.kernels`).
    Under the identity alignment the compressed slot *is* the
    template-local address (the stride-1 allocation fills every local
    cell); otherwise each owner's addresses are ranked within its
    allocation by :meth:`_DimState.rank_function`, which is cached per
    coordinate.
    """
    layout = dim.layout
    align = dim.axis_map.alignment
    indices = np.arange(n, dtype=np.int64)
    indices *= sec.stride
    indices += sec.lower
    owners = owners_of(indices, layout.p, layout.k, align.a, align.b)
    slots = local_addresses_of(indices, layout.p, layout.k, align.a, align.b)
    del indices
    if not align.is_identity:
        for m in np.flatnonzero(np.bincount(owners, minlength=layout.p)):
            sel = owners == m
            slots[sel] = dim.rank_function(int(m)).rank_array(slots[sel])
    return owners, slots


def dim_transfers(
    dim_a, sec_a: RegularSection, dim_b, sec_b: RegularSection
) -> list[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]:
    """Transfer vectors of one iteration axis, for every rank pair at once.

    Returns ``(q, r, iterations, src_slots, dst_slots)`` for every RHS
    coordinate ``q`` sending to LHS coordinate ``r``, ascending in
    ``(q, r)``, each vector ascending in iteration number.  One
    vectorized pass over all ``n`` iterations: both sides' owners and
    slots in closed form, one stable radix ``argsort`` on the narrow key
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
    src, src_slots = _owners_and_slots(dim_b, sec_b, n)
    key = src.astype(key_type)
    del src
    key *= key_type.type(p_a)
    dst, dst_slots = _owners_and_slots(dim_a, sec_a, n)
    key += dst.astype(key_type)
    del dst
    # Stable: within one (q, r) bucket the iterations stay ascending.
    order = np.argsort(key, kind="stable")
    key = key[order]
    src_slots = src_slots[order]
    dst_slots = dst_slots[order]
    for vec in (order, src_slots, dst_slots):
        vec.flags.writeable = False
    bounds = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), n]
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        q, r = divmod(int(key[lo]), p_a)
        out.append((q, r, order[lo:hi], src_slots[lo:hi], dst_slots[lo:hi]))
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
    ranks -- O(n) vector ops plus one O(k) rank-function table per
    owning rank of a non-identity alignment; no per-element Python
    executes.  Produces transfers element-for-element identical to
    :func:`repro.oracle.compute_comm_schedule_reference`.
    """
    _check_rank1(a, "LHS")
    _check_rank1(b, "RHS")
    _check_conformable(sec_a, sec_b)
    schedule = CommSchedule(n_iterations=len(sec_a))
    for q, r, t, src_slots, dst_slots in dim_transfers(
        a._dims[0], sec_a, b._dims[0], sec_b
    ):
        transfer = Transfer(
            source=q, dest=r, iterations=t, src_slots=src_slots, dst_slots=dst_slots
        )
        if q == r:
            schedule.locals_.append(transfer)
        else:
            schedule.transfers.append(transfer)
    return schedule
