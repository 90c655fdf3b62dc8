"""Execute array statements on the virtual machine.

Ties the whole system together: distributed-array descriptors supply
local shapes, the access-sequence machinery supplies traversal plans and
communication schedules, and the SPMD machine runs the node programs.

* :func:`distribute` / :func:`collect` move whole arrays between a
  sequential NumPy "host" image and per-rank local memories (used for
  initialization and verification);
* :func:`execute_fill` runs ``A(sections) = value``: every rank's local
  addresses from the all-ranks period tables, then one NumPy indexed
  store per rank;
* :func:`execute_copy` runs ``A(sec_a) = B(sec_b)`` with generated
  communication (pack / exchange / unpack supersteps);
* :func:`execute_combine` runs the scaled sum ``A(sec_a) = c0*T0(...) +
  c1*T1(...) + ...`` in term order: term 0's contributions are
  assigned, later terms accumulate, so each element is evaluated left to
  right exactly as :class:`repro.lang.reference.ReferenceInterpreter`
  does (bit-identical, signed zeros included) with no zeroing pass.

Every fill, pack, unpack, distribute and collect is one NumPy
fancy-index statement.  Every pack copies once: :func:`gather_slots`
returns the fancy-index gather itself, which NumPy already allocates as
a fresh owned buffer.
"""

from __future__ import annotations

from itertools import chain
from math import prod

import numpy as np

from ..distribution.array import DistributedArray
from ..distribution.section import RegularSection
from ..machine.vm import VirtualMachine
from .address import dim_indices, rank_addresses, rank_vectors
from .commsets import CommSchedule
from .plancache import (
    cached_array_plan,
    cached_comm_schedule,
    cached_comm_schedule_2d,
)

__all__ = [
    "as_index",
    "gather_slots",
    "scatter_slots",
    "distribute",
    "collect",
    "execute_fill",
    "execute_copy",
    "execute_combine",
    "execute_copy_2d",
    "execute_transpose",
]


def as_index(slots) -> np.ndarray:
    """Slot tuple -> int64 fancy-index array (the packing/unpacking idiom
    shared by every executor, including :mod:`repro.runtime.resilient`)."""
    return np.asarray(slots, dtype=np.int64)


def gather_slots(mem, slots) -> np.ndarray:
    """Pack ``mem[slots]`` into a fresh buffer the caller owns (integer
    array indexing already allocates a new buffer, so nothing is copied
    twice).  The executors' and the resilient exchange's one packing
    idiom."""
    return mem[as_index(slots)]


def scatter_slots(mem, slots, values) -> None:
    """Unpack ``values`` into ``mem[slots]`` -- the scatter twin of
    :func:`gather_slots`."""
    mem[as_index(slots)] = values


def _check_vm(vm: VirtualMachine, array: DistributedArray) -> None:
    # A machine may have *more* ranks than the array's grid (elastic
    # membership runs migrations on a machine grown to max(p, p'); the
    # extra ranks simply hold no shard), but never fewer.
    if vm.p < array.grid.size:
        raise ValueError(
            f"machine has {vm.p} ranks but {array.name} is mapped onto "
            f"{array.grid.size}"
        )


def _dim_images(array: DistributedArray) -> list[tuple[np.ndarray, ...]]:
    """Per dimension, every coordinate's array indices in compressed-slot
    order (:func:`repro.runtime.address.dim_indices`): the whole-array
    image of every rank, from one pass over each dimension's period
    table.  ``host[np.ix_(*rank_vectors(array, images, rank))]`` is
    ``rank``'s local array."""
    return [dim_indices(dim) for dim in array._dims]


def _is_lowest_owner(array: DistributedArray, rank: int) -> bool:
    """Whether ``rank`` is the lowest rank holding each of its elements
    (true for every rank unless the array is replicated over some grid
    axis; with row-major rank linearization the lowest replica holder
    has coordinate 0 on every replicated axis)."""
    rc = array.grid.coordinates(rank)
    return all(
        rc[axis] == 0
        for axis in range(array.grid.rank)
        if array.is_replicated_over_axis(axis)
    )


def distribute(
    vm: VirtualMachine,
    array: DistributedArray,
    values: np.ndarray,
) -> None:
    """Scatter a host image into per-rank local memories (named after the
    array).  Replicated axes receive full copies.

    Vectorized: each rank's local image is gathered from every
    dimension's all-ranks indices -- no per-element ownership tests
    (:func:`repro.oracle.distribute_reference` keeps that scalar sweep)
    -- by one ``take`` per axis that needs a gather, the last one written
    straight into the rank's arena.
    """
    _check_vm(vm, array)
    values = np.asarray(values)
    if values.shape != array.shape:
        raise ValueError(
            f"host image shape {values.shape} != array shape {array.shape}"
        )
    with vm.obs.span("distribute", array=array.name):
        images = _dim_images(array)
        for rank in range(array.grid.size):
            vecs = rank_vectors(array, images, rank)
            shape = tuple(vec.size for vec in vecs)
            arena = vm.processors[rank].allocate(
                array.name, prod(shape), dtype=values.dtype
            )
            _gather_into(values, vecs, arena.reshape(shape))


def _gather_into(values: np.ndarray, vecs: list, out: np.ndarray) -> None:
    """``out[...] = values[np.ix_(*vecs)]`` without the temporary: one
    ``take`` per axis whose vector is not the whole extent in order, the
    last into ``out``.  ``mode="clip"`` never clips (every vector indexes
    inside its extent); it only spares NumPy the bounds-checked
    ``"raise"`` mode, which buffers ``out``."""
    axes = [
        axis for axis, vec in enumerate(vecs)
        if vec.size != values.shape[axis] or np.any(vec[1:] <= vec[:-1])
    ]
    if not axes:
        out[...] = values
        return
    for axis in axes[:-1]:
        values = values.take(vecs[axis], axis=axis)
    values.take(vecs[axes[-1]], axis=axes[-1], out=out, mode="clip")


def collect(
    vm: VirtualMachine,
    array: DistributedArray,
    dtype=np.float64,
) -> np.ndarray:
    """Gather per-rank local memories back into one host image.

    Replicated elements are taken from the lowest owning rank; the
    integration tests separately assert replica coherence.  Vectorized
    like :func:`distribute`: one cross-product fancy-index per
    contributing rank instead of a per-element ownership sweep.
    """
    _check_vm(vm, array)
    out = np.zeros(array.shape, dtype=dtype)
    with vm.obs.span("collect", array=array.name):
        images = _dim_images(array)
        for rank in range(array.grid.size):
            if not _is_lowest_owner(array, rank):
                continue
            out[np.ix_(*rank_vectors(array, images, rank))] = vm.processors[
                rank
            ].memory(array.name).reshape(array.local_shape(rank))
    return out


def execute_fill(
    vm: VirtualMachine,
    array: DistributedArray,
    sections: tuple[RegularSection, ...],
    value,
) -> int:
    """Run ``A(sections) = value`` on every rank; returns elements written.

    One loop for every array rank.  Every dimension's plan holds all
    ranks' slot vectors (:func:`repro.runtime.plancache.cached_array_plan`,
    read from the period tables in one pass, so a section outside the
    extent raises ``IndexError`` before any store); each rank takes the
    outer sum of its per-dimension slots and stores ``value`` through
    them in one NumPy fancy store.  Every replica is written; each
    logical element is counted once, at its lowest owner.
    """
    _check_vm(vm, array)
    if len(sections) != array.rank:
        raise ValueError(
            f"need {array.rank} sections for {array.name}, got {len(sections)}"
        )
    total = 0
    with vm.obs.span("execute_fill", array=array.name):
        plans = [cached_array_plan(array, d, sec) for d, sec in enumerate(sections)]
        for rank in range(array.grid.size):
            addrs = rank_addresses(array, plans, rank)
            if not len(addrs):
                continue
            vm.processors[rank].memory(array.name)[addrs] = value
            if _is_lowest_owner(array, rank):
                total += len(addrs)
    return total


def _copy_supersteps(vm: VirtualMachine, schedule: CommSchedule,
                     a: DistributedArray, b: DistributedArray,
                     tag: tuple) -> None:
    """The pack / exchange / unpack superstep pair shared by
    :func:`execute_copy` and :func:`execute_copy_2d`: ``schedule`` (of
    a 1-D or a 2-D statement) moves ``b``'s slots into ``a``'s, every
    message tagged ``tag``."""

    # Fortran semantics: the RHS is read in full before any element is
    # stored.  All payloads -- remote sends AND local copies -- are
    # gathered (fancy indexing copies) before the first write, so
    # aliased self-copies like A(0:n-2) = A(1:n-1) stay correct (a rank
    # may carry several local transfers in 2-D; all are gathered first).
    # Ranks beyond an operand's grid (elastic machines run with
    # vm.p >= grid.size) hold no shard of it and skip its phase.
    def pack_phase(ctx):
        if ctx.rank >= b.grid.size:
            return
        src_mem = ctx.memory(b.name)
        for tr in schedule.sends_from(ctx.rank):
            ctx.send(tr.dest, tag, gather_slots(src_mem, tr.src_slots))
        staged = [
            (tr, gather_slots(src_mem, tr.src_slots))
            for tr in schedule.locals_at(ctx.rank)
        ]
        if staged:
            dst_mem = ctx.memory(a.name)
            for tr, values in staged:
                scatter_slots(dst_mem, tr.dst_slots, values)

    def unpack_phase(ctx):
        if ctx.rank >= a.grid.size:
            return
        dst_mem = ctx.memory(a.name)
        for tr in schedule.receives_at(ctx.rank):
            scatter_slots(dst_mem, tr.dst_slots, ctx.recv(tr.source, tag))

    vm.bsp(pack_phase, unpack_phase)


def execute_copy(
    vm: VirtualMachine,
    a: DistributedArray,
    sec_a: RegularSection,
    b: DistributedArray,
    sec_b: RegularSection,
    schedule: CommSchedule | None = None,
) -> CommSchedule:
    """Run ``A(sec_a) = B(sec_b)`` with generated communication.

    Three supersteps: local copies + packed sends, then delivery, then
    unpack into LHS local memory.  A precomputed ``schedule`` may be
    passed (the compile-time-constants case the paper discusses);
    otherwise one comes from the plan cache (repeated statements over
    identically mapped operands reuse the schedule object).
    """
    _check_vm(vm, a)
    _check_vm(vm, b)
    if schedule is None:
        with vm.obs.span("schedule", statement="copy"):
            schedule = cached_comm_schedule(a, sec_a, b, sec_b)
    with vm.obs.span("execute_copy", array=a.name, rhs=b.name):
        _copy_supersteps(vm, schedule, a, b, ("copy", a.name, b.name))
    return schedule


def execute_combine(
    vm: VirtualMachine,
    a: DistributedArray,
    sec_a: RegularSection,
    terms: list[tuple[float, DistributedArray, RegularSection]],
    schedules: list[CommSchedule] | None = None,
) -> list[CommSchedule]:
    """Run ``A(sec_a) = sum_t coef_t * T_t(sec_t)`` with communication.

    Each term contributes one communication schedule (identical in shape
    to :func:`execute_copy`'s).  The pack superstep only reads: it sends
    every remote payload and stages each term's local contributions,
    scaled in place on their freshly gathered buffers.  The unpack
    superstep then writes strictly in term order -- term 0's
    contributions are assigned, terms 1..T-1 accumulate -- and every
    destination element receives exactly one contribution per term, so
    the result is ``((c0*x0 + c1*x1) + c2*x2) + ...``, bit-identical to
    :class:`repro.lang.reference.ReferenceInterpreter` with no zeroing
    pass.  Aliasing is safe: a term may read from ``A`` itself (e.g.
    ``A(1:n-2) = 0.5*A(0:n-3) + 0.5*A(2:n-1)``) because every read
    happens before the barrier and every write after it.

    Pass precomputed ``schedules`` (one per term, in order) to skip the
    compile-time set generation, as with :func:`execute_copy`.
    """
    _check_vm(vm, a)
    if not terms:
        raise ValueError("need at least one term")
    for _, src, _ in terms:
        _check_vm(vm, src)
    if schedules is None:
        schedules = [
            cached_comm_schedule(a, sec_a, src, sec_src)
            for _, src, sec_src in terms
        ]
    if len(schedules) != len(terms):
        raise ValueError(
            f"need one schedule per term: {len(terms)} terms, "
            f"{len(schedules)} schedules"
        )

    def tag(t: int) -> tuple:
        return ("combine", a.name, t)

    # rank -> per term, the staged (dst_slots, scaled values) locals;
    # filled by pack, consumed by unpack.
    staged: dict[int, list[list[tuple]]] = {}

    def pack_phase(ctx):
        by_term = []
        for t, ((coef, src, _), sched) in enumerate(zip(terms, schedules)):
            local = []
            if ctx.rank < src.grid.size:
                src_mem = ctx.memory(src.name)
                for tr in sched.sends_from(ctx.rank):
                    ctx.send(tr.dest, tag(t), src_mem[as_index(tr.src_slots)])
                for tr in sched.locals_at(ctx.rank):
                    values = src_mem[as_index(tr.src_slots)]
                    values *= coef
                    local.append((tr.dst_slots, values))
            by_term.append(local)
        staged[ctx.rank] = by_term

    def unpack_phase(ctx):
        by_term = staged.pop(ctx.rank, None)
        if ctx.rank >= a.grid.size:
            return
        if by_term is None:
            # Restarted between the supersteps: its local contributions
            # were never staged, so its slots would mix new and stale.
            raise RuntimeError(
                f"rank {ctx.rank} missed the pack superstep of the scaled "
                f"sum into {a.name}"
            )
        dst_mem = ctx.memory(a.name)
        for t, ((coef, _, _), sched) in enumerate(zip(terms, schedules)):
            received = (
                (tr.dst_slots, coef * ctx.recv(tr.source, tag(t)))
                for tr in sched.receives_at(ctx.rank)
            )
            # Term 0 assigns, later terms accumulate: one contribution
            # per destination element per term, in term order.
            for dst_slots, values in chain(by_term[t], received):
                if t == 0:
                    dst_mem[as_index(dst_slots)] = values
                else:
                    np.add.at(dst_mem, as_index(dst_slots), values)

    with vm.obs.span("execute_combine", array=a.name, terms=len(terms)):
        vm.bsp(pack_phase, unpack_phase)
    return schedules


def execute_copy_2d(
    vm: VirtualMachine,
    a: DistributedArray,
    secs_a,
    b: DistributedArray,
    secs_b,
    schedule: CommSchedule | None = None,
    rhs_dims: tuple[int, int] = (0, 1),
) -> CommSchedule:
    """Run the 2-D statement ``A(secs_a) = B(secs_b)`` with communication.

    The tensor-product schedule of
    :func:`repro.runtime.commsets2d.compute_comm_schedule_2d`; the same
    pack / exchange / unpack supersteps as :func:`execute_copy`.
    ``rhs_dims=(1, 0)`` pairs LHS dimension 0 with RHS dimension 1 --
    the distributed transpose (see :func:`execute_transpose`).
    """
    _check_vm(vm, a)
    _check_vm(vm, b)
    if schedule is None:
        schedule = cached_comm_schedule_2d(
            a, tuple(secs_a), b, tuple(secs_b), rhs_dims
        )
    with vm.obs.span("execute_copy_2d", array=a.name, rhs=b.name):
        _copy_supersteps(vm, schedule, a, b, ("copy2d", a.name, b.name))
    return schedule


def execute_transpose(
    vm: VirtualMachine,
    a: DistributedArray,
    b: DistributedArray,
    schedule: CommSchedule | None = None,
) -> CommSchedule:
    """Distributed transpose: ``A(i, j) = B(j, i)`` over whole arrays.

    The classic communication-intensive array statement; requires
    ``A.shape == (B.shape[1], B.shape[0])``.  Built on the transposed
    tensor-product schedule (``rhs_dims=(1, 0)``).
    """
    if a.rank != 2 or b.rank != 2:
        raise ValueError("transpose requires rank-2 arrays")
    if a.shape != (b.shape[1], b.shape[0]):
        raise ValueError(
            f"shape mismatch for transpose: {a.name}{list(a.shape)} vs "
            f"{b.name}{list(b.shape)}^T"
        )
    secs_a = (
        RegularSection(0, a.shape[0] - 1, 1),
        RegularSection(0, a.shape[1] - 1, 1),
    )
    secs_b = (
        RegularSection(0, b.shape[0] - 1, 1),
        RegularSection(0, b.shape[1] - 1, 1),
    )
    return execute_copy_2d(vm, a, secs_a, b, secs_b, schedule, rhs_dims=(1, 0))
