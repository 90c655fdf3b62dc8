"""Execute array statements on the virtual machine.

Ties the whole system together: distributed-array descriptors supply
local shapes, the access-sequence machinery supplies traversal plans and
communication schedules, and the SPMD machine runs the node programs.

* :func:`distribute` / :func:`collect` move whole arrays between a
  sequential NumPy "host" image and per-rank local memories (used for
  initialization and verification);
* :func:`execute_fill` runs ``A(sections) = value``: each rank's local
  addresses, then one indexed store;
* :func:`execute_copy` runs ``A(sec_a) = B(sec_b)`` with generated
  communication (pack / exchange / unpack supersteps);
* :func:`execute_combine` runs the scaled sum ``A(sec_a) = c0*T0(...) +
  c1*T1(...) + ...`` in term order: term 0's contributions are
  assigned, later terms accumulate, so each element is evaluated left to
  right exactly as :class:`repro.lang.reference.ReferenceInterpreter`
  does (bit-identical, signed zeros included) with no zeroing pass.

Every pack copies once: :func:`gather_slots` returns the fancy-index
gather itself, which NumPy already allocates as a fresh owned buffer.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from ..distribution.array import DistributedArray
from ..distribution.section import RegularSection
from ..machine.vm import VirtualMachine
from ..obs import ambient
from .address import flat_local_addresses, materialize_addresses
from .native import kernels_for
from .commsets import CommSchedule
from .plancache import (
    cached_array_plan,
    cached_comm_schedule,
    cached_comm_schedule_2d,
    cached_localized_arrays,
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


def gather_slots(mem, slots, kernels) -> np.ndarray:
    """Pack ``mem[slots]`` into a fresh buffer the caller owns --
    natively when ``kernels`` (from
    :func:`repro.runtime.native.kernels_for`) can serve the call, else
    the NumPy fancy-index gather (integer-array indexing already
    allocates a new buffer, so nothing is copied twice).  The
    executors' and the resilient exchange's one packing idiom."""
    if kernels is not None:
        out = kernels.gather(mem, as_index(slots))
        if out is not None:
            ambient().inc("native.dispatch_native")
            return out
        ambient().inc("native.dispatch_numpy")
    return mem[as_index(slots)]


def scatter_slots(mem, slots, values, kernels) -> None:
    """Unpack ``values`` into ``mem[slots]`` -- the scatter twin of
    :func:`gather_slots`, with the same native-or-NumPy dispatch."""
    if kernels is not None:
        if kernels.scatter(mem, as_index(slots), values):
            ambient().inc("native.dispatch_native")
            return
        ambient().inc("native.dispatch_numpy")
    mem[as_index(slots)] = values


def _fill_slots(mem, addrs, value, kernels) -> None:
    """``mem[addrs] = value`` -- the fill twin of :func:`scatter_slots`,
    with the same native-or-NumPy dispatch and counters."""
    if kernels is not None:
        if kernels.fill_indexed(mem, addrs, value) is not None:
            ambient().inc("native.dispatch_native")
            return
        ambient().inc("native.dispatch_numpy")
    mem[addrs] = value


def _check_vm(vm: VirtualMachine, array: DistributedArray) -> None:
    # A machine may have *more* ranks than the array's grid (elastic
    # membership runs migrations on a machine grown to max(p, p'); the
    # extra ranks simply hold no shard), but never fewer.
    if vm.p < array.grid.size:
        raise ValueError(
            f"machine has {vm.p} ranks but {array.name} is mapped onto "
            f"{array.grid.size}"
        )


def _dim_images(
    array: DistributedArray, rank: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-dimension ``(global_indices, local_slots)`` vectors of the
    *whole* array on ``rank`` -- the layout closed form each dimension's
    access-sequence machinery produces for the full-extent section."""
    rc = array.grid.coordinates(rank)
    out: list[tuple[np.ndarray, np.ndarray]] = []
    for dim in array._dims:
        if dim.layout is None:
            idx = np.arange(dim.extent, dtype=np.int64)
            out.append((idx, idx))
        else:
            coord = rc[dim.axis_map.grid_axis]
            out.append(
                cached_localized_arrays(
                    dim.layout.p, dim.layout.k, dim.extent,
                    dim.axis_map.alignment,
                    RegularSection(0, dim.extent - 1, 1), coord,
                )
            )
    return out


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
    native: bool | None = None,
) -> None:
    """Scatter a host image into per-rank local memories (named after the
    array).  Replicated axes receive full copies.

    Vectorized: each rank's local image is one cross-product fancy-index
    gather/scatter built from the per-dimension layout closed forms --
    no per-element ownership tests
    (:func:`repro.oracle.distribute_reference` keeps that scalar sweep).
    With ``native`` (see :mod:`repro.runtime.native`), rank-1 arrays run
    the gather/scatter pair through the compiled pack/unpack kernels.
    """
    _check_vm(vm, array)
    values = np.asarray(values)
    if values.shape != array.shape:
        raise ValueError(
            f"host image shape {values.shape} != array shape {array.shape}"
        )
    kernels = kernels_for(native)
    with vm.obs.span("distribute", array=array.name):
        for rank in range(array.grid.size):
            shape = array.local_shape(rank)
            local = np.zeros(shape, dtype=values.dtype)
            dims = _dim_images(array, rank)
            if kernels is not None and array.rank == 1:
                idx, slots = dims[0]
                scatter_slots(local, slots, gather_slots(values, idx, kernels),
                              kernels)
            else:
                local[np.ix_(*[slots for _, slots in dims])] = values[
                    np.ix_(*[idx for idx, _ in dims])
                ]
            proc = vm.processors[rank]
            proc.allocate(array.name, local.size, dtype=values.dtype)
            proc.memory(array.name)[:] = local.reshape(-1)


def collect(
    vm: VirtualMachine,
    array: DistributedArray,
    dtype=np.float64,
    native: bool | None = None,
) -> np.ndarray:
    """Gather per-rank local memories back into one host image.

    Replicated elements are taken from the lowest owning rank; the
    integration tests separately assert replica coherence.  Vectorized
    like :func:`distribute`: one cross-product fancy-index per
    contributing rank instead of a per-element ownership sweep (and the
    compiled gather/scatter pair for rank-1 arrays under ``native``).
    """
    _check_vm(vm, array)
    out = np.zeros(array.shape, dtype=dtype)
    kernels = kernels_for(native)
    with vm.obs.span("collect", array=array.name):
        for rank in range(array.grid.size):
            if not _is_lowest_owner(array, rank):
                continue
            dims = _dim_images(array, rank)
            local = vm.processors[rank].memory(array.name).reshape(
                array.local_shape(rank)
            )
            if kernels is not None and array.rank == 1:
                idx, slots = dims[0]
                scatter_slots(out, idx, gather_slots(local, slots, kernels),
                              kernels)
            else:
                out[np.ix_(*[idx for idx, _ in dims])] = local[
                    np.ix_(*[slots for _, slots in dims])
                ]
    return out


def execute_fill(
    vm: VirtualMachine,
    array: DistributedArray,
    sections: tuple[RegularSection, ...],
    value,
    native: bool | None = None,
) -> int:
    """Run ``A(sections) = value`` on every rank; returns elements written.

    One loop for every array rank.  Each rank materializes its local
    addresses -- a rank-1 array expands its cached ΔM plan (Figure 8's
    table walk, vectorized), a multidimensional one takes the outer sum
    of its per-dimension slot vectors -- and stores ``value`` through
    them once: compiled when ``native`` kernels
    (:mod:`repro.runtime.native`) serve the call, else the NumPy fancy
    store.  Every replica is written; each logical element is counted
    once, at its lowest owner.
    """
    _check_vm(vm, array)
    if len(sections) != array.rank:
        raise ValueError(
            f"need {array.rank} sections for {array.name}, got {len(sections)}"
        )
    kernels = kernels_for(native)
    total = 0
    with vm.obs.span("execute_fill", array=array.name):
        for rank in range(array.grid.size):
            if array.rank == 1:
                addrs = materialize_addresses(
                    cached_array_plan(array, 0, sections[0], rank)
                )
            else:
                addrs = flat_local_addresses(array, sections, rank)
            if not len(addrs):
                continue
            _fill_slots(vm.processors[rank].memory(array.name), addrs, value,
                        kernels)
            if _is_lowest_owner(array, rank):
                total += len(addrs)
    return total


def execute_copy(
    vm: VirtualMachine,
    a: DistributedArray,
    sec_a: RegularSection,
    b: DistributedArray,
    sec_b: RegularSection,
    schedule: CommSchedule | None = None,
    native: bool | None = None,
) -> CommSchedule:
    """Run ``A(sec_a) = B(sec_b)`` with generated communication.

    Three supersteps: local copies + packed sends, then delivery, then
    unpack into LHS local memory.  A precomputed ``schedule`` may be
    passed (the compile-time-constants case the paper discusses);
    otherwise one comes from the plan cache (repeated statements over
    identically mapped operands reuse the schedule object).  ``native``
    routes the pack/unpack hot loops through the compiled
    gather/scatter kernels (:mod:`repro.runtime.native`).
    """
    _check_vm(vm, a)
    _check_vm(vm, b)
    if schedule is None:
        with vm.obs.span("schedule", statement="copy"):
            schedule = cached_comm_schedule(a, sec_a, b, sec_b)
    tag = ("copy", a.name, b.name)
    kernels = kernels_for(native)

    # Fortran semantics: the RHS is read in full before any element is
    # stored.  All payloads -- remote sends AND local copies -- are
    # gathered (fancy indexing copies) before the first write, so
    # aliased self-copies like A(0:n-2) = A(1:n-1) stay correct.
    # Ranks beyond an operand's grid (elastic machines run with
    # vm.p >= grid.size) hold no shard of it and skip its phase.
    def pack_phase(ctx):
        if ctx.rank >= b.grid.size:
            return
        src_mem = ctx.memory(b.name)
        for tr in schedule.sends_from(ctx.rank):
            ctx.send(tr.dest, tag, gather_slots(src_mem, tr.src_slots, kernels))
        staged = [
            (tr, gather_slots(src_mem, tr.src_slots, kernels))
            for tr in schedule.locals_at(ctx.rank)
        ]
        if staged:
            dst_mem = ctx.memory(a.name)
            for tr, values in staged:
                scatter_slots(dst_mem, tr.dst_slots, values, kernels)

    def unpack_phase(ctx):
        if ctx.rank >= a.grid.size:
            return
        dst_mem = ctx.memory(a.name)
        for tr in schedule.receives_at(ctx.rank):
            payload = ctx.recv(tr.source, tag)
            scatter_slots(dst_mem, tr.dst_slots, payload, kernels)

    with vm.obs.span("execute_copy", array=a.name, rhs=b.name):
        vm.bsp(pack_phase, unpack_phase)
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
    schedule=None,
    rhs_dims: tuple[int, int] = (0, 1),
    native: bool | None = None,
):
    """Run the 2-D statement ``A(secs_a) = B(secs_b)`` with communication.

    The tensor-product schedule of
    :func:`repro.runtime.commsets2d.compute_comm_schedule_2d`; the same
    pack / exchange / unpack supersteps (and ``native`` pack/unpack
    dispatch) as :func:`execute_copy`.  ``rhs_dims=(1, 0)`` pairs LHS
    dimension 0 with RHS dimension 1 -- the distributed transpose (see
    :func:`execute_transpose`).
    """
    _check_vm(vm, a)
    _check_vm(vm, b)
    if schedule is None:
        schedule = cached_comm_schedule_2d(
            a, tuple(secs_a), b, tuple(secs_b), rhs_dims
        )
    tag = ("copy2d", a.name, b.name)
    kernels = kernels_for(native)

    # Read-before-write staging, as in execute_copy (a rank may carry
    # several local transfers in 2-D, so all are gathered first).
    def pack_phase(ctx):
        if ctx.rank >= b.grid.size:
            return
        src_mem = ctx.memory(b.name)
        for tr in schedule.sends_from(ctx.rank):
            ctx.send(tr.dest, tag, gather_slots(src_mem, tr.src_slots, kernels))
        staged = [
            (tr, gather_slots(src_mem, tr.src_slots, kernels))
            for tr in schedule.locals_at(ctx.rank)
        ]
        if staged:
            dst_mem = ctx.memory(a.name)
            for tr, values in staged:
                scatter_slots(dst_mem, tr.dst_slots, values, kernels)

    def unpack_phase(ctx):
        if ctx.rank >= a.grid.size:
            return
        dst_mem = ctx.memory(a.name)
        for tr in schedule.receives_at(ctx.rank):
            payload = ctx.recv(tr.source, tag)
            scatter_slots(dst_mem, tr.dst_slots, payload, kernels)

    with vm.obs.span("execute_copy_2d", array=a.name, rhs=b.name):
        vm.bsp(pack_phase, unpack_phase)
    return schedule


def execute_transpose(
    vm: VirtualMachine,
    a: DistributedArray,
    b: DistributedArray,
    schedule=None,
):
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
