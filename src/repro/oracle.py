"""Scalar oracles: the element-at-a-time paths the fast ones must match.

Each function here is the original per-element implementation of a
runtime operation, kept only as the reference the property tests and
the kernel benchmarks (``benchmarks/bench_kernels.py``) compare the
vectorized paths against:

* :func:`distribute_reference` / :func:`collect_reference` -- the
  ``np.ndindex`` ownership sweeps behind
  :func:`repro.runtime.exec.distribute` / :func:`~repro.runtime.exec.collect`;
* :func:`compute_comm_schedule_reference` -- the per-sender loop over
  localized elements behind
  :func:`repro.runtime.commsets.compute_comm_schedule`.

:func:`repro.distribution.localize.localized_elements` is a scalar
oracle too but stays in its module: the machine auditor and
:meth:`repro.distribution.DistributedArray.local_section_elements` call
it on their own paths.  Every call here bumps the
``kernels.scalar_path_calls`` counter.
"""

from __future__ import annotations

import numpy as np

from .distribution.array import DistributedArray
from .distribution.localize import localized_elements
from .distribution.section import RegularSection
from .machine.vm import VirtualMachine
from .obs import ambient
from .runtime.commsets import (
    CommSchedule,
    Transfer,
    _check_conformable,
    _check_rank1,
)
from .runtime.exec import _check_vm

__all__ = [
    "distribute_reference",
    "collect_reference",
    "compute_comm_schedule_reference",
]


def distribute_reference(
    vm: VirtualMachine, array: DistributedArray, values: np.ndarray
) -> None:
    """Element-at-a-time :func:`repro.runtime.exec.distribute` (the
    original ``np.ndindex`` sweep)."""
    ambient().inc("kernels.scalar_path_calls")
    _check_vm(vm, array)
    values = np.asarray(values)
    if values.shape != array.shape:
        raise ValueError(
            f"host image shape {values.shape} != array shape {array.shape}"
        )
    for rank in range(array.grid.size):
        local = np.zeros(array.local_size(rank), dtype=values.dtype)
        for idx in np.ndindex(*array.shape):
            if array.is_local(idx, rank):
                local[array.local_address(idx, rank)] = values[idx]
        proc = vm.processors[rank]
        proc.allocate(array.name, len(local), dtype=values.dtype)
        proc.memory(array.name)[:] = local


def collect_reference(
    vm: VirtualMachine, array: DistributedArray, dtype=np.float64
) -> np.ndarray:
    """Element-at-a-time :func:`repro.runtime.exec.collect` (the
    original per-element ownership sweep)."""
    ambient().inc("kernels.scalar_path_calls")
    _check_vm(vm, array)
    out = np.zeros(array.shape, dtype=dtype)
    for idx in np.ndindex(*array.shape):
        rank = array.owners(idx)[0]
        out[idx] = vm.processors[rank].memory(array.name)[array.local_address(idx, rank)]
    return out


def compute_comm_schedule_reference(
    a: DistributedArray,
    sec_a: RegularSection,
    b: DistributedArray,
    sec_b: RegularSection,
) -> CommSchedule:
    """Element-at-a-time :func:`repro.runtime.commsets.compute_comm_schedule`
    (the original scalar path): every sender's localized elements,
    bucketed by ``(source, dest)``.  The vectorized schedule must
    produce identical transfers."""
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
            src_slots=tuple(bs for _, bs, _ in triples),
            dst_slots=tuple(asl for _, _, asl in triples),
        )
        if q == r:
            schedule.locals_.append(transfer)
        else:
            schedule.transfers.append(transfer)
    return schedule
