"""Access plans: everything one processor needs to traverse a section.

An :class:`AccessPlan` is one dimension's periodic access sequence on
one rank -- the starting compressed slot and the visit-order ΔM table of
:func:`repro.distribution.localize.localize_section` -- bounded by the
section's element count on that rank.  :func:`make_array_plan` builds
it for any alignment (identity alignments take ``localize_section``'s
one-table case) and :func:`materialize_addresses` expands it into the
address vector a rank-1 fill stores through.  The Figure 8 node-code
plans, with their shape-(d) tables, are bench code
(:mod:`repro.bench.nodecode`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.kernels import expand_table
from ..core.multidim import compose_flat_addresses
from ..distribution.array import DistributedArray
from ..distribution.localize import bounded_count, localize_section
from ..distribution.section import RegularSection
from .plancache import cached_localized_arrays

__all__ = [
    "AccessPlan",
    "make_array_plan",
    "materialize_addresses",
    "flat_local_addresses",
]


@dataclass(frozen=True, slots=True)
class AccessPlan:
    """Per-processor traversal plan for a bounded section.

    ``delta_m`` is the ΔM gap table in visit order and ``start_local`` the
    first compressed slot; ``count`` is the number of elements the
    processor owns within the bounds.  ``count == 0`` plans have
    ``start_local is None``.
    """

    p: int
    k: int
    m: int
    count: int
    length: int
    start_local: int | None
    delta_m: tuple[int, ...]

    @property
    def is_empty(self) -> bool:
        return self.count == 0


def make_array_plan(
    array: DistributedArray, dim: int, section: RegularSection, rank: int
) -> AccessPlan:
    """Plan for one dimension of a :class:`DistributedArray` section.

    Slots are *compressed array-local* slots, from
    :func:`~repro.distribution.localize.localize_section` for every
    alignment.  A section outside the dimension's extent raises
    ``IndexError``.
    """
    d = array._dims[dim]
    if d.layout is None:
        raise ValueError(f"dimension {dim} of {array.name} is not distributed")
    coords = array.grid.coordinates(rank)
    m = coords[d.axis_map.grid_axis]
    p, k = d.layout.p, d.layout.k
    alignment = d.axis_map.alignment
    table = localize_section(p, k, d.extent, alignment, section, m)
    # A non-empty (unbounded) cycle may still end, bounded, before the
    # rank's first owned element.
    count = 0 if table.is_empty else bounded_count(p, k, alignment, section, m)
    if count == 0:
        return AccessPlan(p, k, m, 0, 0, None, ())
    return AccessPlan(p, k, m, count, table.length, table.start_slot, table.gaps)


def materialize_addresses(plan: AccessPlan) -> np.ndarray:
    """All local addresses the plan covers, as one int64 vector -- the
    vectorized Figure 8 table walk, and the address vector every rank-1
    fill stores through."""
    return expand_table(plan.start_local, plan.delta_m, plan.count)


def flat_local_addresses(
    array: DistributedArray, sections: tuple[RegularSection, ...], rank: int
) -> np.ndarray:
    """All flat local addresses of a multidimensional section on ``rank``.

    The Section-2 reduction, vectorized: each distributed dimension runs
    the 1-D algorithm for its slot vector and the flat addresses are a
    broadcast outer sum over the row-major local shape.  Order is
    odometer (last dimension fastest), matching
    :meth:`DistributedArray.local_section_elements`.
    """
    if len(sections) != array.rank:
        raise ValueError(
            f"need one section per dimension: {array.rank} dims, "
            f"{len(sections)} sections"
        )
    coords = array.grid.coordinates(rank)
    per_dim: list[np.ndarray] = []
    for sec, dim in zip(sections, array._dims):
        norm = sec.normalized()
        if norm.is_empty:
            return np.empty(0, dtype=np.int64)
        if dim.layout is None:
            if norm.lower < 0 or norm.upper >= dim.extent:
                raise IndexError(f"section {sec} outside extent {dim.extent}")
            per_dim.append(np.arange(norm.lower, norm.upper + 1, norm.stride,
                                     dtype=np.int64))
        else:
            coord = coords[dim.axis_map.grid_axis]
            _, slots = cached_localized_arrays(
                dim.layout.p, dim.layout.k, dim.extent,
                dim.axis_map.alignment, sec, coord,
            )
            per_dim.append(slots)
    return compose_flat_addresses(per_dim, array.local_shape(rank))
