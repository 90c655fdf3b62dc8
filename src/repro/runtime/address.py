"""Access plans: everything one processor needs to traverse a section.

An :class:`AccessPlan` bundles the outputs of the paper's algorithm --
starting/last local addresses, the visit-order ΔM table, and the
offset-indexed tables for node-code shape 8(d) -- together with the
bounded-section element count.  Plans for plain ``cyclic(k)``
distributions come from :func:`make_plan`; plans for
:class:`repro.distribution.DistributedArray` dimensions (including
affine alignments) from :func:`make_array_plan`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.access import compute_access_table
from ..core.counting import last_location, local_count
from ..core.multidim import compose_flat_addresses
from ..core.offsets import compute_offset_tables
from ..distribution.array import DistributedArray
from ..distribution.layout import CyclicLayout
from ..distribution.localize import localize_section
from ..distribution.section import RegularSection
from .plancache import cached_localized_arrays

__all__ = [
    "AccessPlan",
    "make_plan",
    "make_array_plan",
    "materialize_addresses",
    "flat_local_addresses",
]


@dataclass(frozen=True, slots=True)
class AccessPlan:
    """Per-processor traversal plan for a bounded section.

    ``delta_m`` is in visit order (shapes a-c); ``delta_m_by_offset`` /
    ``next_offset`` / ``start_offset`` feed shape (d).  ``count`` is the
    number of elements the processor owns within the bounds; ``count == 0``
    plans have ``start_local is None``.
    """

    p: int
    k: int
    m: int
    count: int
    length: int
    start_local: int | None
    last_local: int | None
    delta_m: tuple[int, ...]
    start_offset: int | None
    delta_m_by_offset: tuple[int, ...]
    next_offset: tuple[int, ...]

    @property
    def is_empty(self) -> bool:
        return self.count == 0


def make_plan(p: int, k: int, l: int, u: int, s: int, m: int) -> AccessPlan:
    """Build the full plan for ``A(l:u:s)`` on processor ``m`` under an
    identity-aligned ``cyclic(k)`` distribution.

    Negative strides are normalized first (the paper's Section 2
    reduction); traversal is always in increasing index order.
    """
    section = RegularSection(l, u, s).normalized()
    if section.is_empty:
        return AccessPlan(p, k, m, 0, 0, None, None, (), None, (), ())
    l, u, s = section.lower, section.upper, section.stride

    count = local_count(p, k, l, u, s, m)
    if count == 0:
        return AccessPlan(p, k, m, 0, 0, None, None, (), None, (), ())

    table = compute_access_table(p, k, l, s, m)
    offsets = compute_offset_tables(p, k, l, s, m)
    layout = CyclicLayout(p, k)
    last_global = last_location(p, k, l, u, s, m)
    return AccessPlan(
        p=p,
        k=k,
        m=m,
        count=count,
        length=table.length,
        start_local=table.start_local,
        last_local=layout.local_address_on(last_global, m),
        delta_m=table.gaps,
        start_offset=offsets.start_offset,
        delta_m_by_offset=offsets.delta_m,
        next_offset=offsets.next_offset,
    )


def make_array_plan(
    array: DistributedArray, dim: int, section: RegularSection, rank: int
) -> AccessPlan:
    """Plan for one dimension of a :class:`DistributedArray` section.

    Slots are *compressed array-local* slots (alignment-aware, via the
    two-application scheme); for identity alignments the result is
    identical to :func:`make_plan`.  Shape-(d) tables are not available
    for non-identity alignments (``start_offset is None``) because the
    offset-indexed form assumes the template walk -- shapes (a)-(c) and
    (v) work for every plan.
    """
    d = array._dims[dim]
    if d.layout is None:
        raise ValueError(f"dimension {dim} of {array.name} is not distributed")
    coords = array.grid.coordinates(rank)
    m = coords[d.axis_map.grid_axis]
    p, k = d.layout.p, d.layout.k

    norm = section.normalized()
    if norm.is_empty:
        return AccessPlan(p, k, m, 0, 0, None, None, (), None, (), ())

    if d.axis_map.alignment.is_identity:
        plan = make_plan(p, k, norm.lower, norm.upper, norm.stride, m)
        return plan

    table = localize_section(p, k, d.extent, d.axis_map.alignment, norm, m)
    if table.is_empty:
        return AccessPlan(p, k, m, 0, 0, None, None, (), None, (), ())
    image = d.axis_map.alignment.apply_section(norm).normalized()
    count = local_count(p, k, image.lower, image.upper, image.stride, m)
    if count == 0:
        # The unbounded cycle touches this rank but the bounded section
        # ends before its first owned element.
        return AccessPlan(p, k, m, 0, 0, None, None, (), None, (), ())
    slots = table.slots(count)
    return AccessPlan(
        p=p,
        k=k,
        m=m,
        count=count,
        length=table.length,
        start_local=slots[0],
        last_local=slots[-1],
        delta_m=table.gaps,
        start_offset=None,
        delta_m_by_offset=(),
        next_offset=(),
    )


def materialize_addresses(plan: AccessPlan) -> np.ndarray:
    """All local addresses the plan covers, as one NumPy array.

    ``start + cumsum(tile(gaps))`` -- the vectorized equivalent of the
    Figure 8 table walk, and the address vector every rank-1 fill stores
    through.
    """
    if plan.count == 0:
        return np.empty(0, dtype=np.int64)
    gaps = np.asarray(plan.delta_m, dtype=np.int64)
    reps = -(-plan.count // plan.length)  # ceil
    steps = np.tile(gaps, reps)[: plan.count - 1]
    out = np.empty(plan.count, dtype=np.int64)
    out[0] = plan.start_local
    if plan.count > 1:
        np.cumsum(steps, out=out[1:])
        out[1:] += plan.start_local
    return out


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
