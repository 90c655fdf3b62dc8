"""Local addresses of every rank, read from the all-ranks period tables.

Each distributed dimension's owners and compressed slots come from its
cached :class:`~repro.distribution.period.PeriodTable`, for every rank
in one vectorized pass:

* :func:`section_slots` -- every grid coordinate's slots of one section
  along one dimension (the per-dimension plan a fill stores through,
  memoized as :func:`repro.runtime.plancache.cached_array_plan`);
* :func:`dim_indices` -- every coordinate's array indices of the whole
  dimension in slot order (what ``distribute`` and ``collect`` move,
  memoized as :func:`repro.runtime.plancache.cached_dim_indices`);
* :func:`rank_vectors` picks one rank's vector of each dimension, and
  :func:`rank_addresses` gives one rank's flat row-major addresses of a
  multidimensional section, the outer sum of its per-dimension slot
  vectors (paper Section 2's reduction).

The Figure 8 node-code plans are bench code (:mod:`repro.bench.nodecode`).
"""

from __future__ import annotations

import numpy as np

from ..core.multidim import compose_flat_addresses
from ..distribution.array import DistributedArray
from ..distribution.period import PeriodTable
from ..distribution.section import RegularSection
from .plancache import cached_dim_indices, cached_period_table

__all__ = [
    "dim_period_table",
    "section_slots",
    "dim_indices",
    "rank_vectors",
    "rank_addresses",
]


def _frozen(vec: np.ndarray) -> np.ndarray:
    vec.flags.writeable = False
    return vec


def dim_period_table(dim) -> PeriodTable:
    """The cached period table of one distributed dimension."""
    layout = dim.layout
    return cached_period_table(layout.p, layout.k, dim.axis_map.alignment, dim.extent)


def section_slots(
    array: DistributedArray, dim: int, section: RegularSection
) -> tuple[np.ndarray, ...]:
    """Every grid coordinate's compressed slots of ``section`` along
    dimension ``dim``, in template order (the order of
    :func:`repro.distribution.localize.localized_arrays`), as read-only
    int64 vectors indexed by the coordinate on the dimension's grid axis.
    An undistributed dimension has one "coordinate", whose slots are the
    section's indices.  A non-empty section outside the dimension's
    extent raises ``IndexError``.
    """
    d = array._dims[dim]
    norm = section.normalized()
    if norm.is_empty:
        return (_frozen(np.empty(0, dtype=np.int64)),) * d.nprocs
    if norm.lower < 0 or norm.upper >= d.extent:
        raise IndexError(f"section {section} outside array extent {d.extent}")
    if d.layout is None:
        return (_frozen(np.arange(norm.lower, norm.upper + 1, norm.stride, dtype=np.int64)),)
    return dim_period_table(d).slots_by_owner(norm.lower, norm.stride, len(norm))


def dim_indices(dim) -> tuple[np.ndarray, ...]:
    """Every coordinate's array indices along one dimension, in
    compressed-slot order (index ``j`` of coordinate ``c``'s vector is
    stored in local slot ``j``)."""
    if dim.layout is None:
        return (np.arange(dim.extent, dtype=np.int64),)
    layout = dim.layout
    return cached_dim_indices(layout.p, layout.k, dim.axis_map.alignment, dim.extent)


def rank_vectors(array: DistributedArray, per_dim: list, rank: int) -> list:
    """``rank``'s vector of each dimension, from per-dimension tuples
    indexed by grid coordinate (one entry for an undistributed
    dimension), such as :func:`section_slots` and :func:`dim_indices`
    return."""
    coords = array.grid.coordinates(rank)
    return [
        vecs[coords[dim.axis_map.grid_axis]] if dim.layout is not None else vecs[0]
        for vecs, dim in zip(per_dim, array._dims)
    ]


def rank_addresses(array: DistributedArray, per_dim: list, rank: int) -> np.ndarray:
    """Flat local addresses on ``rank`` of the section whose per-dimension
    all-coordinate slot vectors (from :func:`cached_array_plan`) are
    ``per_dim``: odometer order, last dimension fastest."""
    slots = rank_vectors(array, per_dim, rank)
    if len(slots) == 1:
        return slots[0]
    return compose_flat_addresses(slots, array.local_shape(rank))

