"""Access sequences under affine alignment: the two-application scheme.

Paper, Section 2: "Chatterjee et al. show that the memory access problem
for any affine alignment can be solved by two applications of the access
sequence computation algorithm for the identity alignment."  This module
implements that scheme:

1. **Application 1 (allocation):** the array's elements occupy template
   cells ``b, a+b, 2a+b, ...`` -- a regular section with stride ``a``.
   Its access table describes, per processor, which *template-local*
   addresses hold array elements.  Compressed array storage assigns the
   array element at the ``r``-th such address local slot ``r``; the rank
   function :class:`RankFunction` computes ``r`` from a template-local
   address in O(1) using the allocation table's periodic structure.

2. **Application 2 (section):** the array section ``A(l:u:s)`` touches
   template cells ``a*l+b : a*u+b : a*s`` -- another regular section.
   Its access table enumerates the touched template-local addresses in
   order; mapping each through the rank function yields array-local
   slots, and differencing those gives the array-local gap table.

The combined gap table is periodic with the *section* table's cycle
length, because one section period spans an integral number of
allocation periods (``d_alloc * s / d_sect`` of them).

Under the identity alignment application 1 maps every template-local
address to itself, so :func:`localize_section` builds the section table
alone: one Figure 5 table, no rank function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.access import AccessTable, compute_access_table, expand_sequence
from ..core.counting import local_count
from ..core.euclid import extended_gcd
from .align import Alignment
from .section import RegularSection

__all__ = [
    "RankFunction",
    "LocalizedTable",
    "localize_section",
    "bounded_count",
    "localized_elements",
    "localized_arrays",
]


class RankFunction:
    """Rank of a template-local address within an allocation sequence.

    Built from the allocation sequence's access table on one processor:
    the first-cycle addresses ``c_0 < c_1 < ... < c_{L-1}`` and the
    period span ``P`` satisfy ``c_{t + q*L} = c_t + q*P``, so

        rank(addr) = q * L + position_in_cycle(addr - q * P)

    Lookups are O(1) via a residue dictionary.
    """

    def __init__(self, table: AccessTable) -> None:
        if table.is_empty:
            raise ValueError("allocation sequence is empty on this processor")
        self.table = table
        d, _, _ = extended_gcd(table.s, table.pk)
        self.period_span = table.k * table.s // d
        addrs = table.local_addresses(table.length)
        self.first = addrs[0]
        self._position = {addr - self.first: t for t, addr in enumerate(addrs)}
        self.cycle = addrs

    def rank(self, addr: int) -> int:
        """Array-local slot of the element stored at template-local
        ``addr``; raises KeyError if no allocation point lives there."""
        delta = addr - self.first
        q, r = divmod(delta, self.period_span)
        if r not in self._position:
            raise KeyError(f"template-local address {addr} holds no array element")
        return q * self.table.length + self._position[r]

    def unrank(self, slot: int) -> int:
        """Template-local address of array-local ``slot`` (inverse of
        :meth:`rank`)."""
        if slot < 0:
            raise ValueError(f"slot must be nonnegative, got {slot}")
        q, t = divmod(slot, self.table.length)
        return self.cycle[t] + q * self.period_span


@dataclass(frozen=True, slots=True)
class LocalizedTable:
    """Array-local access sequence for a section under affine alignment.

    ``start_index`` is the global *array* index of the first owned
    section element (in template traversal order), ``start_slot`` its
    array-local storage slot, ``gaps`` the periodic slot gaps and
    ``index_gaps`` the matching array-index gaps.  For alignments with
    ``a > 0`` template order equals array-index order; for ``a < 0`` it
    is the reverse (use :meth:`reversed_in_index_order`).
    """

    p: int
    k: int
    m: int
    alignment: Alignment
    start_index: int | None
    start_slot: int | None
    length: int
    gaps: tuple[int, ...]
    index_gaps: tuple[int, ...]

    @property
    def is_empty(self) -> bool:
        return self.length == 0

    def slots(self, count: int) -> list[int]:
        """First ``count`` array-local slots of the sequence."""
        return expand_sequence(self.start_slot, self.gaps, count)

    def indices(self, count: int) -> list[int]:
        """First ``count`` global array indices of the sequence."""
        return expand_sequence(self.start_index, self.index_gaps, count)

    def slots_array(self, count: int) -> np.ndarray:
        """First ``count`` array-local slots as one int64 vector (the
        vectorized form of :meth:`slots`)."""
        return expand_sequence(self.start_slot, self.gaps, count, vectorized=True)

    def indices_array(self, count: int) -> np.ndarray:
        """First ``count`` global array indices as one int64 vector (the
        vectorized form of :meth:`indices`)."""
        return expand_sequence(self.start_index, self.index_gaps, count, vectorized=True)


def localize_section(
    p: int,
    k: int,
    extent: int,
    alignment: Alignment,
    section: RegularSection,
    m: int,
) -> LocalizedTable:
    """Two-application access sequence for ``A(section)`` on processor ``m``.

    ``extent`` is the array's size ``n`` (elements ``0..n-1``); the
    section must lie within ``[0, extent)`` (``IndexError`` otherwise).
    Negative strides are normalized first.  The sequence follows
    *template* order, i.e. increasing array index when ``alignment.a > 0``
    and decreasing when ``a < 0``.  Under the identity alignment the
    allocation run does nothing and one Figure 5 table is built.
    """
    norm = section.normalized()
    if norm.is_empty:
        return LocalizedTable(p, k, m, alignment, None, None, 0, (), ())
    if norm.lower < 0 or norm.upper >= extent:
        raise IndexError(f"section {section} outside array extent {extent}")

    # Application 2 (built first): the section's image on the template
    # axis, in template (increasing-cell) order.  Its cells are
    # allocation cells, so a processor it misses holds none of the
    # section, whatever it allocates.
    image = alignment.apply_section(norm).normalized()
    sec_table = compute_access_table(p, k, image.lower, image.stride, m)
    if sec_table.is_empty:
        return LocalizedTable(p, k, m, alignment, None, None, 0, (), ())
    if alignment.is_identity:
        # Application 1 is the identity: each template-local address is
        # its own compressed slot, so the section table is the answer.
        return LocalizedTable(
            p, k, m, alignment, sec_table.start, sec_table.start_local,
            sec_table.length, sec_table.gaps, sec_table.index_gaps,
        )

    # Application 1: allocation sequence (template stride |a|).  It is
    # non-empty here, because the section's cells are allocation cells.
    alloc = alignment.allocation_section(extent).normalized()
    ranks = RankFunction(
        compute_access_table(p, k, alloc.lower, alloc.stride, m)
    )

    # Map one cycle (plus the wrap point) of template-local addresses to
    # array-local slots and difference them.
    template_addrs = sec_table.local_addresses(sec_table.length + 1)
    slots = [ranks.rank(addr) for addr in template_addrs]
    gaps = tuple(slots[t + 1] - slots[t] for t in range(sec_table.length))

    cells = sec_table.global_indices(sec_table.length + 1)
    indices = [alignment.invert(c) for c in cells]
    if any(i is None for i in indices):
        raise AssertionError("section image cell holds no array element")
    index_gaps = tuple(indices[t + 1] - indices[t] for t in range(sec_table.length))

    return LocalizedTable(
        p, k, m, alignment,
        indices[0], slots[0], sec_table.length, gaps, index_gaps,
    )


def bounded_count(
    p: int, k: int, alignment: Alignment, section: RegularSection, m: int
) -> int:
    """Owned-element count of the bounded section on processor ``m``."""
    norm = section.normalized()
    image = alignment.apply_section(norm).normalized()
    return local_count(p, k, image.lower, image.upper, image.stride, m)


def localized_elements(
    p: int,
    k: int,
    extent: int,
    alignment: Alignment,
    section: RegularSection,
    m: int,
) -> list[tuple[int, int]]:
    """All ``(array_index, array_local_slot)`` pairs of the section owned
    by processor ``m``, in template order.  Bounded by the section's
    upper end.

    This is the *scalar reference path* (pure-Python expansion); the
    runtime consumes :func:`localized_arrays`, which produces the same
    sequence as NumPy vectors in O(count) vector ops.  The property
    tests assert the two stay bit-identical.
    """
    table = localize_section(p, k, extent, alignment, section, m)
    if table.is_empty:
        return []
    count = bounded_count(p, k, alignment, section, m)
    return list(zip(table.indices(count), table.slots(count)))


def localized_arrays(
    p: int,
    k: int,
    extent: int,
    alignment: Alignment,
    section: RegularSection,
    m: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`localized_elements`: the section's owned
    ``(array_indices, array_local_slots)`` on processor ``m`` as two
    parallel int64 vectors in template order.

    The periodic table is built once with the O(k) algorithm and
    expanded with :func:`repro.core.kernels.expand_table`; no
    per-element Python executes.  The returned arrays are marked
    read-only so cached copies can be shared safely
    (see :mod:`repro.runtime.plancache`).
    """
    table = localize_section(p, k, extent, alignment, section, m)
    if table.is_empty:
        indices = slots = np.empty(0, dtype=np.int64)
    else:
        count = bounded_count(p, k, alignment, section, m)
        indices = table.indices_array(count)
        slots = table.slots_array(count)
    indices.flags.writeable = False
    slots.flags.writeable = False
    return indices, slots
