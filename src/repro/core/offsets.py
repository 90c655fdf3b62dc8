"""Offset-indexed tables for node-code shape 8(d) (Section 6.2).

The ΔM table produced by Figure 5 is indexed by *visit order*: entry 0
is the gap taken from the starting location, whatever block offset that
happens to be.  The two-table node code of Figure 8(d), by contrast,
indexes by **local offset**: ``deltaM[o]`` is the gap leaving the
element at local offset ``o`` and ``NextOffset[o]`` is the local offset
the walk lands on.  The paper's Section 6.2 gives the modified loop body

    AM[offset - k*m]         = a_r*k + b_r
    NextOffset[offset - k*m] = offset - k*m + b_r
    offset                   = offset + b_r

(and the analogous changes for Equations 2 and 3).  The start slot is
``startoffset = start mod k``.  Those assignments record the steps the
visit-order walk takes anyway, so :func:`compute_offset_tables` derives
the tables from Figure 5's :class:`~repro.core.access.AccessTable`
rather than walking the R/L basis a second time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .access import compute_access_table

__all__ = ["OffsetTables", "compute_offset_tables"]

#: Sentinel stored in unvisited slots of the offset-indexed tables.
UNUSED = -1


@dataclass(frozen=True, slots=True)
class OffsetTables:
    """Local-offset-indexed access tables for node code 8(d).

    ``delta_m[o]`` / ``next_offset[o]`` are only meaningful for offsets
    the walk visits; unvisited slots hold :data:`UNUSED`.  ``length`` is
    the number of visited offsets (the cycle length) and
    ``start_offset`` the local offset of the starting location
    (``start mod k``).
    """

    p: int
    k: int
    l: int
    s: int
    m: int
    start: int | None
    start_offset: int | None
    length: int
    delta_m: tuple[int, ...]
    next_offset: tuple[int, ...]

    @property
    def start_local(self) -> int | None:
        if self.start is None:
            return None
        pk = self.p * self.k
        row, b = divmod(self.start, pk)
        return row * self.k + (b - self.k * self.m)

    def local_addresses(self, count: int) -> list[int]:
        """First ``count`` local addresses, walked through the tables."""
        if count < 0:
            raise ValueError(f"count must be nonnegative, got {count}")
        if self.start is None:
            if count:
                raise ValueError("processor owns no section elements")
            return []
        out = []
        addr = self.start_local
        o = self.start_offset
        for _ in range(count):
            out.append(addr)
            addr += self.delta_m[o]
            o = self.next_offset[o]
        return out


def compute_offset_tables(p: int, k: int, l: int, s: int, m: int) -> OffsetTables:
    """Figure 5's ΔM table re-indexed by local offset, for code shape 8(d).

    The visit-order table already holds every step the Section 6.2 loop
    records: the walk leaves local address ``addr_t`` (at local offset
    ``addr_t mod k``) with gap ``gaps[t]`` and lands on ``addr_{t+1}``.
    """
    table = compute_access_table(p, k, l, s, m)
    if table.is_empty:
        return OffsetTables(p, k, l, s, m, None, None, 0, (), ())
    addrs = table.local_addresses(table.length + 1)
    delta_m = [UNUSED] * k
    next_offset = [UNUSED] * k
    for t, gap in enumerate(table.gaps):
        delta_m[addrs[t] % k] = gap
        next_offset[addrs[t] % k] = addrs[t + 1] % k
    return OffsetTables(
        p, k, l, s, m, table.start, addrs[0] % k, table.length,
        tuple(delta_m), tuple(next_offset),
    )
