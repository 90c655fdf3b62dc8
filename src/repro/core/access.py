"""The linear-time memory-access-sequence algorithm (paper Figure 5).

Given distribution parameters ``(p, k)``, regular-section parameters
``(l, s)`` and a processor number ``m``, compute:

* the **starting location** -- the smallest section element owned by
  processor ``m`` (Chatterjee et al.'s Diophantine method, shared with
  the sorting baseline);
* the **cycle length** -- how many block offsets of processor ``m`` are
  touched per period;
* the **ΔM table** of local-memory gaps between consecutive accesses,
  computed in O(k) by walking the R/L lattice basis (Theorems 2-3)
  instead of sorting the initial cycle.

Total cost: ``O(k + min(log s, log p))``; at most ``2k + 1`` lattice
points are examined (Section 5.1).

The functions here deal with the *identity alignment* case; affine
alignments are handled by :mod:`repro.distribution.localize` via the
two-application scheme the paper describes in Section 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .euclid import extended_gcd
from .kernels import expand_table
from .lattice import LatticePoint, RLBasis, compute_rl_basis

__all__ = [
    "AccessTable",
    "StartInfo",
    "start_location",
    "compute_access_table",
    "expand_sequence",
]


def _validate(p: int, k: int, s: int, m: int) -> None:
    if p <= 0:
        raise ValueError(f"number of processors must be positive, got p={p}")
    if k <= 0:
        raise ValueError(f"block size must be positive, got k={k}")
    if s <= 0:
        raise ValueError(
            f"stride must be positive, got s={s}; normalize negative strides "
            "with repro.distribution.section.RegularSection first"
        )
    if not 0 <= m < p:
        raise ValueError(f"processor number m={m} out of range [0, {p})")


def expand_sequence(start, gaps, count: int, vectorized: bool = False):
    """First ``count`` terms of ``a_0 = start, a_{t+1} = a_t + gaps[t % L]``.

    The one expansion of a periodic access sequence, behind the accessors
    of :class:`AccessTable` and
    :class:`repro.distribution.localize.LocalizedTable`: a list built by
    the scalar recurrence (the reference path), or with ``vectorized``
    one int64 vector from :func:`repro.core.kernels.expand_table`.  Empty
    ``gaps`` mean the processor owns no section elements, so only
    ``count == 0`` is valid.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if not gaps:
        if count:
            raise ValueError("processor owns no section elements")
        return np.empty(0, dtype=np.int64) if vectorized else []
    if vectorized:
        return expand_table(start, gaps, count)
    out = []
    for t in range(count):
        out.append(start)
        start += gaps[t % len(gaps)]
    return out


@dataclass(frozen=True, slots=True)
class StartInfo:
    """Starting location for one processor (Figure 5 lines 1-11).

    ``start`` is the global array index of the first section element
    owned by the processor, or ``None`` when the processor owns none
    (cycle length 0).  ``length`` is the number of block offsets touched
    per period -- the length of the ΔM table.
    """

    start: int | None
    length: int


def start_location(p: int, k: int, l: int, s: int, m: int) -> StartInfo:
    """Find the first section element of ``A(l::s)`` on processor ``m``.

    Solves the congruences ``s*j ≡ i (mod p*k)`` for each target offset
    displacement ``i in [k*m - l, k*m - l + k)``; solvable equations are
    exactly those with ``d | i`` where ``d = gcd(s, p*k)``, and the
    paper's simplification (visit only multiples of ``d``) is applied so
    the loop body never tests divisibility.
    """
    _validate(p, k, s, m)
    pk = p * k
    d, x, _ = extended_gcd(s, pk)
    period = pk // d
    lo = k * m - l
    # First multiple of d that is >= lo.
    first = lo + (-lo) % d
    start: int | None = None
    length = 0
    for i in range(first, lo + k, d):
        j = (i // d) * x % period
        loc = l + j * s
        if start is None or loc < start:
            start = loc
        length += 1
    return StartInfo(start, length)


@dataclass(frozen=True, slots=True)
class AccessTable:
    """The local memory access sequence for one processor.

    The sequence of local addresses visited by processor ``m`` is::

        addr_0 = start_local
        addr_{t+1} = addr_t + gaps[t % length]

    and the corresponding global indices advance by ``index_gaps``.
    ``gaps`` is the paper's AM table; its entries sum to the per-period
    local span ``k * s / d`` and the index gaps sum to the index period
    ``p*k*s/d``.
    """

    p: int
    k: int
    l: int
    s: int
    m: int
    start: int | None
    length: int
    gaps: tuple[int, ...]
    index_gaps: tuple[int, ...] = field(default=())
    basis: RLBasis | None = None

    @property
    def pk(self) -> int:
        return self.p * self.k

    @property
    def is_empty(self) -> bool:
        return self.length == 0

    @property
    def start_local(self) -> int | None:
        """Local memory address of the starting location."""
        if self.start is None:
            return None
        row, b = divmod(self.start, self.pk)
        return row * self.k + (b - self.k * self.m)

    def local_addresses(self, count: int) -> list[int]:
        """First ``count`` local addresses of the access sequence."""
        return expand_sequence(self.start_local, self.gaps, count)

    def global_indices(self, count: int) -> list[int]:
        """First ``count`` global array indices of the access sequence."""
        return expand_sequence(self.start, self.index_gaps, count)

    def local_addresses_array(self, count: int) -> np.ndarray:
        """First ``count`` local addresses as one int64 vector (the
        vectorized form of :meth:`local_addresses`)."""
        return expand_sequence(self.start_local, self.gaps, count, vectorized=True)

    def global_indices_array(self, count: int) -> np.ndarray:
        """First ``count`` global indices as one int64 vector (the
        vectorized form of :meth:`global_indices`)."""
        return expand_sequence(self.start, self.index_gaps, count, vectorized=True)

    def iter_local_addresses(self) -> Iterator[int]:
        """Endless stream of local addresses (use with an upper bound)."""
        if self.is_empty:
            return
        addr = self.start_local
        t = 0
        while True:
            yield addr
            addr += self.gaps[t % self.length]
            t += 1


def compute_access_table(p: int, k: int, l: int, s: int, m: int) -> AccessTable:
    """Run the full algorithm of Figure 5 and return the ΔM table.

    Complexity ``O(k + min(log s, log p))``: one extended-Euclid call,
    two O(k) scans (start location, initial-cycle min/max) and the O(k)
    basis walk that emits the table.
    """
    _validate(p, k, s, m)
    pk = p * k
    d, x, _ = extended_gcd(s, pk)
    period = pk // d

    info = start_location(p, k, l, s, m)
    start, length = info.start, info.length

    # Special cases (Figure 5 lines 12-18).
    if length == 0:
        return AccessTable(p, k, l, s, m, None, 0, (), ())
    if length == 1:
        # One offset per period: the gap spans a full period, s/d rows of
        # k local cells each.
        return AccessTable(
            p, k, l, s, m, start, 1, (k * s // d,), (pk * s // d,)
        )

    # Basis vectors R and L (Figure 5 lines 19-30), independent of l, m.
    basis = compute_rl_basis(p, k, s)
    (br, ar), (bl, al) = basis.r.vector, basis.l.vector
    ir, il = basis.r.i, basis.l.i

    gap_r = ar * k + br
    gap_l = -(al * k + bl)  # Equation 2 gap (note a_l <= 0, i_l < 0)
    idx_r = ir * s
    idx_l = -il * s

    gaps: list[int] = []
    index_gaps: list[int] = []
    offset = start % pk
    hi = k * (m + 1)
    lo = k * m
    i = 0
    while i < length:
        # Equation 1: repeated R steps stay inside the block range.
        while i < length and offset + br < hi:
            gaps.append(gap_r)
            index_gaps.append(idx_r)
            offset += br
            i += 1
        if i == length:
            break
        # Equation 2: step -L.
        gap = gap_l
        idx = idx_l
        offset -= bl
        if offset < lo:
            # Equation 3: -L overshot below the block; add R back.
            gap += gap_r
            idx += idx_r
            offset += br
        gaps.append(gap)
        index_gaps.append(idx)
        i += 1

    return AccessTable(
        p, k, l, s, m, start, length, tuple(gaps), tuple(index_gaps), basis
    )
