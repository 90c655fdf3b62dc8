"""All-ranks period tables: every rank's owners and compressed slots.

Under ``cyclic(k)`` over ``p`` processors an array aligned by
``i -> a*i + b`` (``a > 0``) repeats its ownership pattern with period
``T = p*k / gcd(a, p*k)`` in the array index: ``a*(i + T) + b`` lies a
whole number of template courses beyond ``a*i + b``.  One period-long
table therefore answers, for every index and every rank at once,

* ``owner(i) = owners[i mod T]``, and
* ``slot(i) = (i div T) * counts[owner(i)] + within[i mod T]``,

where ``counts[m]`` is the number of indices per period on processor
``m`` and ``within[t]`` the rank of ``t`` among its owner's indices in
``[0, T)``.  The compressed slot of an element is its rank among the
array elements on its processor, which is exactly what
:class:`repro.distribution.localize.RankFunction` computes one address at
a time.

The table is built from the paper's own per-rank tables: one Figure 5
walk over the *allocation* section ``b : ... : a`` per processor (the
first application of Section 2's two-application scheme, the same table
``RankFunction`` is built from).  A rank's walk visits its indices of
one period in order, so its cells give ``owners`` and ``within``
directly.  The walk is called through the
:mod:`repro.core.access` module attribute, so anything observing
:func:`repro.core.access.compute_access_table` sees every table built.

Negative alignments are reflected first: with ``i' = n-1-i`` the
alignment becomes ``i' -> -a*i' + a*(n-1)+b``, whose template order is
ascending ``i'``.  Identity alignment is the case ``T = p*k``.

No section table is walked here: a section ``l + j*s`` reads the index
table at its own period ``T / gcd(s, T)`` in ``j``, and everything
beyond the first period is a broadcast sum.  The two-application scheme
of :func:`repro.distribution.localize.localize_section` stays as the
paper's algorithm and as this module's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from ..core import access
from .align import Alignment

__all__ = ["PeriodTable", "period_key", "build_period_table"]


#: The fewest terms a block of a periodic sequence holds.  Whole
#: sequences are broadcast sums of a block with a per-block step, and
#: NumPy runs its inner loop over the block: short blocks (a period can
#: be a handful of terms) would make it pay its per-row overhead for
#: every few elements.
_MIN_BLOCK = 1024


def _frozen(vec: np.ndarray) -> np.ndarray:
    vec.flags.writeable = False
    return vec


@dataclass(frozen=True, slots=True, eq=False)
class PeriodTable:
    """Owners and compressed slots of every index, for every rank.

    ``a > 0`` and ``b`` are the alignment after reflection; ``last`` is
    ``n - 1`` for a reflected (``a < 0``) alignment, whose table is read
    at ``last - i``, and ``None`` otherwise.  ``owners`` is in the
    narrowest unsigned dtype holding ``p - 1``; every vector is
    read-only.
    """

    p: int
    k: int
    a: int
    b: int
    last: int | None
    owners: np.ndarray  # (T,) owner coordinate of index t
    within: np.ndarray  # (T,) rank of t among its owner's indices in [0, T)
    counts: np.ndarray  # (p,) indices per period on each owner
    spans: np.ndarray  # (T,) counts[owners[t]]

    @property
    def period(self) -> int:
        return self.owners.size

    def term_period(self, stride: int) -> int:
        """The period ``T / gcd(stride, T)`` of a section of stride
        ``stride`` in its term number: terms ``j`` and ``j + T_j`` share
        an owner."""
        return self.period // gcd(stride, self.period)

    def block_steps(self, stride: int, block: int) -> np.ndarray:
        """Per owner, how far ``block`` terms of a section of stride
        ``stride`` advance its slots (``block`` a multiple of
        :meth:`term_period`): term ``j + block`` has slot ``slot(j) +
        steps[owner(j)]``."""
        if self.last is not None:
            stride = -stride
        return stride * block // self.period * self.counts

    def _first_period(self, lower: int, stride: int, n: int):
        """Owners and slots of ``lower + j*stride`` over the first block
        of ``min(n, B)`` terms, ``B`` being a multiple of the period in
        ``j``, ``T_j = T / gcd(stride, T)``; each term's owner count; and
        the number of index periods one block spans, ``stride*B / T``.
        Term ``t`` of block ``q`` then has slot ``slots[t] + q * periods
        * spans[t]``."""
        period = self.period
        t_j = self.term_period(stride)
        block = t_j * -(-_MIN_BLOCK // t_j)
        index = np.arange(min(n, block), dtype=np.int64)
        index *= stride
        index += lower
        q = index // period
        index -= q * period
        owners = self.owners[index]
        spans = self.spans[index]
        slots = q * spans
        slots += self.within[index]
        return owners, slots, spans, stride * block // period

    def owners_and_slots(
        self, lower: int, stride: int, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Owner coordinates and compressed slots of the ``n`` indices
        ``lower + j*stride`` (any sign of ``stride``), in that order."""
        if self.last is not None:
            lower, stride = self.last - lower, -stride
        owners, slots, spans, periods = self._first_period(lower, stride, n)
        if n <= owners.size:
            return owners, slots
        reps = -(-n // owners.size)
        spans *= periods
        out = np.multiply.outer(np.arange(reps, dtype=np.int64), spans)
        out += slots
        return np.tile(owners, reps)[:n], out.reshape(-1)[:n]

    def _by_owner(self, owners: np.ndarray, first: np.ndarray, steps, n: int):
        """Per processor ``m``: ``first[t] + q*steps[m]`` over the terms
        ``q*len(first) + t < n`` that ``m`` owns, in term order."""
        full, rest = divmod(n, owners.size) if owners.size else (0, 0)
        out = []
        for m, step in enumerate(steps.tolist()):
            base = first[owners == m]
            count = full * base.size + int(np.count_nonzero(owners[:rest] == m))
            if count == 0:
                out.append(_frozen(np.empty(0, dtype=np.int64)))
                continue
            reps = -(-count // base.size)
            terms = np.add.outer(np.arange(0, reps * step, step, dtype=np.int64), base)
            out.append(_frozen(terms.reshape(-1)[:count]))
        return tuple(out)

    def slots_by_owner(self, lower: int, stride: int, n: int) -> tuple[np.ndarray, ...]:
        """Every processor's compressed slots of the section
        ``lower : lower + (n-1)*stride : stride`` (``stride > 0``), in
        template order: ascending index, or descending for a reflected
        alignment -- the order of
        :func:`repro.distribution.localize.localized_arrays`."""
        if self.last is not None:
            lower = self.last - (lower + (n - 1) * stride)
        owners, slots, _, periods = self._first_period(lower, stride, n)
        return self._by_owner(owners, slots, periods * self.counts, n)

    def indices_by_owner(self, extent: int) -> tuple[np.ndarray, ...]:
        """Every processor's array indices among ``0 .. extent-1``, in
        compressed-slot order: element ``j`` of processor ``m``'s vector
        is stored in its slot ``j``."""
        owners, _, _, _ = self._first_period(0, 1, extent)
        positions = np.arange(owners.size, dtype=np.int64)
        steps = np.full(self.p, owners.size, dtype=np.int64)
        out = self._by_owner(owners, positions, steps, extent)
        if self.last is None:
            return out
        return tuple(_frozen(self.last - vec) for vec in out)


def period_key(p: int, k: int, alignment: Alignment, extent: int) -> tuple:
    """``(p, k, a, b, last)`` of the table serving an ``extent``-element
    array aligned by ``alignment``: a negative alignment reflected, so
    ``a > 0``, with ``last = extent - 1``; otherwise ``last`` is
    ``None`` and the table serves every extent."""
    a, b = alignment.a, alignment.b
    if a > 0:
        return p, k, a, b, None
    return p, k, -a, a * (extent - 1) + b, extent - 1


def build_period_table(
    p: int, k: int, a: int, b: int, last: int | None = None
) -> PeriodTable:
    """Build the table of alignment ``i -> a*i + b`` (``a > 0``) from
    ``p`` Figure 5 walks over the allocation section ``b : ... : a``,
    one per processor."""
    if p <= 0 or k <= 0:
        raise ValueError(f"need p > 0 and k > 0, got p={p}, k={k}")
    if a <= 0:
        raise ValueError(f"reflect negative alignments first, got a={a}")
    period = p * k // gcd(a, p * k)
    # Every rank's cells of one period, as one vector of steps: each
    # rank's walk starts at its first cell >= b and visits its cells of
    # one period in ascending order (the index gaps sum to a*T), so they
    # map to indices in [0, T).
    steps: list[int] = []
    counts = np.zeros(p, dtype=np.int64)
    previous = 0  # the cell the next step starts from
    for m in range(p):
        table = access.compute_access_table(p, k, b, a, m)
        if table.is_empty:
            continue
        steps.append(table.start - previous)
        steps.extend(table.index_gaps[:-1])
        previous = table.start + a * period - table.index_gaps[-1]
        counts[m] = table.length
    if counts.sum() != period:
        raise AssertionError(f"per-rank tables cover {counts.sum()} of {period} indices")
    index = np.cumsum(np.asarray(steps, dtype=np.int64))
    index -= b
    index //= a
    owners = np.empty(period, dtype=np.min_scalar_type(p - 1))
    owners[index] = np.repeat(np.arange(p, dtype=owners.dtype), counts)
    within = np.empty(period, dtype=np.int64)
    within[index] = np.arange(period) - np.repeat(np.cumsum(counts) - counts, counts)
    return PeriodTable(
        p, k, a, b, last,
        _frozen(owners), _frozen(within), _frozen(counts),
        _frozen(counts[owners]),
    )
