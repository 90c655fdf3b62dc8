"""Vectorized access-sequence kernels: bulk materialization in NumPy.

The paper's output is a tiny periodic object -- a start address plus a
ΔM gap table of length ``<= k`` -- and the O(k) construction is the
whole point.  *Consuming* that object element-at-a-time in Python,
however, buries the linear-time algorithm under O(n) interpreter
overhead.  These kernels expand entire access sequences with closed
NumPy forms so a runtime statement touches the interpreter O(k) times,
not O(n):

* :func:`expand_table` tiles the periodic gap table and ``cumsum``\\ s
  from the start address -- the first ``count`` terms of
  ``a_0 = start, a_{t+1} = a_t + gaps[t mod L]`` as one int64 vector;
* :func:`owners_of` / :func:`local_addresses_of` are the ``cyclic(k)``
  coordinate algebra of :class:`repro.distribution.layout.CyclicLayout`
  applied to whole index vectors (pure divmod arithmetic, fully
  broadcastable), optionally through an affine alignment ``i -> a*i+b``;
* :func:`periodic_rank_of` vectorizes the rank-function lookup of
  :class:`repro.distribution.localize.RankFunction`: the compressed
  array-local slot of every template-local address in one
  ``divmod`` + ``searchsorted`` pass.

Everything here is NumPy-only and layout-algebraic; the periodic tables
themselves still come from the O(k) algorithm in
:mod:`repro.core.access`.
"""

from __future__ import annotations

import numpy as np

from ..obs import ambient

__all__ = [
    "expand_table",
    "owners_of",
    "local_addresses_of",
    "periodic_rank_of",
]


def expand_table(start: int, gaps, count: int) -> np.ndarray:
    """First ``count`` terms of the periodic-gap sequence, vectorized.

    Equivalent to the scalar recurrence ``a_0 = start;
    a_{t+1} = a_t + gaps[t % len(gaps)]`` of
    :func:`repro.core.access.expand_sequence` in O(count) vector
    operations: tile the gap table, exclusive-``cumsum``, add the start.
    """
    ambient().inc("kernels.expand_table")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    gap_arr = np.asarray(gaps, dtype=np.int64)
    if gap_arr.ndim != 1 or gap_arr.size == 0:
        raise ValueError("gap table must be a nonempty 1-D sequence")
    length = gap_arr.size
    out = np.empty(count, dtype=np.int64)
    out[0] = start
    if count == 1:
        return out
    reps = -(-(count - 1) // length)  # ceil((count-1) / length)
    steps = np.tile(gap_arr, reps)[: count - 1]
    np.cumsum(steps, out=steps)
    out[1:] = start + steps
    return out


_INT64 = np.iinfo(np.int64)


def _cells_of(indices, p: int, k: int, a: int, b: int) -> np.ndarray:
    cells = np.asarray(indices, dtype=np.int64)
    if a == 1 and b == 0:
        return cells
    # ``a*i + b`` is monotone in ``i``, so the extremes of the index
    # vector bound every cell; check them exactly (Python ints) rather
    # than let the int64 vector silently wrap.
    if cells.size:
        for i in (int(cells.min()), int(cells.max())):
            if not _INT64.min <= a * i + b <= _INT64.max:
                raise OverflowError(
                    f"aligned cell a*i+b overflows int64 for p={p}, k={k}, "
                    f"a={a}, b={b} at index {i}"
                )
    return a * cells + b


def owners_of(indices, p: int, k: int, a: int = 1, b: int = 0) -> np.ndarray:
    """Owning processors of (aligned) global indices under ``cyclic(k)``.

    ``owner(i) = (a*i + b) mod p*k div k`` -- the closed form of
    :meth:`repro.distribution.layout.CyclicLayout.owner` broadcast over
    an index vector.  NumPy's floored ``%``/``//`` match the scalar
    Python semantics for negative cells.
    """
    if p <= 0 or k <= 0:
        raise ValueError(f"need p > 0 and k > 0, got p={p}, k={k}")
    ambient().inc("kernels.owners_of")
    blocks = _cells_of(indices, p, k, a, b) // k
    # ``blocks mod p`` without ``%``: NumPy's floor division by a scalar
    # is strength-reduced, its remainder is not.
    return blocks - blocks // p * p


def local_addresses_of(indices, p: int, k: int, a: int = 1, b: int = 0) -> np.ndarray:
    """Template-local addresses of (aligned) global indices.

    ``addr(i) = (cell div p*k) * k + cell mod p*k mod k`` with
    ``cell = a*i + b`` -- the closed form of
    :meth:`repro.distribution.layout.CyclicLayout.local_address`, valid
    on whichever processor owns each element.
    """
    if p <= 0 or k <= 0:
        raise ValueError(f"need p > 0 and k > 0, got p={p}, k={k}")
    ambient().inc("kernels.local_addresses_of")
    cells = _cells_of(indices, p, k, a, b)
    # Floor divisions only (see owners_of): with ``blocks = cell div k``,
    # ``row = blocks div p`` and ``cell mod p*k mod k = cell - blocks*k``.
    blocks = cells // k
    out = blocks // p
    out *= k
    out += cells
    blocks *= k
    out -= blocks
    return out


def periodic_rank_of(
    addrs,
    first: int,
    period_span: int,
    cycle_offsets: np.ndarray,
    *,
    strict: bool = True,
) -> np.ndarray:
    """Ranks of template-local addresses within a periodic allocation.

    The vectorized form of
    :meth:`repro.distribution.localize.RankFunction.rank`: with the
    first-cycle relative offsets ``cycle_offsets`` (sorted ascending,
    ``cycle_offsets[0] == 0``) and the period span ``P``,

        rank(addr) = (addr - first) div P * L
                     + position of (addr - first) mod P in cycle_offsets

    With ``strict=True`` a :class:`KeyError` is raised when any address
    holds no allocation point (mirroring the scalar lookup); with
    ``strict=False`` such entries come back as ``-1``.
    """
    offsets = np.asarray(cycle_offsets, dtype=np.int64)
    length = offsets.size
    if length == 0:
        raise ValueError("cycle_offsets must be nonempty")
    ambient().inc("kernels.periodic_rank_of")
    addr_arr = np.asarray(addrs, dtype=np.int64)
    q, r = np.divmod(addr_arr - first, period_span)
    pos = np.searchsorted(offsets, r)
    pos = np.minimum(pos, length - 1)
    valid = offsets[pos] == r
    if strict:
        if not valid.all():
            bad = addr_arr[~valid]
            raise KeyError(
                f"template-local address {int(bad.flat[0])} holds no array element"
            )
        return q * length + pos
    return np.where(valid, q * length + pos, -1)
