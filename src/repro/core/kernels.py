"""Vectorized expansion of the paper's periodic access tables.

The paper's output is a tiny periodic object -- a start address plus a
ΔM gap table of length ``<= k`` -- and the O(k) construction is the
whole point.  *Consuming* that object element-at-a-time in Python,
however, buries the linear-time algorithm under O(n) interpreter
overhead.  :func:`expand_table` tiles the periodic gap table and
``cumsum``\\ s from the start address -- the first ``count`` terms of
``a_0 = start, a_{t+1} = a_t + gaps[t mod L]`` as one int64 vector -- so
a consumer touches the interpreter O(1) times per sequence, not O(n).
The periodic tables themselves still come from the O(k) algorithm in
:mod:`repro.core.access`.
"""

from __future__ import annotations

import numpy as np

from ..obs import ambient

__all__ = ["expand_table"]


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

