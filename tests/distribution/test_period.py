"""Differential tests: the all-ranks period tables against the paper's
two-application scheme and the scalar descriptor.

:class:`repro.distribution.period.PeriodTable` gives every rank's owners
and compressed slots at once; :func:`localized_arrays` (one Figure 5
section table per rank, ranked through the allocation table) and
:meth:`DistributedArray.local_slots` / ``local_shape`` (one element at a
time) are the oracles.  Every comparison is exact, order included.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.access
from repro.distribution.align import Alignment
from repro.distribution.array import AxisMap, DistributedArray
from repro.distribution.dist import CyclicK, ProcessorGrid
from repro.distribution.localize import localized_arrays
from repro.distribution.period import build_period_table, period_key
from repro.distribution.section import RegularSection
from repro.runtime.address import dim_indices, section_slots


def make_array(p, k, n, a, b):
    return DistributedArray(
        "A", (n,), ProcessorGrid("P", (p,)),
        (AxisMap(CyclicK(k), Alignment(a, b), grid_axis=0),),
    )


def check(p, k, n, a, b, sec):
    """Every property the runtime reads from one table, against the
    oracles, for the array ``A(n)`` aligned ``i -> a*i+b`` and ``sec``."""
    align = Alignment(a, b)
    table = build_period_table(*period_key(p, k, align, n))
    arr = make_array(p, k, n, a, b)

    # Owners and slots of every index; per-rank counts.
    owners, slots = table.owners_and_slots(0, 1, n)
    assert owners.dtype == np.min_scalar_type(p - 1)
    for i in range(n):
        assert owners[i] == arr.owner((i,))
        assert slots[i] == arr.local_slots((i,), int(owners[i]))[0]
    indices = dim_indices(arr._dims[0])
    for m in range(p):
        extent = arr.local_shape(m)[0]
        assert np.count_nonzero(owners == m) == extent == indices[m].size
        assert indices[m].tolist() == [
            arr.global_index((j,), m)[0] for j in range(extent)
        ]

    # The section in iteration order (its own direction) ...
    n_sec = len(sec)
    owners, slots = table.owners_and_slots(sec.lower, sec.stride, n_sec)
    assert owners.tolist() == [arr.owner((i,)) for i in sec]
    assert slots.tolist() == [
        arr.local_slots((i,), arr.owner((i,)))[0] for i in sec
    ]
    # ... and per rank in template order, as localize_section gives it.
    per_rank = section_slots(arr, 0, sec)
    assert len(per_rank) == p
    for m in range(p):
        _, want = localized_arrays(p, k, n, align, sec, m)
        assert per_rank[m].tolist() == want.tolist()
        assert not per_rank[m].flags.writeable


@st.composite
def draw_case(draw):
    p = draw(st.integers(min_value=1, max_value=9))
    k = draw(st.integers(min_value=1, max_value=70))
    a = draw(st.sampled_from([1, 2, 3, 4, 5, -1, -2, -3, -4, -5]))
    n = draw(st.integers(min_value=1, max_value=150))
    b = draw(st.integers(min_value=0, max_value=40)) + (-a * (n - 1) if a < 0 else 0)
    l = draw(st.integers(min_value=0, max_value=n - 1))
    u = draw(st.integers(min_value=0, max_value=n - 1))
    s = draw(st.integers(min_value=1, max_value=2 * n))
    sec = RegularSection(l, u, s) if l <= u else RegularSection(l, u, -s)
    return p, k, n, a, b, sec


@given(draw_case())
@settings(max_examples=150, deadline=None)
@example((4, 8, 320, 1, 0, RegularSection(4, 319, 9)))  # the paper's example
def test_period_table_matches_oracles(case):
    check(*case)


@pytest.mark.parametrize(
    "p, k, n, a, b, sec",
    [
        (1, 1, 17, 1, 0, RegularSection(0, 16, 3)),  # p = 1, k = 1
        (1, 5, 23, 3, 2, RegularSection(22, 0, -4)),  # p = 1
        (4, 1, 40, 2, 1, RegularSection(1, 39, 2)),  # k = 1
        (3, 64, 50, 1, 0, RegularSection(0, 49, 1)),  # k > n
        (3, 64, 50, -2, 120, RegularSection(3, 45, 6)),  # k > n, a < 0
        (4, 8, 200, 1, 0, RegularSection(1, 193, 32)),  # pk | s
        (4, 8, 200, 3, 5, RegularSection(7, 199, 64)),  # pk | s, affine
        (5, 3, 90, 1, 0, RegularSection(89, 0, -7)),  # negative stride
        (5, 3, 90, -3, 300, RegularSection(80, 2, -13)),  # both reflected
        (6, 4, 60, 5, 0, RegularSection(0, 59, 1)),  # gcd(a, pk) = 1
        (6, 4, 60, 4, 3, RegularSection(2, 58, 4)),  # gcd(a, pk) = 4
        (3, 5, 30, 2, 1, RegularSection(9, 8, 1)),  # empty section
        (3, 5, 30, -1, 29, RegularSection(4, 10, -1)),  # empty, a < 0
    ],
)
def test_boundary_cases(p, k, n, a, b, sec):
    check(p, k, n, a, b, sec)


def test_empty_section_skips_the_extent_check():
    arr = make_array(3, 4, 20, 1, 0)
    assert [v.size for v in section_slots(arr, 0, RegularSection(30, 25, 1))] == [0, 0, 0]


@pytest.mark.parametrize("sec", [RegularSection(-1, 5, 1), RegularSection(0, 20, 4)])
def test_out_of_extent_section_raises(sec):
    with pytest.raises(IndexError, match="outside array extent"):
        section_slots(make_array(3, 4, 20, 2, 1), 0, sec)


def test_positive_alignments_share_one_table_across_extents():
    assert period_key(4, 8, Alignment(2, 1), 50) == period_key(4, 8, Alignment(2, 1), 90)
    assert period_key(4, 8, Alignment(-2, 99), 50) == (4, 8, 2, 1, 49)


def test_built_from_one_figure5_walk_per_rank(monkeypatch):
    """The table reads ``compute_access_table`` through the
    :mod:`repro.core.access` module attribute: the allocation section
    ``b : ... : a`` once per processor.  Whatever replaces that attribute
    (a tracer, say) sees every table built."""
    calls = []
    original = repro.core.access.compute_access_table

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(repro.core.access, "compute_access_table", spy)
    table = build_period_table(5, 6, 3, 2)
    assert calls == [(5, 6, 2, 3, m) for m in range(5)]
    assert table.period == 5 * 6 // 3
    assert table.counts.sum() == table.period


def test_rejects_unreflected_alignments():
    with pytest.raises(ValueError, match="reflect"):
        build_period_table(2, 3, -1, 5)
    with pytest.raises(ValueError, match="p > 0"):
        build_period_table(0, 3, 1, 0)
