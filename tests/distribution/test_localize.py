"""Tests for the two-application alignment localization scheme."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.access import compute_access_table
from repro.distribution.align import Alignment
from repro.distribution.layout import CyclicLayout
from repro.distribution.localize import (
    RankFunction,
    localize_section,
    localized_arrays,
    localized_elements,
)
from repro.distribution.section import RegularSection


def brute_localized(p, k, extent, alignment, section, m):
    """Ground truth: rank array cells on the processor in template order,
    then list section members in template order with their ranks."""
    layout = CyclicLayout(p, k)
    cells = sorted(
        (layout.local_address(alignment.apply(i)), i)
        for i in range(extent)
        if layout.owner(alignment.apply(i)) == m
    )
    rank = {i: r for r, (_, i) in enumerate(cells)}
    return [(i, rank[i]) for _, i in cells if i in section]


@st.composite
def localize_params(draw):
    p = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=10))
    n = draw(st.integers(min_value=1, max_value=50))
    if draw(st.booleans()):
        a, b = 1, 0  # the identity: localize_section's one-table case
    else:
        a = draw(st.integers(min_value=-4, max_value=4).filter(lambda v: v != 0))
        # Keep template cells nonnegative: for a < 0 shift b up.
        b = draw(st.integers(min_value=0, max_value=8)) + (-a * (n - 1) if a < 0 else 0)
    l = draw(st.integers(min_value=0, max_value=n - 1))
    u = draw(st.integers(min_value=l, max_value=n - 1))
    s = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=0, max_value=p - 1))
    return p, k, n, Alignment(a, b), RegularSection(l, u, s), m


class TestRankFunction:
    def test_basic(self):
        table = compute_access_table(4, 8, 1, 2, 0)  # allocation: odds, stride 2
        ranks = RankFunction(table)
        addrs = table.local_addresses(12)
        for r, addr in enumerate(addrs):
            assert ranks.rank(addr) == r
            assert ranks.unrank(r) == addr

    def test_non_member_raises(self):
        table = compute_access_table(4, 8, 0, 2, 0)
        ranks = RankFunction(table)
        member = table.local_addresses(1)[0]
        with pytest.raises(KeyError, match="no array element"):
            ranks.rank(member + 1)

    def test_empty_table_rejected(self):
        empty = compute_access_table(2, 1, 0, 4, 1)
        with pytest.raises(ValueError, match="empty"):
            RankFunction(empty)

    def test_unrank_negative(self):
        table = compute_access_table(4, 8, 0, 2, 0)
        with pytest.raises(ValueError, match="nonnegative"):
            RankFunction(table).unrank(-1)


class TestLocalizeSection:
    def test_identity_matches_access_table(self, paper_params):
        p, k, l, s, m = (paper_params[key] for key in "pklsm")
        table = compute_access_table(p, k, l, s, m)
        lt = localize_section(p, k, 320, Alignment(1, 0), RegularSection(l, 319, s), m)
        assert lt.start_index == table.start
        assert lt.gaps == table.gaps
        assert lt.index_gaps == table.index_gaps

    def test_out_of_bounds(self):
        with pytest.raises(IndexError, match="outside"):
            localize_section(4, 8, 10, Alignment(1, 0), RegularSection(0, 10, 1), 0)

    def test_empty_section(self):
        lt = localize_section(4, 8, 10, Alignment(1, 0), RegularSection(5, 4, 1), 0)
        assert lt.is_empty
        assert lt.slots(0) == [] and lt.indices(0) == []
        with pytest.raises(ValueError, match="owns no"):
            lt.slots(1)

    def test_count_validation(self):
        lt = localize_section(4, 8, 320, Alignment(1, 0), RegularSection(0, 319, 9), 0)
        with pytest.raises(ValueError, match="nonnegative"):
            lt.slots(-1)
        with pytest.raises(ValueError, match="nonnegative"):
            lt.indices(-1)

    @given(localize_params())
    @example((4, 8, 64, Alignment(1, 0), RegularSection(0, 63, 3), 2))
    @example((2, 4, 40, Alignment(2, 1), RegularSection(3, 37, 5), 1))
    @example((3, 5, 50, Alignment(-1, 49), RegularSection(0, 49, 7), 0))
    @example((1, 3, 20, Alignment(1, 0), RegularSection(19, 0, 4), 0))  # lower > upper
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, params):
        p, k, n, alignment, section, m = params
        got = localized_elements(p, k, n, alignment, section, m)
        want = brute_localized(p, k, n, alignment, section, m)
        assert got == want
        indices, slots = localized_arrays(p, k, n, alignment, section, m)
        assert indices.tolist() == [i for i, _ in want]
        assert slots.tolist() == [r for _, r in want]

    @given(localize_params())
    @settings(max_examples=100, deadline=None)
    def test_periodicity(self, params):
        """The gap table walked beyond one cycle keeps matching brute force
        (the integral-period property the module docstring derives)."""
        p, k, n, alignment, section, m = params
        lt = localize_section(p, k, n, alignment, section, m)
        if lt.is_empty:
            return
        pairs = brute_localized(p, k, n, alignment, section, m)
        count = len(pairs)
        assert lt.indices(count) == [i for i, _ in pairs]
        assert lt.slots(count) == [r for _, r in pairs]
