"""Tests for the linear-time algorithm (Figure 5), incl. oracle properties."""

import pytest
from hypothesis import example, given, settings

from repro.core.access import AccessTable, compute_access_table, start_location
from repro.core.baselines.naive import enumerate_local_elements, naive_access_table
from repro.core.euclid import gcd

from ..conftest import access_params


class TestValidation:
    def test_bad_params(self):
        with pytest.raises(ValueError, match="processors"):
            compute_access_table(0, 8, 0, 9, 0)
        with pytest.raises(ValueError, match="block size"):
            compute_access_table(4, 0, 0, 9, 0)
        with pytest.raises(ValueError, match="stride"):
            compute_access_table(4, 8, 0, -9, 0)
        with pytest.raises(ValueError, match="out of range"):
            compute_access_table(4, 8, 0, 9, 4)


class TestStartLocation:
    def test_paper_example(self, paper_params):
        info = start_location(**paper_params)
        assert info.start == 13
        assert info.length == 8

    def test_empty_processor(self):
        # p=2, k=1, s=4 (pk=2, d=2): only even offsets solvable; with
        # l=0, processor 1 (offset 1) owns nothing.
        info = start_location(2, 1, 0, 4, 1)
        assert info.start is None and info.length == 0

    def test_start_is_smallest_owned(self):
        for m in range(4):
            info = start_location(4, 8, 4, 9, m)
            owned = enumerate_local_elements(4, 8, 4, 4 + 9 * 200, 9, m)
            assert info.start == owned[0][0]


class TestSpecialCases:
    def test_length_zero(self):
        table = compute_access_table(2, 1, 0, 4, 1)
        assert table.is_empty
        assert table.gaps == () and table.start is None
        assert table.local_addresses(0) == []
        with pytest.raises(ValueError, match="owns no"):
            table.local_addresses(1)

    def test_length_one(self):
        # pk = 2, s = 2, d = 2: every access lands on offset 0 of proc 0.
        table = compute_access_table(2, 1, 0, 2, 0)
        assert table.length == 1
        assert table.gaps == (1,)  # k*s/d = 1*2/2
        naive = naive_access_table(2, 1, 0, 2, 0)
        assert table.gaps == naive.gaps and table.start == naive.start

    def test_pk_divides_s(self):
        # s = pk: all accesses at one offset; each processor owns at most
        # one offset class.
        table = compute_access_table(4, 8, 3, 32, 0)
        naive = naive_access_table(4, 8, 3, 32, 0)
        assert (table.start, table.length, table.gaps) == (
            naive.start, naive.length, naive.gaps
        )


class TestPaperWalk:
    def test_am_table(self, paper_params):
        table = compute_access_table(**paper_params)
        assert table.start == 13
        assert table.length == 8
        assert table.gaps == (3, 12, 15, 12, 3, 12, 3, 12)

    def test_global_walk(self, paper_params):
        # Figure 6's rectangles: the owned elements visited, ending at the
        # first point of the next cycle (index 301).
        table = compute_access_table(**paper_params)
        assert table.global_indices(9) == [13, 40, 76, 139, 175, 202, 238, 265, 301]

    def test_start_local(self, paper_params):
        table = compute_access_table(**paper_params)
        # Element 13: row 0, offset 13, block offset 5 -> local address 5.
        assert table.start_local == 5

    def test_basis_attached(self, paper_params):
        table = compute_access_table(**paper_params)
        assert table.basis is not None
        assert table.basis.r.vector == (4, 1)
        assert table.basis.l.vector == (5, -1)


class TestAgainstOracle:
    @given(access_params())
    @example((4, 8, 4, 9, 1))  # the paper's worked example
    @example((1, 1, 0, 1, 0))
    @example((3, 5, 2, 7, 2))
    @example((8, 3, 11, 13, 5))
    @example((2, 16, 0, 31, 1))
    @example((5, 4, 3, 20, 0))  # stride spanning full courses
    @settings(max_examples=250, deadline=None)
    def test_matches_naive(self, params):
        p, k, l, s, m = params
        fast = compute_access_table(p, k, l, s, m)
        slow = naive_access_table(p, k, l, s, m)
        assert fast.start == slow.start
        assert fast.length == slow.length
        assert fast.gaps == slow.gaps
        assert fast.index_gaps == slow.index_gaps

    @given(access_params())
    @settings(max_examples=100, deadline=None)
    def test_walk_visits_owned_elements_in_order(self, params):
        p, k, l, s, m = params
        table = compute_access_table(p, k, l, s, m)
        if table.is_empty:
            assert enumerate_local_elements(p, k, l, l + s * 50, s, m) == []
            return
        count = 2 * table.length + 1
        u = l + s * (3 * p * k // gcd(s, p * k)) * 2  # cover > 2 periods
        oracle = enumerate_local_elements(p, k, l, u, s, m)[:count]
        assert table.global_indices(len(oracle)) == [g for g, _ in oracle]
        assert table.local_addresses(len(oracle)) == [a for _, a in oracle]

    @given(access_params())
    @settings(max_examples=100, deadline=None)
    def test_gap_invariants(self, params):
        """Gaps are positive; one period of gaps spans k*s/d local cells
        and pk*s/d global indices."""
        p, k, l, s, m = params
        table = compute_access_table(p, k, l, s, m)
        if table.is_empty:
            return
        d = gcd(s, p * k)
        assert all(g > 0 for g in table.gaps)
        assert sum(table.gaps) == k * s // d
        assert sum(table.index_gaps) == p * k * s // d
        assert len(table.gaps) == table.length <= k

    @given(access_params())
    @settings(max_examples=60, deadline=None)
    def test_table_independent_of_lower_bound(self, params):
        """Section 3: the lattice (hence the cyclic gap multiset) does not
        depend on l -- tables for different l are rotations of each other."""
        p, k, l, s, m = params
        t1 = compute_access_table(p, k, l, s, m)
        t2 = compute_access_table(p, k, l + s * 3, s, m)
        assert t1.length == t2.length
        if t1.length:
            doubled = t1.gaps + t1.gaps
            assert any(
                doubled[i : i + t1.length] == t2.gaps for i in range(t1.length)
            )


class TestAccessTableApi:
    def test_iter_local_addresses(self, paper_params):
        table = compute_access_table(**paper_params)
        stream = table.iter_local_addresses()
        first = [next(stream) for _ in range(10)]
        assert first == table.local_addresses(10)

    def test_negative_count(self, paper_params):
        table = compute_access_table(**paper_params)
        with pytest.raises(ValueError, match="nonnegative"):
            table.local_addresses(-1)
        with pytest.raises(ValueError, match="nonnegative"):
            table.global_indices(-1)

    def test_empty_iter(self):
        table = compute_access_table(2, 1, 0, 4, 1)
        assert list(table.iter_local_addresses()) == []

    def test_dataclass_fields(self, paper_params):
        table = compute_access_table(**paper_params)
        assert isinstance(table, AccessTable)
        assert table.pk == 32
        assert not table.is_empty
