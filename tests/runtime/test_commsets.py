"""Tests for communication-set generation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distribution.align import Alignment
from repro.distribution.array import AxisMap, DistributedArray
from repro.distribution.dist import Collapsed, CyclicK, ProcessorGrid
from repro.distribution.section import RegularSection
from repro.runtime.commsets import compute_comm_schedule


def make_array(name, n, p, k, a=1, b=0, textent=None):
    grid = ProcessorGrid("P", (p,))
    return DistributedArray(
        name, (n,), grid,
        (AxisMap(CyclicK(k), Alignment(a, b), grid_axis=0, template_extent=textent),),
    )


@st.composite
def statement_params(draw):
    p = draw(st.integers(min_value=1, max_value=5))
    ka = draw(st.integers(min_value=1, max_value=8))
    kb = draw(st.integers(min_value=1, max_value=8))
    count = draw(st.integers(min_value=1, max_value=15))
    sa = draw(st.integers(min_value=1, max_value=6))
    sb = draw(st.integers(min_value=1, max_value=6))
    span = (count - 1) * max(sa, sb)
    n = draw(st.integers(min_value=span + 1, max_value=span + 40))
    la = draw(st.integers(min_value=0, max_value=n - 1 - (count - 1) * sa))
    lb = draw(st.integers(min_value=0, max_value=n - 1 - (count - 1) * sb))
    sec_a = RegularSection(la, la + (count - 1) * sa, sa)
    sec_b = RegularSection(lb, lb + (count - 1) * sb, sb)
    return p, ka, kb, n, sec_a, sec_b


class TestValidation:
    def test_non_conformable(self):
        a = make_array("A", 100, 4, 8)
        b = make_array("B", 100, 4, 8)
        with pytest.raises(ValueError, match="non-conformable"):
            compute_comm_schedule(a, RegularSection(0, 9, 1), b, RegularSection(0, 8, 1))

    def test_requires_rank1(self):
        grid = ProcessorGrid("P", (2,))
        m2 = DistributedArray(
            "M", (4, 4), grid,
            (AxisMap(CyclicK(1), grid_axis=0), AxisMap(Collapsed())),
        )
        b = make_array("B", 16, 2, 2)
        with pytest.raises(ValueError, match="rank-1"):
            compute_comm_schedule(m2, RegularSection(0, 3, 1), b, RegularSection(0, 3, 1))

    def test_requires_distributed(self):
        grid = ProcessorGrid("P", (2,))
        undist = DistributedArray("U", (10,), grid, (AxisMap(Collapsed()),))
        b = make_array("B", 10, 2, 2)
        with pytest.raises(ValueError, match="not distributed"):
            compute_comm_schedule(undist, RegularSection(0, 3, 1), b, RegularSection(0, 3, 1))


class TestSchedule:
    def test_same_mapping_is_all_local(self):
        a = make_array("A", 100, 4, 8)
        b = make_array("B", 100, 4, 8)
        sec = RegularSection(0, 99, 3)
        sched = compute_comm_schedule(a, sec, b, sec)
        assert sched.communicated_elements == 0
        assert sched.total_elements == len(sec)

    def test_shifted_sections_communicate(self):
        a = make_array("A", 100, 4, 8)
        b = make_array("B", 100, 4, 8)
        sched = compute_comm_schedule(
            a, RegularSection(0, 89, 1), b, RegularSection(10, 99, 1)
        )
        assert sched.communicated_elements > 0
        assert sched.total_elements == 90

    def test_sends_receives_views(self):
        a = make_array("A", 64, 2, 4)
        b = make_array("B", 64, 2, 8)
        sched = compute_comm_schedule(
            a, RegularSection(0, 63, 1), b, RegularSection(0, 63, 1)
        )
        for rank in range(2):
            for tr in sched.sends_from(rank):
                assert tr.source == rank and tr.dest != rank
            for tr in sched.receives_at(rank):
                assert tr.dest == rank and tr.source != rank

    @given(statement_params())
    @settings(max_examples=50, deadline=None)
    def test_locals_at_one_per_rank(self, params):
        p, ka, kb, n, sec_a, sec_b = params
        a = make_array("A", n, p, ka)
        b = make_array("B", n, p, kb)
        sched = compute_comm_schedule(a, sec_a, b, sec_b)
        per_rank = [sched.locals_at(rank) for rank in range(p + 1)]
        for rank, local in enumerate(per_rank):
            assert len(local) <= 1
            assert all(tr.source == tr.dest == rank for tr in local)
        assert [tr for local in per_rank for tr in local] == sched.locals_

    @given(statement_params())
    @settings(max_examples=100, deadline=None)
    def test_conservation_and_correct_slots(self, params):
        """Every iteration appears exactly once, with correct local slots
        at both ends, in ascending iteration order within each transfer.
        The iteration is derived from the sender's slot."""
        p, ka, kb, n, sec_a, sec_b = params
        a = make_array("A", n, p, ka)
        b = make_array("B", n, p, kb)
        sched = compute_comm_schedule(a, sec_a, b, sec_b)
        seen = []
        for tr in sched.locals_ + sched.transfers:
            ts = [
                sec_b.position_of(b.global_index((int(bs),), tr.source)[0])
                for bs in tr.src_slots
            ]
            assert ts == sorted(ts)
            for t, bs, asl in zip(ts, tr.src_slots, tr.dst_slots):
                seen.append(t)
                b_index = sec_b.element(t)
                a_index = sec_a.element(t)
                assert b.owner((b_index,)) == tr.source
                assert a.owner((a_index,)) == tr.dest
                assert b.local_address((b_index,), tr.source) == bs
                assert a.local_address((a_index,), tr.dest) == asl
        assert sorted(seen) == list(range(len(sec_a)))

    @given(statement_params())
    @settings(max_examples=50, deadline=None)
    def test_local_transfers_have_equal_endpoints(self, params):
        p, ka, kb, n, sec_a, sec_b = params
        a = make_array("A", n, p, ka)
        b = make_array("B", n, p, kb)
        sched = compute_comm_schedule(a, sec_a, b, sec_b)
        for tr in sched.locals_:
            assert tr.source == tr.dest
        for tr in sched.transfers:
            assert tr.source != tr.dest

    def test_aligned_arrays(self):
        a = make_array("A", 50, 3, 4, a=2, b=1, textent=128)
        b = make_array("B", 50, 3, 4, a=3, b=0, textent=256)
        sec = RegularSection(0, 49, 7)
        sched = compute_comm_schedule(a, sec, b, sec)
        seen = []
        for tr in sched.locals_ + sched.transfers:
            ts = [
                sec.position_of(b.global_index((int(bs),), tr.source)[0])
                for bs in tr.src_slots
            ]
            assert ts == sorted(ts)
            seen += ts
        assert sorted(seen) == list(range(len(sec)))
