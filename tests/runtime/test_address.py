"""Tests for access plans."""

import pytest
from hypothesis import given, settings

from repro.bench.nodecode import make_array_plan, make_plan, materialize_addresses
from repro.core.baselines.naive import enumerate_local_elements
from repro.distribution.align import Alignment
from repro.distribution.array import AxisMap, DistributedArray
from repro.distribution.dist import CyclicK, ProcessorGrid
from repro.distribution.section import RegularSection

from ..conftest import bounded_access_params


class TestMakePlan:
    def test_paper_case(self, paper_params):
        p, k, l, s, m = (paper_params[key] for key in "pklsm")
        plan = make_plan(p, k, l, 319, s, m)
        assert plan.delta_m == (3, 12, 15, 12, 3, 12, 3, 12)
        assert plan.start_local == 5
        assert plan.count == len(enumerate_local_elements(p, k, l, 319, s, m))

    def test_empty_section(self):
        plan = make_plan(4, 8, 10, 5, 1, 0)
        assert plan.is_empty
        assert plan.start_local is None and plan.last_local is None

    def test_negative_stride_normalized(self):
        up = make_plan(4, 8, 10, 100, 9, 1)
        down = make_plan(4, 8, 100, 10, -9, 1)
        assert up == down

    @given(bounded_access_params())
    @settings(max_examples=150, deadline=None)
    def test_plan_covers_owned_elements(self, params):
        p, k, l, u, s, m = params
        plan = make_plan(p, k, l, u, s, m)
        want = [a for _, a in enumerate_local_elements(p, k, l, u, s, m)]
        assert plan.count == len(want)
        got = list(materialize_addresses(plan))
        assert got == want
        if want:
            assert plan.start_local == want[0]
            assert plan.last_local == want[-1]


class TestMakeArrayPlan:
    def _array(self, a=1, b=0, n=320, k=8, p=4, textent=None):
        grid = ProcessorGrid("P", (p,))
        return DistributedArray(
            "A", (n,), grid,
            (AxisMap(CyclicK(k), Alignment(a, b), grid_axis=0,
                     template_extent=textent),),
        )

    def test_identity_matches_make_plan(self):
        arr = self._array()
        sec = RegularSection(4, 319, 9)
        for rank in range(4):
            got = materialize_addresses(make_array_plan(arr, 0, sec, rank))
            bench = materialize_addresses(make_plan(4, 8, 4, 319, 9, rank))
            want = [a for _, a in enumerate_local_elements(4, 8, 4, 319, 9, rank)]
            assert got.tolist() == bench.tolist() == want

    def test_aligned_plan(self):
        arr = self._array(a=2, b=1, n=100, textent=256)
        sec = RegularSection(0, 99, 7)
        total = 0
        for rank in range(4):
            plan = make_array_plan(arr, 0, sec, rank)
            total += plan.count
            if plan.is_empty:
                continue
            addrs = list(materialize_addresses(plan))
            want = [
                arr.local_address((i,), rank)
                for i in sec
                if arr.owner((i,)) == rank
            ]
            assert addrs == want
        assert total == len(sec)

    def test_empty_section(self):
        arr = self._array()
        plan = make_array_plan(arr, 0, RegularSection(5, 4, 1), 0)
        assert plan.is_empty

    def test_bounded_empty_but_cycle_nonempty(self):
        """Regression (found by differential testing): the unbounded cycle
        touches the rank, but the bounded section ends before the rank's
        first owned element."""
        # A(12) aligned i -> i+1, cyclic(1) over 2 ranks: element 0 sits on
        # template cell 1 (rank 1).  Rank 0's cycle is non-empty for the
        # unbounded stride-1 image, but the one-element section gives it
        # nothing.
        arr = self._array(a=1, b=1, n=12, k=1, p=2, textent=64)
        plan = make_array_plan(arr, 0, RegularSection(0, 0, 1), 0)
        assert plan.is_empty
        plan1 = make_array_plan(arr, 0, RegularSection(0, 0, 1), 1)
        assert plan1.count == 1

    def test_undistributed_dim(self):
        from repro.distribution.dist import Collapsed, Cyclic

        grid = ProcessorGrid("P", (2,))
        arr = DistributedArray(
            "M", (4, 6), grid,
            (AxisMap(Cyclic(), grid_axis=0), AxisMap(Collapsed())),
        )
        with pytest.raises(ValueError, match="not distributed"):
            make_array_plan(arr, 1, RegularSection(0, 5, 1), 0)
