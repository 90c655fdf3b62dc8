"""Tests for block-cyclic redistribution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distribution.array import AxisMap, DistributedArray
from repro.distribution.dist import Block, Collapsed, CyclicK, ProcessorGrid
from repro.machine.vm import VirtualMachine
from repro.runtime.exec import collect, distribute
from repro.runtime.redistribute import (
    plan_redistribution,
    redistribute,
    traffic_matrix,
)


def make_1d(name, n, p, k_or_dist):
    grid = ProcessorGrid("P", (p,))
    dist = k_or_dist if not isinstance(k_or_dist, int) else CyclicK(k_or_dist)
    return DistributedArray(name, (n,), grid, (AxisMap(dist, grid_axis=0),))


class TestPlan:
    def test_identity_is_all_local(self):
        a = make_1d("A", 96, 4, 8)
        b = make_1d("B", 96, 4, 8)
        _, stats = plan_redistribution(a, b)
        assert stats.remote_elements == 0
        assert stats.locality == 1.0
        assert stats.elements == 96

    def test_shape_mismatch(self):
        a = make_1d("A", 10, 2, 2)
        b = make_1d("B", 12, 2, 2)
        with pytest.raises(ValueError, match="shape mismatch"):
            plan_redistribution(a, b)
        # A precomputed schedule (here for A = A) does not waive the check.
        schedule, _ = plan_redistribution(a, a)
        with pytest.raises(ValueError, match="shape mismatch"):
            redistribute(VirtualMachine(2), a, b, schedule=schedule)

    def test_rank1_required(self):
        grid = ProcessorGrid("P", (2,))
        m2 = DistributedArray(
            "M", (4, 4), grid,
            (AxisMap(CyclicK(1), grid_axis=0), AxisMap(Collapsed())),
        )
        with pytest.raises(ValueError, match="rank-1"):
            plan_redistribution(m2, m2)

    def test_cyclic1_to_block_moves_most(self):
        n, p = 64, 4
        src = make_1d("S", n, p, 1)
        dst = make_1d("D", n, p, Block())
        _, stats = plan_redistribution(dst, src)
        # cyclic(1) -> block keeps only ~n/p^2 elements local.
        assert stats.remote_elements >= n * (p - 1) // p - p
        assert 0 < stats.locality < 0.5
        assert stats.max_fan_out <= p - 1


class TestExecute:
    @pytest.mark.parametrize("k_src,k_dst", [(1, 8), (8, 1), (3, 5), (8, 8)])
    def test_values_preserved(self, k_src, k_dst):
        n, p = 120, 4
        src = make_1d("S", n, p, k_src)
        dst = make_1d("D", n, p, k_dst)
        vm = VirtualMachine(p)
        host = np.arange(n, dtype=float) * 1.5
        distribute(vm, src, host)
        distribute(vm, dst, np.zeros(n))
        stats = redistribute(vm, dst, src)
        assert np.array_equal(collect(vm, dst), host)
        assert stats.elements == n

    def test_precomputed_schedule(self):
        n, p = 60, 3
        src = make_1d("S", n, p, 2)
        dst = make_1d("D", n, p, 7)
        schedule, _ = plan_redistribution(dst, src)
        vm = VirtualMachine(p)
        host = np.random.default_rng(0).random(n)
        distribute(vm, src, host)
        distribute(vm, dst, np.zeros(n))
        redistribute(vm, dst, src, schedule=schedule)
        assert np.allclose(collect(vm, dst), host)

    def test_precomputed_schedule_skips_replanning(self, monkeypatch):
        """Regression: a passed schedule used to be ignored for the stats
        and the whole communication plan recomputed just to derive them."""
        import sys

        from repro.runtime.redistribute import stats_from_schedule

        # The package re-exports a `redistribute` *function*, which wins
        # over the submodule in `import ... as`; go through sys.modules.
        redistribute_mod = sys.modules["repro.runtime.redistribute"]

        n, p = 60, 3
        src = make_1d("S", n, p, 2)
        dst = make_1d("D", n, p, 7)
        schedule, planned_stats = plan_redistribution(dst, src)

        def boom(*args, **kwargs):
            raise AssertionError("redistribute(schedule=...) must not replan")

        monkeypatch.setattr(redistribute_mod, "plan_redistribution", boom)
        monkeypatch.setattr(redistribute_mod, "cached_comm_schedule", boom)
        vm = VirtualMachine(p)
        host = np.arange(n, dtype=float)
        distribute(vm, src, host)
        distribute(vm, dst, np.zeros(n))
        stats = redistribute(vm, dst, src, schedule=schedule)
        assert stats == planned_stats
        assert stats == stats_from_schedule(schedule)
        assert np.array_equal(collect(vm, dst), host)

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=80),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_redistributions(self, p, k1, k2, n):
        src = make_1d("S", n, p, k1)
        dst = make_1d("D", n, p, k2)
        vm = VirtualMachine(p)
        host = np.arange(n, dtype=float) + 0.5
        distribute(vm, src, host)
        distribute(vm, dst, np.zeros(n))
        stats = redistribute(vm, dst, src)
        assert np.array_equal(collect(vm, dst), host)
        assert stats.local_elements + stats.remote_elements == n


class TestTrafficMatrix:
    def test_row_sums_are_source_ownership(self):
        n, p = 64, 4
        src = make_1d("S", n, p, 2)
        dst = make_1d("D", n, p, Block())
        schedule, stats = plan_redistribution(dst, src)
        matrix = traffic_matrix(schedule, p)
        assert matrix.sum() == n
        for q in range(p):
            assert matrix[q].sum() == src.local_size(q)
        for r in range(p):
            assert matrix[:, r].sum() == dst.local_size(r)
        assert np.trace(matrix) == stats.local_elements
