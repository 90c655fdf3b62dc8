"""Tests for 2-D communication schedules and statement execution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distribution.align import Alignment
from repro.distribution.array import AxisMap, DistributedArray
from repro.distribution.dist import Collapsed, CyclicK, ProcessorGrid
from repro.distribution.section import RegularSection
from repro.machine.vm import VirtualMachine
from repro.runtime.commsets2d import compute_comm_schedule_2d
from repro.runtime.exec import collect, distribute, execute_copy_2d


def make_2d(name, shape, grid_shape, k0, k1, a0=1, b0=0, a1=1, b1=0, t0=None, t1=None):
    grid = ProcessorGrid("G", grid_shape)
    return DistributedArray(
        name, shape, grid,
        (
            AxisMap(CyclicK(k0), Alignment(a0, b0), grid_axis=0, template_extent=t0),
            AxisMap(CyclicK(k1), Alignment(a1, b1), grid_axis=1, template_extent=t1),
        ),
    )


class TestValidation:
    def test_rank2_required(self):
        grid = ProcessorGrid("G", (2, 2))
        v = DistributedArray("V", (8,), grid, (AxisMap(CyclicK(2), grid_axis=0),))
        m = make_2d("M", (8, 8), (2, 2), 2, 2)
        with pytest.raises(ValueError, match="rank-2"):
            compute_comm_schedule_2d(
                v, (RegularSection(0, 7, 1),) * 2, m, (RegularSection(0, 7, 1),) * 2
            )

    def test_swapped_grid_axes_supported(self):
        """An array may map dim 0 onto grid axis 1 and vice versa."""
        grid = ProcessorGrid("G", (2, 2))
        swapped = DistributedArray(
            "S", (8, 8), grid,
            (AxisMap(CyclicK(2), grid_axis=1), AxisMap(CyclicK(2), grid_axis=0)),
        )
        m = make_2d("M", (8, 8), (2, 2), 2, 2)
        sec = (RegularSection(0, 7, 1), RegularSection(0, 7, 1))
        sched = compute_comm_schedule_2d(swapped, sec, m, sec)
        assert sched.total_elements == 64

    def test_bad_rhs_dims(self):
        m = make_2d("M", (8, 8), (2, 2), 2, 2)
        sec = (RegularSection(0, 7, 1), RegularSection(0, 7, 1))
        with pytest.raises(ValueError, match="permutation"):
            compute_comm_schedule_2d(m, sec, m, sec, rhs_dims=(0, 0))

    def test_non_conformable(self):
        m = make_2d("M", (8, 8), (2, 2), 2, 2)
        with pytest.raises(ValueError, match="non-conformable"):
            compute_comm_schedule_2d(
                m, (RegularSection(0, 7, 1), RegularSection(0, 7, 1)),
                m, (RegularSection(0, 6, 1), RegularSection(0, 7, 1)),
            )

    def test_cross_p_grids(self):
        """Grids of different total size are allowed (elastic re-layout
        migrates between rank counts): executed at p = max(sizes), the
        cross-p copy is exact."""
        a = make_2d("A", (8, 8), (2, 2), 2, 2)
        b = make_2d("B", (8, 8), (3, 2), 2, 2)
        sec = (RegularSection(0, 7, 1), RegularSection(0, 7, 1))
        sched = compute_comm_schedule_2d(a, sec, b, sec)
        assert sched.total_elements == 64
        vm = VirtualMachine(6)
        host_b = np.arange(64, dtype=float).reshape(8, 8)
        distribute(vm, a, np.zeros((8, 8)))
        distribute(vm, b, host_b)
        execute_copy_2d(vm, a, sec, b, sec, schedule=sched)
        assert np.array_equal(collect(vm, a), host_b)

    def test_different_grid_shapes_same_size(self):
        """A 2x2-mapped array may copy from a 4x1-mapped one: the grids
        share the machine's 4 ranks."""
        a = make_2d("A", (8, 8), (2, 2), 2, 2)
        b = make_2d("B", (8, 8), (4, 1), 2, 2)
        sec = (RegularSection(0, 7, 1), RegularSection(0, 7, 1))
        sched = compute_comm_schedule_2d(a, sec, b, sec)
        assert sched.total_elements == 64
        vm = VirtualMachine(4)
        host_b = np.arange(64, dtype=float).reshape(8, 8)
        distribute(vm, a, np.zeros((8, 8)))
        distribute(vm, b, host_b)
        execute_copy_2d(vm, a, sec, b, sec, schedule=sched)
        assert np.array_equal(collect(vm, a), host_b)


class TestSchedule:
    def test_conservation(self):
        a = make_2d("A", (12, 10), (2, 2), 2, 3)
        b = make_2d("B", (12, 10), (2, 2), 3, 2)
        secs_a = (RegularSection(0, 11, 2), RegularSection(1, 9, 2))
        secs_b = (RegularSection(1, 11, 2), RegularSection(0, 9, 2))
        sched = compute_comm_schedule_2d(a, secs_a, b, secs_b)
        assert sched.total_elements == len(secs_a[0]) * len(secs_a[1])
        # Every destination slot appears exactly once across transfers.
        seen = set()
        for tr in sched.locals_ + sched.transfers:
            for slot in tr.dst_slots:
                key = (tr.dest, slot)
                assert key not in seen
                seen.add(key)

    def test_per_rank_views(self):
        a = make_2d("A", (12, 10), (2, 2), 2, 3)
        b = make_2d("B", (12, 10), (2, 2), 3, 2)
        secs = (RegularSection(0, 11, 1), RegularSection(0, 9, 1))
        sched = compute_comm_schedule_2d(a, secs, b, secs)
        assert sched.locals_ and sched.transfers
        for rank in range(4):
            local = sched.locals_at(rank)
            assert len(local) <= 1
            assert all(tr.source == tr.dest == rank for tr in local)
            assert sched.sends_from(rank) == [
                tr for tr in sched.transfers if tr.source == rank
            ]
            assert sched.receives_at(rank) == [
                tr for tr in sched.transfers if tr.dest == rank
            ]

    def test_identity_all_local(self):
        a = make_2d("A", (12, 12), (2, 2), 2, 2)
        b = make_2d("B", (12, 12), (2, 2), 2, 2)
        sec = (RegularSection(0, 11, 1), RegularSection(0, 11, 1))
        sched = compute_comm_schedule_2d(a, sec, b, sec)
        assert sched.communicated_elements == 0
        assert sched.total_elements == 144


class TestExecution:
    def _run(self, a, b, secs_a, secs_b, host_b):
        vm = VirtualMachine(a.grid.size)
        distribute(vm, a, np.zeros(a.shape))
        distribute(vm, b, host_b)
        execute_copy_2d(vm, a, secs_a, b, secs_b)
        return collect(vm, a)

    def test_matches_numpy(self):
        a = make_2d("A", (12, 10), (2, 2), 2, 3)
        b = make_2d("B", (12, 10), (2, 2), 3, 2)
        secs_a = (RegularSection(0, 10, 2), RegularSection(1, 9, 2))
        secs_b = (RegularSection(1, 11, 2), RegularSection(0, 8, 2))
        host_b = np.arange(120, dtype=float).reshape(12, 10)
        got = self._run(a, b, secs_a, secs_b, host_b)
        ref = np.zeros((12, 10))
        ref[0:11:2, 1:10:2] = host_b[1:12:2, 0:9:2]
        assert np.array_equal(got, ref)

    def test_aligned_2d(self):
        a = make_2d("A", (10, 8), (2, 2), 2, 2, a0=2, b0=1, t0=64, t1=16)
        b = make_2d("B", (10, 8), (2, 2), 3, 3)
        secs = (RegularSection(0, 9, 3), RegularSection(0, 7, 2))
        host_b = np.arange(80, dtype=float).reshape(10, 8)
        got = self._run(a, b, secs, secs, host_b)
        ref = np.zeros((10, 8))
        ref[0:10:3, 0:8:2] = host_b[0:10:3, 0:8:2]
        assert np.array_equal(got, ref)

    @given(
        st.integers(min_value=1, max_value=3),  # grid rows
        st.integers(min_value=1, max_value=3),  # grid cols
        st.integers(min_value=1, max_value=4),  # k's
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=5),  # counts
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=3),  # strides
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_2d_copies(self, g0, g1, ka0, ka1, kb0, kb1, c0, c1, s0, s1):
        n0 = (c0 - 1) * s0 + 3
        n1 = (c1 - 1) * s1 + 3
        a = make_2d("A", (n0, n1), (g0, g1), ka0, ka1)
        b = make_2d("B", (n0, n1), (g0, g1), kb0, kb1)
        secs_a = (
            RegularSection(0, (c0 - 1) * s0, s0),
            RegularSection(0, (c1 - 1) * s1, s1),
        )
        secs_b = (
            RegularSection(2, 2 + (c0 - 1) * s0, s0),
            RegularSection(1, 1 + (c1 - 1) * s1, s1),
        )
        host_b = np.random.default_rng(c0 * 7 + c1).random((n0, n1))
        got = self._run(a, b, secs_a, secs_b, host_b)
        ref = np.zeros((n0, n1))
        ref[0 : (c0 - 1) * s0 + 1 : s0, 0 : (c1 - 1) * s1 + 1 : s1] = host_b[
            2 : 3 + (c0 - 1) * s0 : s0, 1 : 2 + (c1 - 1) * s1 : s1
        ]
        assert np.allclose(got, ref)
