"""End-to-end integration tests: statements on the virtual machine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distribution.align import Alignment
from repro.distribution.array import AxisMap, DistributedArray
from repro.bench.nodecode import SHAPES, make_plan
from repro.distribution.dist import Block, Collapsed, Cyclic, CyclicK, ProcessorGrid
from repro.distribution.section import RegularSection
from repro.machine.vm import VirtualMachine
from repro.runtime.commsets import compute_comm_schedule
from repro.runtime.exec import collect, distribute, execute_copy, execute_fill


def make_1d(name, n, p, k, a=1, b=0, textent=None):
    grid = ProcessorGrid("P", (p,))
    return DistributedArray(
        name, (n,), grid,
        (AxisMap(CyclicK(k), Alignment(a, b), grid_axis=0, template_extent=textent),),
    )


class TestDistributeCollect:
    def test_roundtrip_1d(self):
        arr = make_1d("A", 100, 4, 8)
        vm = VirtualMachine(4)
        host = np.arange(100, dtype=float)
        distribute(vm, arr, host)
        assert np.array_equal(collect(vm, arr), host)

    def test_roundtrip_2d(self):
        grid = ProcessorGrid("P", (2, 2))
        arr = DistributedArray(
            "M", (10, 12), grid,
            (AxisMap(CyclicK(3), grid_axis=0), AxisMap(Block(), grid_axis=1)),
        )
        vm = VirtualMachine(4)
        host = np.arange(120, dtype=float).reshape(10, 12)
        distribute(vm, arr, host)
        assert np.array_equal(collect(vm, arr), host)

    def test_shape_mismatch(self):
        arr = make_1d("A", 100, 4, 8)
        vm = VirtualMachine(4)
        with pytest.raises(ValueError, match="host image shape"):
            distribute(vm, arr, np.zeros(99))

    def test_shape_mismatch_2d(self):
        grid = ProcessorGrid("P", (2, 2))
        arr = DistributedArray(
            "M", (10, 12), grid,
            (AxisMap(CyclicK(3), grid_axis=0), AxisMap(Block(), grid_axis=1)),
        )
        vm = VirtualMachine(4)
        # Transposed image: same element count, wrong shape -- must not
        # be accepted by a ravel-happy implementation.
        with pytest.raises(ValueError, match=r"host image shape \(12, 10\)"):
            distribute(vm, arr, np.zeros((12, 10)))
        # Rank mismatch.
        with pytest.raises(ValueError, match="host image shape"):
            distribute(vm, arr, np.zeros(120))

    def test_vm_size_mismatch(self):
        arr = make_1d("A", 100, 4, 8)
        vm = VirtualMachine(3)
        with pytest.raises(ValueError, match="ranks"):
            distribute(vm, arr, np.zeros(100))


def make_replicated_1d(n=40):
    """Rank-1 array on a 2x2 grid: CYCLIC(3) over grid axis 0,
    replicated over grid axis 1."""
    grid = ProcessorGrid("P", (2, 2))
    return DistributedArray("R", (n,), grid, (AxisMap(CyclicK(3), grid_axis=0),))


class TestFill:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_fill_matches_numpy(self, shape):
        """The runtime's one fill path writes, on every rank, the local
        image the given Figure 8 shape writes from the same plan."""
        arr = make_1d("A", 320, 4, 8)
        vm = VirtualMachine(4)
        distribute(vm, arr, np.zeros(320))
        n = execute_fill(vm, arr, (RegularSection(4, 319, 9),), 100.0)
        ref = np.zeros(320)
        ref[4:320:9] = 100.0
        assert np.array_equal(collect(vm, arr), ref)
        assert n == len(range(4, 320, 9))
        for rank in range(4):
            local = vm.processors[rank].memory("A")
            want = np.zeros_like(local)
            SHAPES[shape](want, make_plan(4, 8, 4, 319, 9, rank), 100.0)
            assert np.array_equal(local, want)

    def test_fill_negative_stride(self):
        arr = make_1d("A", 100, 4, 8)
        vm = VirtualMachine(4)
        distribute(vm, arr, np.zeros(100))
        execute_fill(vm, arr, (RegularSection(90, 10, -5),), 1.0)
        ref = np.zeros(100)
        ref[10:91:5] = 1.0
        assert np.array_equal(collect(vm, arr), ref)

    @pytest.mark.parametrize("lo, hi, step", [(-8, 7, 1), (0, 68, 17)])
    def test_fill_outside_extent_raises(self, lo, hi, step):
        """Regression: identity-aligned rank-1 fills skipped the extent
        check.  ``-8:7`` wrote elements 56-63 through negative indexing;
        ``0:68:17`` stored on rank 0 before rank 1's address overflowed."""
        arr = make_1d("A", 64, 4, 4)
        vm = VirtualMachine(4)
        distribute(vm, arr, np.zeros(64))
        with pytest.raises(IndexError, match="outside array extent"):
            execute_fill(vm, arr, (RegularSection(lo, hi, step),), 1.0)
        assert not collect(vm, arr).any()

    def test_fill_aligned(self):
        arr = make_1d("A", 100, 4, 8, a=2, b=1, textent=256)
        vm = VirtualMachine(4)
        distribute(vm, arr, np.zeros(100))
        n = execute_fill(vm, arr, (RegularSection(0, 99, 3),), 1.0)
        ref = np.zeros(100)
        ref[0:100:3] = 1.0
        assert np.array_equal(collect(vm, arr), ref)
        assert n == len(range(0, 100, 3))

    def test_fill_replicated_counts_each_element_once(self):
        """Regression: a replicated rank-1 fill counted every replica's
        writes (26 for 13 elements here)."""
        arr = make_replicated_1d()
        vm = VirtualMachine(4)
        distribute(vm, arr, np.zeros(40))
        sec = RegularSection(1, 38, 3)
        assert execute_fill(vm, arr, (sec,), 7.0) == len(sec) == 13
        ref = np.zeros(40)
        ref[1:39:3] = 7.0
        assert np.array_equal(collect(vm, arr), ref)
        for rank in range(4):
            # Every replica holds the value, not only the lowest owner.
            local = vm.processors[rank].memory("R")
            for i in range(1, 39, 3):
                if arr.is_local((i,), rank):
                    assert local[arr.local_address((i,), rank)] == 7.0

    def test_fill_replicated_2d(self):
        grid = ProcessorGrid("P", (2, 2))
        arr = DistributedArray(
            "M", (9, 5), grid,
            (AxisMap(CyclicK(2), grid_axis=0), AxisMap(Collapsed())),
        )
        vm = VirtualMachine(4)
        distribute(vm, arr, np.zeros((9, 5)))
        secs = (RegularSection(0, 8, 2), RegularSection(1, 4, 2))
        assert execute_fill(vm, arr, secs, 3.0) == 5 * 2
        ref = np.zeros((9, 5))
        ref[0:9:2, 1:5:2] = 3.0
        assert np.array_equal(collect(vm, arr), ref)
        for rank in range(4):
            local = vm.processors[rank].memory("M")
            for i in range(0, 9, 2):
                for j in range(1, 5, 2):
                    if arr.is_local((i, j), rank):
                        assert local[arr.local_address((i, j), rank)] == 3.0

    def test_fill_2d(self):
        grid = ProcessorGrid("P", (2, 2))
        arr = DistributedArray(
            "M", (8, 9), grid,
            (AxisMap(CyclicK(2), grid_axis=0), AxisMap(Cyclic(), grid_axis=1)),
        )
        vm = VirtualMachine(4)
        distribute(vm, arr, np.zeros((8, 9)))
        n = execute_fill(
            vm, arr, (RegularSection(1, 7, 2), RegularSection(0, 8, 3)), 5.0
        )
        ref = np.zeros((8, 9))
        ref[1:8:2, 0:9:3] = 5.0
        assert np.array_equal(collect(vm, arr), ref)
        assert n == 4 * 3

    def test_section_count_mismatch(self):
        arr = make_1d("A", 100, 4, 8)
        vm = VirtualMachine(4)
        distribute(vm, arr, np.zeros(100))
        with pytest.raises(ValueError, match="sections"):
            execute_fill(vm, arr, (), 1.0)


class TestCopy:
    def test_different_block_sizes(self):
        a = make_1d("A", 200, 4, 8)
        b = make_1d("B", 200, 4, 5)
        vm = VirtualMachine(4)
        host_b = np.arange(200, dtype=float)
        distribute(vm, a, np.zeros(200))
        distribute(vm, b, host_b)
        sched = execute_copy(
            vm, a, RegularSection(0, 198, 2), b, RegularSection(1, 199, 2)
        )
        ref = np.zeros(200)
        ref[0:199:2] = host_b[1:200:2]
        assert np.array_equal(collect(vm, a), ref)
        assert sched.total_elements == 100

    def test_precomputed_schedule_reuse(self):
        a = make_1d("A", 64, 2, 4)
        b = make_1d("B", 64, 2, 8)
        sec_a = RegularSection(0, 62, 2)
        sec_b = RegularSection(1, 63, 2)
        sched = compute_comm_schedule(a, sec_a, b, sec_b)
        for trial in range(2):
            vm = VirtualMachine(2)
            host_b = np.random.default_rng(trial).random(64)
            distribute(vm, a, np.zeros(64))
            distribute(vm, b, host_b)
            got_sched = execute_copy(vm, a, sec_a, b, sec_b, schedule=sched)
            assert got_sched is sched
            ref = np.zeros(64)
            ref[0:63:2] = host_b[1:64:2]
            assert np.array_equal(collect(vm, a), ref)

    def test_aligned_copy(self):
        a = make_1d("A", 60, 3, 4, a=2, b=1, textent=128)
        b = make_1d("B", 60, 3, 4, a=1, b=0, textent=128)
        vm = VirtualMachine(3)
        host_b = np.arange(60, dtype=float) * 2
        distribute(vm, a, np.zeros(60))
        distribute(vm, b, host_b)
        execute_copy(vm, a, RegularSection(0, 59, 3), b, RegularSection(0, 59, 3))
        ref = np.zeros(60)
        ref[0:60:3] = host_b[0:60:3]
        assert np.array_equal(collect(vm, a), ref)

    def test_self_copy_shift_is_read_before_write(self):
        """Regression (found by differential testing): Fortran semantics
        require the RHS read in full before any store.  A rank with both
        a local copy and a remote send must pack the send AND stage the
        local reads before writing, or A(0:n-2) = A(1:n-1) corrupts."""
        a = make_1d("A", 12, 2, 2)
        vm = VirtualMachine(2)
        host = np.arange(12, dtype=float) * 3 + 1
        distribute(vm, a, host)
        execute_copy(vm, a, RegularSection(0, 10, 1), a, RegularSection(1, 11, 1))
        ref = host.copy()
        ref[0:11] = host[1:12]
        assert np.array_equal(collect(vm, a), ref)

    def test_self_copy_overlapping_strides(self):
        a = make_1d("A", 12, 1, 1)
        vm = VirtualMachine(1)
        host = np.arange(12, dtype=float)
        distribute(vm, a, host)
        execute_copy(vm, a, RegularSection(0, 4, 2), a, RegularSection(0, 2, 1))
        ref = host.copy()
        ref[[0, 2, 4]] = host[[0, 1, 2]]
        assert np.array_equal(collect(vm, a), ref)

    def test_self_transpose_2d(self):
        """In-place distributed transpose of a square array."""
        from repro.runtime.exec import execute_transpose

        grid = ProcessorGrid("G", (2, 2))
        m = DistributedArray(
            "M", (8, 8), grid,
            (AxisMap(CyclicK(2), grid_axis=0), AxisMap(CyclicK(2), grid_axis=1)),
        )
        vm = VirtualMachine(4)
        host = np.arange(64, dtype=float).reshape(8, 8)
        distribute(vm, m, host)
        execute_transpose(vm, m, m)
        assert np.array_equal(collect(vm, m), host.T)

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_copies_match_numpy(self, p, ka, kb, sa, sb, la, lb, count):
        n = max(la + (count - 1) * sa, lb + (count - 1) * sb) + 1
        a = make_1d("A", n, p, ka)
        b = make_1d("B", n, p, kb)
        sec_a = RegularSection(la, la + (count - 1) * sa, sa)
        sec_b = RegularSection(lb, lb + (count - 1) * sb, sb)
        vm = VirtualMachine(p)
        host_b = np.arange(n, dtype=float) + 1
        distribute(vm, a, np.zeros(n))
        distribute(vm, b, host_b)
        execute_copy(vm, a, sec_a, b, sec_b)
        ref = np.zeros(n)
        ref[la : la + count * sa : sa] = host_b[lb : lb + count * sb : sb]
        assert np.array_equal(collect(vm, a), ref)
