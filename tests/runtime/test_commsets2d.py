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
        n0, n1 = len(secs_a[0]), len(secs_a[1])
        assert sched.n_iterations == sched.total_elements == n0 * n1
        # Every destination slot appears exactly once across transfers.
        seen = set()
        for tr in sched.locals_ + sched.transfers:
            for slot in tr.dst_slots:
                key = (tr.dest, slot)
                assert key not in seen
                seen.add(key)
        assert len(seen) == n0 * n1
        # An empty axis empties the statement: 12 x 0 iterations.
        secs = (RegularSection(0, 11, 1), RegularSection(0, -1, 1))
        empty = compute_comm_schedule_2d(a, secs, b, secs)
        assert empty.n_iterations == empty.total_elements == 0
        assert not empty.locals_ and not empty.transfers

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


def scalar_schedule_2d(a, secs_a, b, secs_b, rhs_dims):
    """``{(source, dest): (src_slots, dst_slots)}`` of a 2-D statement,
    one element at a time from the per-dimension ``owner`` /
    ``local_slot`` calls, odometer order (iteration axis 0 slowest)."""

    def place(array, index):
        coords, slots = [0, 0], []
        for d, dim in enumerate(array._dims):
            coord = dim.owner(index[d])
            coords[dim.axis_map.grid_axis] = coord
            slots.append(dim.local_slot(index[d], coord))
        rank = array.grid.linearize(tuple(coords))
        return rank, slots[0] * array.local_shape(rank)[1] + slots[1]

    out: dict = {}
    for t0 in range(len(secs_a[0])):
        for t1 in range(len(secs_a[1])):
            ts = (t0, t1)
            index_a = (secs_a[0].element(t0), secs_a[1].element(t1))
            index_b = [0, 0]
            for e in (0, 1):
                index_b[rhs_dims[e]] = secs_b[rhs_dims[e]].element(ts[e])
            dst, dst_slot = place(a, index_a)
            src, src_slot = place(b, index_b)
            slots = out.setdefault((src, dst), ([], []))
            slots[0].append(src_slot)
            slots[1].append(dst_slot)
    return out


@st.composite
def schedule_2d_params(draw):
    """A conformable 2-D statement: each array on its own grid (sizes may
    differ), either grid-axis order, per-dimension block sizes and
    affine alignments (incl. ``a < 0``), sections that may be strided,
    negative-stride or empty, and elementwise or transpose pairing."""
    rhs_dims = draw(st.sampled_from([(0, 1), (1, 0)]))
    lengths = [draw(st.integers(min_value=0, max_value=6)) for _ in (0, 1)]

    def array(name, lengths_by_dim):
        grid = ProcessorGrid("G" + name, tuple(
            draw(st.integers(min_value=1, max_value=3)) for _ in (0, 1)
        ))
        axes = draw(st.sampled_from([(0, 1), (1, 0)]))
        shape, maps, secs = [], [], []
        for d, length in enumerate(lengths_by_dim):
            n = draw(st.integers(min_value=max(length, 1), max_value=14))
            a = draw(st.sampled_from([1, 1, 2, -1]))
            b = draw(st.integers(min_value=0, max_value=3)) + (-a * (n - 1) if a < 0 else 0)
            k = draw(st.integers(min_value=1, max_value=4))
            if length == 0:
                sec = RegularSection(0, -1, 1)
            else:
                s = draw(st.integers(min_value=1, max_value=max(1, (n - 1) // max(length - 1, 1))))
                lo = draw(st.integers(min_value=0, max_value=n - 1 - (length - 1) * s))
                hi = lo + (length - 1) * s
                sec = draw(st.sampled_from(
                    [RegularSection(lo, hi, s), RegularSection(hi, lo, -s)]
                ))
            shape.append(n)
            maps.append(AxisMap(CyclicK(k), Alignment(a, b), grid_axis=axes[d]))
            secs.append(sec)
        return DistributedArray(name, tuple(shape), grid, tuple(maps)), tuple(secs)

    a, secs_a = array("A", lengths)
    # RHS dimension rhs_dims[e] carries iteration axis e.
    b, secs_b = array("B", [lengths[rhs_dims.index(d)] for d in (0, 1)])
    return a, secs_a, b, secs_b, rhs_dims


class TestAgainstScalarEnumeration:
    @given(schedule_2d_params())
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_enumeration(self, params):
        a, secs_a, b, secs_b, rhs_dims = params
        sched = compute_comm_schedule_2d(a, secs_a, b, secs_b, rhs_dims)
        got = {
            (tr.source, tr.dest): (
                [int(x) for x in tr.src_slots], [int(x) for x in tr.dst_slots]
            )
            for tr in sched.locals_ + sched.transfers
        }
        assert len(got) == len(sched.locals_) + len(sched.transfers)
        assert got == scalar_schedule_2d(a, secs_a, b, secs_b, rhs_dims)
        assert all(tr.source == tr.dest for tr in sched.locals_)
        assert all(tr.source != tr.dest for tr in sched.transfers)
        assert sched.n_iterations == len(secs_a[0]) * len(secs_a[1])
        for tr in sched.locals_ + sched.transfers:
            for v in (tr.src_slots, tr.dst_slots):
                assert not v.flags.writeable


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
