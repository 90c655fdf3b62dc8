"""Tests for scaled-sum statements (execute_combine)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distribution.array import AxisMap, DistributedArray
from repro.distribution.dist import CyclicK, ProcessorGrid
from repro.distribution.section import RegularSection
from repro.lang.compiler import compile_program
from repro.lang.parser import parse_program
from repro.lang.reference import interpret
from repro.machine.vm import VirtualMachine
from repro.runtime.commsets import compute_comm_schedule
from repro.runtime.exec import collect, distribute, execute_combine


def make_1d(name, n, p, k):
    grid = ProcessorGrid("P", (p,))
    return DistributedArray(name, (n,), grid, (AxisMap(CyclicK(k), grid_axis=0),))


class TestBasics:
    def test_requires_terms(self):
        a = make_1d("A", 10, 2, 2)
        vm = VirtualMachine(2)
        distribute(vm, a, np.zeros(10))
        with pytest.raises(ValueError, match="at least one term"):
            execute_combine(vm, a, RegularSection(0, 9, 1), [])

    def test_schedule_count_mismatch(self):
        a = make_1d("A", 10, 2, 2)
        b = make_1d("B", 10, 2, 3)
        vm = VirtualMachine(2)
        distribute(vm, a, np.zeros(10))
        distribute(vm, b, np.zeros(10))
        sec = RegularSection(0, 9, 1)
        with pytest.raises(ValueError, match="one schedule per term"):
            execute_combine(vm, a, sec, [(1.0, b, sec)], schedules=[])

    def test_scaled_copy(self):
        a = make_1d("A", 40, 4, 2)
        b = make_1d("B", 40, 4, 3)
        vm = VirtualMachine(4)
        host_b = np.arange(40, dtype=float)
        distribute(vm, a, np.zeros(40))
        distribute(vm, b, host_b)
        sec = RegularSection(0, 39, 2)
        execute_combine(vm, a, sec, [(2.5, b, sec)])
        ref = np.zeros(40)
        ref[0:40:2] = 2.5 * host_b[0:40:2]
        assert np.array_equal(collect(vm, a), ref)

    def test_axpy_two_terms(self):
        a = make_1d("A", 60, 3, 4)
        b = make_1d("B", 60, 3, 5)
        c = make_1d("C", 60, 3, 2)
        vm = VirtualMachine(3)
        host_b = np.arange(60, dtype=float)
        host_c = np.arange(60, dtype=float)[::-1].copy()
        distribute(vm, a, np.full(60, 9.0))  # overwritten, not accumulated
        distribute(vm, b, host_b)
        distribute(vm, c, host_c)
        sec = RegularSection(1, 58, 3)
        execute_combine(vm, a, sec, [(2.0, b, sec), (-1.0, c, sec)])
        ref = np.full(60, 9.0)
        ref[1:59:3] = 2.0 * host_b[1:59:3] - host_c[1:59:3]
        assert np.array_equal(collect(vm, a), ref)

    def test_machine_larger_than_the_grids(self):
        """Ranks beyond an operand's grid (elastic machines) hold no
        shard of it; the others still pair their staged locals with the
        right term."""
        a = make_1d("A", 50, 3, 2)
        b = make_1d("B", 50, 2, 3)
        vm = VirtualMachine(5)
        rng = np.random.default_rng(11)
        host_a, host_b = rng.random(50), rng.random(50)
        distribute(vm, a, host_a)
        distribute(vm, b, host_b)
        execute_combine(
            vm, a, RegularSection(0, 47, 1),
            [(0.3, b, RegularSection(2, 49, 1)),
             (-1.7, a, RegularSection(1, 48, 1)),
             (0.9, b, RegularSection(0, 47, 1))],
        )
        ref = host_a.copy()
        ref[0:48] = 0.3 * host_b[2:50] + -1.7 * host_a[1:49] + 0.9 * host_b[0:48]
        assert collect(vm, a).tobytes() == ref.tobytes()

    def test_precomputed_schedules(self):
        a = make_1d("A", 30, 2, 3)
        b = make_1d("B", 30, 2, 4)
        sec = RegularSection(0, 29, 1)
        sched = compute_comm_schedule(a, sec, b, sec)
        vm = VirtualMachine(2)
        distribute(vm, a, np.zeros(30))
        distribute(vm, b, np.ones(30))
        got = execute_combine(vm, a, sec, [(3.0, b, sec)], schedules=[sched])
        assert got == [sched]
        assert np.array_equal(collect(vm, a), np.full(30, 3.0))

    def test_rank_restarted_between_pack_and_unpack_is_rejected(self):
        # Same layout for A and B: every contribution is local, so the
        # only thing the restarted rank misses is its staged locals.
        a = make_1d("A", 30, 2, 3)
        b = make_1d("B", 30, 2, 3)
        sec = RegularSection(0, 29, 1)
        vm = VirtualMachine(2)
        distribute(vm, a, np.zeros(30))
        distribute(vm, b, np.ones(30))
        # Rank 1 is down for the next two supersteps (an idle one, then
        # the pack) and back for the unpack.
        vm.crash_rank(1, downtime=1)
        vm.run(lambda ctx: None)
        with pytest.raises(RuntimeError, match="rank 1 missed the pack"):
            execute_combine(vm, a, sec, [(3.0, b, sec)])


class TestAliasing:
    def test_self_referential_stencil(self):
        """A(1:n-2) = 0.5*A(0:n-3) + 0.5*A(2:n-1) reads A's old values."""
        n = 64
        a = make_1d("A", n, 4, 4)
        vm = VirtualMachine(4)
        rng = np.random.default_rng(3)
        host = rng.random(n)
        distribute(vm, a, host)
        execute_combine(
            vm, a, RegularSection(1, n - 2, 1),
            [
                (0.5, a, RegularSection(0, n - 3, 1)),
                (0.5, a, RegularSection(2, n - 1, 1)),
            ],
        )
        ref = host.copy()
        ref[1:-1] = 0.5 * host[:-2] + 0.5 * host[2:]
        assert collect(vm, a).tobytes() == ref.tobytes()

    def test_shift_in_place(self):
        """A(0:n-2) = A(1:n-1): every element reads its old right neighbor."""
        n = 48
        a = make_1d("A", n, 3, 4)
        vm = VirtualMachine(3)
        host = np.arange(n, dtype=float)
        distribute(vm, a, host)
        execute_combine(
            vm, a, RegularSection(0, n - 2, 1),
            [(1.0, a, RegularSection(1, n - 1, 1))],
        )
        ref = host.copy()
        ref[:-1] = host[1:]
        assert np.array_equal(collect(vm, a), ref)


class TestEvaluationOrder:
    """Scaled sums evaluate left to right, bit for bit like the
    sequential reference interpreter: ``(c0*x0 + c1*x1) + c2*x2``."""

    @staticmethod
    def run_program(source, inputs):
        program = parse_program(source)
        want = interpret(program, inputs)
        compiled = compile_program(program)
        vm = compiled.make_machine()
        for name, values in inputs.items():
            distribute(vm, compiled.arrays[name], values)
        compiled.run(vm)
        return {name: compiled.image(vm, name) for name in inputs}, want

    @pytest.mark.parametrize("seed", range(20))
    def test_three_terms_associate_left_to_right(self, seed):
        source = """
        PROCESSORS P(4)
        TEMPLATE   T(64)
        REAL       A(64)
        REAL       B(64)
        ALIGN      A(i) WITH T(i)
        ALIGN      B(i) WITH T(i)
        DISTRIBUTE T(CYCLIC(2)) ONTO P
        B(1:62) = 0.3*A(0:61) + 0.7*A(1:62) + 1.1*A(2:63)
        """
        rng = np.random.default_rng(seed)
        got, want = self.run_program(
            source, {"A": rng.random(64), "B": rng.random(64)}
        )
        for name in ("A", "B"):
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_negative_zero_terms_keep_their_sign(self):
        source = """
        PROCESSORS P(3)
        TEMPLATE   T(24)
        REAL       A(24)
        REAL       B(24)
        ALIGN      A(i) WITH T(i)
        ALIGN      B(i) WITH T(i)
        DISTRIBUTE T(CYCLIC(2)) ONTO P
        B(0:22) = 1.0*A(0:22) + 1.0*A(1:23)
        """
        got, want = self.run_program(
            source, {"A": np.full(24, -0.0), "B": np.ones(24)}
        )
        assert np.signbit(want["B"][:23]).all()
        assert got["B"].tobytes() == want["B"].tobytes()


class TestRandomized:
    @given(
        st.integers(min_value=1, max_value=4),   # p
        st.integers(min_value=1, max_value=5),   # ka
        st.integers(min_value=1, max_value=5),   # kb
        st.integers(min_value=1, max_value=5),   # kc
        st.integers(min_value=1, max_value=12),  # count
        st.integers(min_value=1, max_value=4),   # strides...
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_numpy(self, p, ka, kb, kc, count, sa, sb, sc):
        n = (count - 1) * max(sa, sb, sc) + 8
        a = make_1d("A", n, p, ka)
        b = make_1d("B", n, p, kb)
        c = make_1d("C", n, p, kc)
        sec_a = RegularSection(0, (count - 1) * sa, sa)
        sec_b = RegularSection(1, 1 + (count - 1) * sb, sb)
        sec_c = RegularSection(2, 2 + (count - 1) * sc, sc)
        vm = VirtualMachine(p)
        rng = np.random.default_rng(count)
        host_b, host_c = rng.random(n), rng.random(n)
        distribute(vm, a, np.zeros(n))
        distribute(vm, b, host_b)
        distribute(vm, c, host_c)
        execute_combine(vm, a, sec_a, [(1.5, b, sec_b), (-0.5, c, sec_c)])
        ref = np.zeros(n)
        ref[0 : (count - 1) * sa + 1 : sa] = (
            1.5 * host_b[1 : 2 + (count - 1) * sb : sb]
            + -0.5 * host_c[2 : 3 + (count - 1) * sc : sc]
        )
        assert collect(vm, a).tobytes() == ref.tobytes()
