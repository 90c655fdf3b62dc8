"""Tests for the SPMD virtual machine.

The backend-agnostic cases build their machines through
:func:`repro.machine.iface.create_machine` and rerun on real worker
processes in the ``*Mp`` classes; cases that read ``vm.network`` stay
in-process only.
"""

import numpy as np
import pytest

from repro.machine.iface import create_machine
from repro.machine.vm import VirtualMachine


class Backend:
    """Builds machines on ``backend`` and closes them after each test."""

    backend = "inprocess"

    @pytest.fixture(autouse=True)
    def _close_machines(self):
        self._made = []
        yield
        for vm in self._made:
            vm.close()

    def machine(self, p, **kw):
        vm = create_machine(p, self.backend, **kw)
        self._made.append(vm)
        return vm


class TestRun(Backend):
    def test_per_rank_execution(self):
        vm = self.machine(4)
        results = vm.run(lambda ctx: ctx.rank * 10)
        assert results == [0, 10, 20, 30]

    def test_extra_args(self):
        vm = self.machine(2)
        assert vm.run(lambda ctx, x, y: ctx.rank + x + y, 5, 10) == [15, 16]

    def test_run_spmd_per_rank_args(self):
        vm = self.machine(3)
        got = vm.run_spmd(lambda ctx, v: v * 2, [(1,), (2,), (3,)])
        assert got == [2, 4, 6]

    def test_run_spmd_arg_count_mismatch(self):
        vm = self.machine(3)
        with pytest.raises(ValueError, match="need 3 argument tuples, got 1"):
            vm.run_spmd(lambda ctx: None, [()])
        with pytest.raises(ValueError, match="need 3 argument tuples, got 4"):
            vm.run_spmd(lambda ctx, v: v, [(1,), (2,), (3,), (4,)])
        # No per-rank args at all is fine.
        assert vm.run_spmd(lambda ctx: ctx.rank) == [0, 1, 2]

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one rank"):
            self.machine(0)
        with pytest.raises(ValueError, match="at least one phase"):
            self.machine(2).bsp()


class TestMessaging(Backend):
    def test_ring_shift(self):
        vm = self.machine(4)

        def send_phase(ctx):
            ctx.send((ctx.rank + 1) % ctx.p, "ring", ctx.rank)

        def recv_phase(ctx):
            return ctx.recv((ctx.rank - 1) % ctx.p, "ring")

        _, got = vm.bsp(send_phase, recv_phase)
        assert got == [3, 0, 1, 2]

    def test_probe_and_drain_in_context(self):
        vm = self.machine(2)

        def send_phase(ctx):
            if ctx.rank == 0:
                ctx.send(1, "t", "data")

        def recv_phase(ctx):
            if ctx.rank == 1:
                assert ctx.probe(0, "t")
                return ctx.drain("t")
            return None

        _, got = vm.bsp(send_phase, recv_phase)
        assert got[1] == [(0, "data")]


class TestMemory(Backend):
    def test_allocate_and_access(self):
        vm = self.machine(2)
        vm.allocate_all("A", [10, 20])
        assert len(vm.processors[0].memory("A")) == 10
        assert len(vm.processors[1].memory("A")) == 20
        assert all(isinstance(m, np.ndarray) for m in vm.memories("A"))

    def test_allocate_all_validation(self):
        vm = self.machine(2)
        with pytest.raises(ValueError, match="sizes"):
            vm.allocate_all("A", [10])

    def test_context_memory(self):
        vm = self.machine(2)

        def node(ctx):
            arena = ctx.allocate("buf", 4)
            arena[ctx.rank] = 1.0
            return float(ctx.memory("buf").sum())

        assert vm.run(node) == [1.0, 1.0]

    def test_reset_stats(self):
        vm = VirtualMachine(2)
        vm.run(lambda ctx: ctx.send(0, "t", 1))
        assert vm.network.stats.messages == 2
        vm.reset_stats()
        assert vm.network.stats.messages == 0


class TestCrashLifecycle(Backend):
    def test_forced_crash_fires_at_barrier(self):
        from repro.machine.faults import FaultPlan

        plan = FaultPlan(forced_crashes=frozenset({(1, 2)}), crash_downtime=1)
        vm = VirtualMachine(4, fault_plan=plan)
        vm.run(lambda ctx: ctx.rank)  # superstep 0: everyone fine
        assert vm.dead_ranks == ()
        vm.run(lambda ctx: ctx.rank)  # barrier at step 1 kills rank 2
        assert vm.dead_ranks == (2,)
        assert vm.crash_log == [(2, 1)]

    def test_dead_rank_skips_execution_and_yields_none(self):
        vm = self.machine(3)
        vm.crash_rank(1, downtime=100)
        got = vm.run(lambda ctx: ctx.rank * 10)
        assert got == [0, None, 20]
        got = vm.run_spmd(lambda ctx, v: v, [(7,), (8,), (9,)])
        assert got == [7, None, 9]

    def test_crash_rank_on_dead_rank_raises(self):
        vm = self.machine(2)
        vm.crash_rank(1, downtime=100)
        with pytest.raises(RuntimeError, match="rank 1 is already dead"):
            vm.crash_rank(1)
        # A backend that detects one death twice goes through the
        # internal crash path, which stays idempotent.
        vm._crash(1, vm.superstep, 1)
        assert vm.crash_log == [(1, 0)]

    def test_crash_quarantines_in_flight_sends(self):
        vm = VirtualMachine(2)

        # Send from both ranks, then crash rank 1 before the barrier.
        vm.network.send(0, 1, "t", "to-dead")
        vm.network.send(1, 0, "t", "from-dead")
        vm.crash_rank(1, downtime=1)
        assert vm.network.stats.quarantined == 2
        vm.run(lambda ctx: None)
        assert not vm.network.probe(0, 1, "t")

    def test_restart_wipes_memory_and_bumps_incarnation(self):
        vm = self.machine(2)
        vm.allocate_all("A", [4, 4])
        vm.processors[1].memory("A")[:] = 5.0
        vm.crash_rank(1, downtime=1)
        assert vm.processors[1].incarnation == 0
        while not vm.processors[1].alive:
            vm.run(lambda ctx: None)
        assert vm.processors[1].incarnation == 1
        assert vm.processors[1].memory_names == ()
        # Rank 0 untouched.
        assert vm.processors[0].memory("A").shape == (4,)

    def test_crash_and_restart_events_are_traced(self):
        vm = VirtualMachine(2)
        vm.crash_rank(0, downtime=1)
        while not vm.processors[0].alive:
            vm.run(lambda ctx: None)
        kinds = [ev.kind for ev in vm.network.fault_events]
        assert kinds.count("crash") == 1
        assert kinds.count("restart") == 1
        restart = next(ev for ev in vm.network.fault_events if ev.kind == "restart")
        assert restart.seq == 1  # incarnation number rides in seq

    def test_machine_report_carries_crash_facts(self):
        from repro.machine.trace import machine_report

        vm = VirtualMachine(3)
        vm.crash_rank(2, downtime=100)
        report = machine_report(vm)
        assert report["crashes"] == [(2, 0)]
        assert report["dead_ranks"] == [2]
        assert report["incarnations"] == [0, 0, 0]


class TestRunMp(TestRun):
    backend = "mp"


class TestMessagingMp(TestMessaging):
    backend = "mp"


class TestMemoryMp(Backend):
    backend = "mp"
    test_allocate_and_access = TestMemory.test_allocate_and_access
    test_allocate_all_validation = TestMemory.test_allocate_all_validation
    test_context_memory = TestMemory.test_context_memory


class TestCrashLifecycleMp(Backend):
    backend = "mp"
    test_dead_rank_skips_execution_and_yields_none = (
        TestCrashLifecycle.test_dead_rank_skips_execution_and_yields_none
    )
    test_restart_wipes_memory_and_bumps_incarnation = (
        TestCrashLifecycle.test_restart_wipes_memory_and_bumps_incarnation
    )
    test_crash_rank_on_dead_rank_raises = (
        TestCrashLifecycle.test_crash_rank_on_dead_rank_raises
    )
