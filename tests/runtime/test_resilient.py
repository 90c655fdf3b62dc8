"""Tests for the resilient exchange protocol.

The acceptance property: for every fault seed in a sweep (drop rates up
to 0.5, duplication, corruption, stalls), ``redistribute_resilient``
either produces results bit-identical to the fault-free ``redistribute``
or raises ``ExchangeFailure`` -- never silently wrong data.  At zero
fault rate the resilient path adds < 2 extra supersteps and reports 0
retries.

``make faults`` re-runs this file under several seeds via the
``FAULT_SEEDS`` environment variable.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.distribution.align import Alignment
from repro.distribution.array import AxisMap, DistributedArray
from repro.distribution.dist import CyclicK, ProcessorGrid
from repro.distribution.section import RegularSection
from repro.machine.checkpoint import CheckpointPolicy, CheckpointStore
from repro.machine.faults import FaultPlan
from repro.machine.vm import VirtualMachine
from repro.runtime.commsets import compute_comm_schedule
from repro.runtime.exec import collect, distribute, execute_copy
from repro.runtime.redistribute import plan_redistribution, redistribute
from repro.runtime.resilient import (
    ExchangeFailure,
    RetryPolicy,
    execute_copy_resilient,
    redistribute_resilient,
)

SEEDS = [int(s) for s in os.environ.get("FAULT_SEEDS", "0,1,2,3").split(",")]

FAULT_CONFIGS = [
    pytest.param(dict(drop=0.2), id="drop-0.2"),
    pytest.param(dict(drop=0.5), id="drop-0.5"),
    pytest.param(dict(duplicate=0.4), id="duplicate"),
    pytest.param(dict(corrupt=0.3), id="corrupt"),
    pytest.param(dict(reorder=0.8, duplicate=0.2), id="reorder-dup"),
    pytest.param(dict(stall=0.4), id="stall"),
    pytest.param(
        dict(drop=0.25, duplicate=0.2, corrupt=0.2, reorder=0.5, stall=0.2),
        id="everything",
    ),
]


def make_1d(name, n, p, k, a=1, b=0, textent=None):
    grid = ProcessorGrid("P", (p,))
    return DistributedArray(
        name, (n,), grid,
        (AxisMap(CyclicK(k), Alignment(a, b), grid_axis=0, template_extent=textent),),
    )


def faultfree_redistribution(n, p, k_src, k_dst, host):
    src, dst = make_1d("S", n, p, k_src), make_1d("D", n, p, k_dst)
    vm = VirtualMachine(p)
    distribute(vm, src, host)
    distribute(vm, dst, np.zeros(n))
    redistribute(vm, dst, src)
    return collect(vm, dst)


class TestZeroFault:
    def test_overhead_and_report(self):
        n, p = 120, 4
        host = np.arange(n, dtype=float) * 1.5
        src, dst = make_1d("S", n, p, 3), make_1d("D", n, p, 7)
        vm = VirtualMachine(p)
        distribute(vm, src, host)
        distribute(vm, dst, np.zeros(n))
        stats, report = redistribute_resilient(vm, dst, src)
        assert np.array_equal(collect(vm, dst), host)
        assert report.retries == 0
        assert report.extra_supersteps < 2
        assert report.converged and report.verified
        assert report.detected_corruptions == 0
        assert report.retransmitted_bytes == 0
        assert stats.elements == n
        # The exchange drains its own channels completely.
        assert vm.network.idle

    def test_stats_match_plain_redistribute(self):
        n, p = 96, 4
        src, dst = make_1d("S", n, p, 1), make_1d("D", n, p, 8)
        vm = VirtualMachine(p)
        host = np.arange(n, dtype=float)
        distribute(vm, src, host)
        distribute(vm, dst, np.zeros(n))
        schedule, expected_stats = plan_redistribution(dst, src)
        stats, report = redistribute_resilient(vm, dst, src, schedule=schedule)
        assert stats == expected_stats
        assert report.schedule is schedule

    def test_all_local_exchange_is_single_superstep(self):
        # Identity redistribution: no remote transfers, so the protocol
        # needs no ACK rounds at all.
        n, p = 64, 4
        src, dst = make_1d("S", n, p, 4), make_1d("D", n, p, 4)
        vm = VirtualMachine(p)
        host = np.arange(n, dtype=float)
        distribute(vm, src, host)
        distribute(vm, dst, np.zeros(n))
        stats, report = redistribute_resilient(vm, dst, src)
        assert np.array_equal(collect(vm, dst), host)
        assert stats.remote_elements == 0
        assert report.transfers == 0
        assert report.supersteps == 1

    def test_copy_with_alignment_and_strides(self):
        a = make_1d("A", 60, 3, 4, a=2, b=1, textent=128)
        b = make_1d("B", 60, 3, 4)
        vm = VirtualMachine(3)
        host_b = np.arange(60, dtype=float) * 2
        distribute(vm, a, np.zeros(60))
        distribute(vm, b, host_b)
        report = execute_copy_resilient(
            vm, a, RegularSection(0, 59, 3), b, RegularSection(0, 59, 3)
        )
        ref = np.zeros(60)
        ref[0:60:3] = host_b[0:60:3]
        assert np.array_equal(collect(vm, a), ref)
        assert report.retries == 0 and report.verified


class TestPropertySweep:
    """The acceptance criterion: bit-identical or a hard error."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("config", FAULT_CONFIGS)
    def test_redistribute_never_silently_wrong(self, seed, config):
        n, p, k_src, k_dst = 120, 4, 3, 7
        host = np.arange(n, dtype=float) + 0.25
        reference = faultfree_redistribution(n, p, k_src, k_dst, host)
        src, dst = make_1d("S", n, p, k_src), make_1d("D", n, p, k_dst)
        vm = VirtualMachine(p, fault_plan=FaultPlan(seed=seed, **config))
        distribute(vm, src, host)
        distribute(vm, dst, np.zeros(n))
        try:
            stats, report = redistribute_resilient(vm, dst, src)
        except ExchangeFailure:
            return  # a hard error is an acceptable outcome; silence is not
        assert report.converged and report.verified
        got = collect(vm, dst)
        assert got.tobytes() == reference.tobytes()  # bit-identical

    @pytest.mark.parametrize("seed", SEEDS)
    def test_self_copy_aliasing_survives_retransmission(self, seed):
        """Retransmits must come from payloads staged at pack time, or
        an aliased shift reads already-overwritten memory."""
        a = make_1d("A", 24, 2, 2)
        plan = FaultPlan(seed=seed, drop=0.4, duplicate=0.3)
        vm = VirtualMachine(2, fault_plan=plan)
        host = np.arange(24, dtype=float) * 3 + 1
        distribute(vm, a, host)
        try:
            execute_copy_resilient(
                vm, a, RegularSection(0, 22, 1), a, RegularSection(1, 23, 1)
            )
        except ExchangeFailure:
            return
        ref = host.copy()
        ref[0:23] = host[1:24]
        assert np.array_equal(collect(vm, a), ref)

    def test_deterministic_given_seed(self):
        def run(seed):
            src, dst = make_1d("S", 96, 4, 2), make_1d("D", 96, 4, 5)
            vm = VirtualMachine(4, fault_plan=FaultPlan(seed=seed, drop=0.3))
            host = np.arange(96, dtype=float)
            distribute(vm, src, host)
            distribute(vm, dst, np.zeros(96))
            stats, report = redistribute_resilient(vm, dst, src)
            return report.retries, report.supersteps, report.duplicates_ignored

        assert run(11) == run(11)


class TestFailureModes:
    def test_total_drop_raises(self):
        src, dst = make_1d("S", 60, 3, 1), make_1d("D", 60, 3, 5)
        vm = VirtualMachine(3, fault_plan=FaultPlan(seed=0, drop=1.0))
        distribute(vm, src, np.arange(60, dtype=float))
        distribute(vm, dst, np.zeros(60))
        policy = RetryPolicy(max_retries=2, max_supersteps=24)
        with pytest.raises(ExchangeFailure, match="retries exhausted|did not converge"):
            redistribute_resilient(vm, dst, src, policy=policy)

    def test_failure_carries_report(self):
        src, dst = make_1d("S", 40, 2, 1), make_1d("D", 40, 2, 4)
        vm = VirtualMachine(2, fault_plan=FaultPlan(seed=3, drop=1.0))
        distribute(vm, src, np.arange(40, dtype=float))
        distribute(vm, dst, np.zeros(40))
        with pytest.raises(ExchangeFailure) as excinfo:
            redistribute_resilient(
                vm, dst, src, policy=RetryPolicy(max_retries=1, max_supersteps=16)
            )
        report = excinfo.value.report
        assert not report.converged
        assert report.retries > 0

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="timeout"):
            RetryPolicy(timeout=0)
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="max_supersteps"):
            RetryPolicy(max_supersteps=1)

    def test_shape_mismatch(self):
        src, dst = make_1d("S", 40, 2, 2), make_1d("D", 44, 2, 2)
        vm = VirtualMachine(2)
        with pytest.raises(ValueError, match="shape mismatch"):
            redistribute_resilient(vm, dst, src)
        schedule, _ = plan_redistribution(src, src)
        with pytest.raises(ValueError, match="shape mismatch"):
            redistribute_resilient(vm, dst, src, schedule=schedule)


class TestProtocolInternals:
    def test_corruption_detected_and_repaired(self):
        # Corrupt only the first data superstep: initial packets arrive
        # damaged, retransmissions go through clean.
        plan = FaultPlan(seed=0, corrupt=1.0, supersteps=(0, 1))
        src, dst = make_1d("S", 60, 3, 1), make_1d("D", 60, 3, 5)
        vm = VirtualMachine(3, fault_plan=plan)
        host = np.arange(60, dtype=float)
        distribute(vm, src, host)
        distribute(vm, dst, np.zeros(60))
        stats, report = redistribute_resilient(vm, dst, src)
        assert np.array_equal(collect(vm, dst), host)
        assert report.detected_corruptions > 0
        assert report.retries > 0

    def test_duplicates_are_idempotent(self):
        plan = FaultPlan(seed=0, duplicate=1.0)
        src, dst = make_1d("S", 60, 3, 1), make_1d("D", 60, 3, 5)
        vm = VirtualMachine(3, fault_plan=plan)
        host = np.arange(60, dtype=float)
        distribute(vm, src, host)
        distribute(vm, dst, np.zeros(60))
        stats, report = redistribute_resilient(vm, dst, src)
        assert np.array_equal(collect(vm, dst), host)
        assert report.duplicates_ignored > 0
        assert report.retries == 0

    def test_precomputed_schedule_not_replanned(self, monkeypatch):
        src, dst = make_1d("S", 60, 3, 2), make_1d("D", 60, 3, 7)
        schedule = compute_comm_schedule(
            dst, RegularSection(0, 59, 1), src, RegularSection(0, 59, 1)
        )
        import repro.runtime.resilient as resilient_mod

        def boom(*args, **kwargs):
            raise AssertionError("schedule should not be recomputed")

        monkeypatch.setattr(resilient_mod, "cached_comm_schedule", boom)
        vm = VirtualMachine(3)
        host = np.arange(60, dtype=float)
        distribute(vm, src, host)
        distribute(vm, dst, np.zeros(60))
        stats, report = redistribute_resilient(vm, dst, src, schedule=schedule)
        assert np.array_equal(collect(vm, dst), host)

    def test_matches_execute_copy_on_clean_network(self):
        a1, b1 = make_1d("A", 200, 4, 8), make_1d("B", 200, 4, 5)
        sec_a, sec_b = RegularSection(0, 198, 2), RegularSection(1, 199, 2)
        host_b = np.arange(200, dtype=float)

        vm1 = VirtualMachine(4)
        distribute(vm1, a1, np.zeros(200))
        distribute(vm1, b1, host_b)
        execute_copy(vm1, a1, sec_a, b1, sec_b)

        vm2 = VirtualMachine(4)
        distribute(vm2, a1, np.zeros(200))
        distribute(vm2, b1, host_b)
        execute_copy_resilient(vm2, a1, sec_a, b1, sec_b)
        assert collect(vm1, a1).tobytes() == collect(vm2, a1).tobytes()


def crash_plan(kill_step, victim, downtime=1):
    return FaultPlan(
        forced_crashes=frozenset({(kill_step, victim)}), crash_downtime=downtime
    )


class TestCrashRecovery:
    """Tentpole acceptance: a crash at any single superstep recovers
    from checkpoint and completes bit-identical to the fault-free run."""

    @pytest.mark.parametrize("victim", [0, 2])
    @pytest.mark.parametrize("kill_step", range(7))
    def test_single_crash_recovers_bit_identical(self, kill_step, victim):
        n, p, k_src, k_dst = 120, 4, 3, 7
        host = np.arange(n, dtype=float) + 0.5
        reference = faultfree_redistribution(n, p, k_src, k_dst, host)
        src, dst = make_1d("S", n, p, k_src), make_1d("D", n, p, k_dst)
        vm = VirtualMachine(p, fault_plan=crash_plan(kill_step, victim))
        distribute(vm, src, host)
        distribute(vm, dst, np.zeros(n))
        store = CheckpointStore(CheckpointPolicy(every=1, retention=4))
        stats, report = redistribute_resilient(vm, dst, src, checkpoints=store)
        assert report.converged and report.verified
        assert collect(vm, dst).tobytes() == reference.tobytes()
        if vm.crash_log:  # late kill steps may land after convergence
            assert report.crashes == [(victim, kill_step)]
            assert report.recoveries
            ev = report.recoveries[0]
            assert ev.rank == victim
            assert ev.checkpoint_superstep <= ev.crash_superstep

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_crashes_never_silently_wrong(self, seed):
        n, p, k_src, k_dst = 120, 4, 3, 7
        host = np.arange(n, dtype=float) * 2
        reference = faultfree_redistribution(n, p, k_src, k_dst, host)
        src, dst = make_1d("S", n, p, k_src), make_1d("D", n, p, k_dst)
        plan = FaultPlan(seed=seed, crash=0.05, drop=0.1)
        vm = VirtualMachine(p, fault_plan=plan)
        distribute(vm, src, host)
        distribute(vm, dst, np.zeros(n))
        store = CheckpointStore(CheckpointPolicy(every=2, retention=4))
        try:
            stats, report = redistribute_resilient(vm, dst, src, checkpoints=store)
        except ExchangeFailure as exc:
            assert exc.report is not None
            return
        assert report.converged and report.verified
        assert collect(vm, dst).tobytes() == reference.tobytes()

    def test_crash_without_checkpoints_is_hard_failure(self):
        n, p = 120, 4
        src, dst = make_1d("S", n, p, 3), make_1d("D", n, p, 7)
        vm = VirtualMachine(p, fault_plan=crash_plan(1, 1))
        distribute(vm, src, np.arange(n, dtype=float))
        distribute(vm, dst, np.zeros(n))
        with pytest.raises(ExchangeFailure, match="checkpointing is disabled") as excinfo:
            redistribute_resilient(vm, dst, src)
        report = excinfo.value.report
        assert report.unrecoverable == (1, 1)  # (rank, superstep)
        assert not report.converged

    def test_recovery_report_accounting(self):
        n, p = 120, 4
        src, dst = make_1d("S", n, p, 3), make_1d("D", n, p, 7)
        # Long downtime: survivors must suspect the dead rank and park
        # its retransmissions until it reboots.
        vm = VirtualMachine(p, fault_plan=crash_plan(1, 2, downtime=6))
        host = np.arange(n, dtype=float)
        distribute(vm, src, host)
        distribute(vm, dst, np.zeros(n))
        store = CheckpointStore(CheckpointPolicy(every=1, retention=4))
        stats, report = redistribute_resilient(vm, dst, src, checkpoints=store)
        assert np.array_equal(collect(vm, dst), host)
        assert report.crashes == [(2, 1)]
        assert len(report.recoveries) == 1
        assert report.checkpoints_taken == store.saved > 0
        assert report.checkpoint_bytes == store.bytes_saved > 0
        assert report.parked_rounds > 0  # survivors held fire for the suspect
        # Trace shows the full lifecycle.
        kinds = [ev.kind for ev in vm.network.fault_events]
        assert "crash" in kinds and "restart" in kinds

    def test_suspect_after_validation(self):
        with pytest.raises(ValueError, match="suspect_after"):
            RetryPolicy(suspect_after=0)

    def test_entry_with_dead_rank_rejected(self):
        src, dst = make_1d("S", 40, 2, 1), make_1d("D", 40, 2, 4)
        vm = VirtualMachine(2)
        distribute(vm, src, np.arange(40, dtype=float))
        distribute(vm, dst, np.zeros(40))
        vm.crash_rank(1, downtime=100)
        with pytest.raises(ValueError, match="dead"):
            redistribute_resilient(vm, dst, src)


def scribble_everywhere(seed, rate=0.25, width=2, **extra):
    return FaultPlan(seed=seed, scribble=rate, scribble_width=width, **extra)


class TestVerifiedMode:
    """The silent-corruption defense (docs/FAULT_MODEL.md §5): with the
    auditor on, in-arena scribbles are detected and repaired and the
    exchange finishes bit-identical; with it off, at least one pinned
    configuration silently corrupts the result -- the detector is
    load-bearing, not decorative."""

    N, P, K_A, K_B = 64, 4, 4, 6
    SEC_A = RegularSection(3, 58, 5)
    SEC_B = RegularSection(1, 56, 5)

    def build(self, plan=None):
        vm = VirtualMachine(self.P, fault_plan=plan)
        a = make_1d("A", self.N, self.P, self.K_A)
        b = make_1d("B", self.N, self.P, self.K_B)
        distribute(vm, a, np.zeros(self.N))
        distribute(vm, b, np.arange(self.N, dtype=float) * 1.5)
        return vm, a, b

    def baseline(self):
        vm, a, b = self.build()
        execute_copy(vm, a, self.SEC_A, b, self.SEC_B)
        return collect(vm, a)

    # A-arena scribbles two supersteps in, on every rank: pinned so the
    # silent-corruption demo below is deterministic.
    def forced_a_plan(self, seed):
        return FaultPlan(
            seed=seed, scribble_width=2,
            forced_scribbles=frozenset({(2, r, "A") for r in range(self.P)}),
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_scribbles_heal_bit_identical(self, seed):
        expected = self.baseline()
        vm, a, b = self.build(plan=scribble_everywhere(seed))
        store = CheckpointStore(CheckpointPolicy(every=2, retention=3))
        report = execute_copy_resilient(
            vm, a, self.SEC_A, b, self.SEC_B,
            checkpoints=store, auditor=True,
        )
        assert np.array_equal(collect(vm, a), expected)
        assert report.verified
        assert report.audits > 0 and report.audit_chunks_checked > 0
        assert report.scribbles_detected > 0  # rate 0.25 always fires here
        assert report.chunks_repaired + report.audit_escalations > 0
        # The auditor's barrier hook and ledgers are cleaned up.
        assert vm.barrier_hooks == []

    def test_audit_off_silently_corrupts(self):
        # Seed 0 places the forced A scribbles outside the copied
        # section, where destination self-verification cannot see them:
        # the exchange "succeeds" with a wrong result.  This is the
        # configuration that proves the auditor is load-bearing.
        expected = self.baseline()
        vm, a, b = self.build(plan=self.forced_a_plan(0))
        report = execute_copy_resilient(vm, a, self.SEC_A, b, self.SEC_B)
        assert report.verified  # protocol saw nothing wrong...
        assert not np.array_equal(collect(vm, a), expected)  # ...yet rot

    def test_audit_on_heals_the_same_configuration(self):
        expected = self.baseline()
        vm, a, b = self.build(plan=self.forced_a_plan(0))
        store = CheckpointStore(CheckpointPolicy(every=2, retention=3))
        report = execute_copy_resilient(
            vm, a, self.SEC_A, b, self.SEC_B,
            checkpoints=store, auditor=True,
        )
        assert np.array_equal(collect(vm, a), expected)
        assert report.scribbles_detected >= 1
        assert report.repaired_from_retransmit + report.repaired_from_checkpoint > 0
        assert report.unrecoverable_chunk is None

    def test_unrecoverable_chunk_without_checkpoints(self, tmp_path):
        # A scribble on B (never a copy destination) cannot be repaired
        # from the retransmit buffer, and with no checkpoint store the
        # ladder has nowhere to go: hard failure naming the chunk, with
        # a flight-recorder dump for the post-mortem.
        plan = FaultPlan(seed=7, forced_scribbles=frozenset({(2, 1, "B")}))
        vm, a, b = self.build(plan=plan)
        from repro.machine.audit import IntegrityAuditor

        with pytest.raises(ExchangeFailure, match="unrecoverable") as excinfo:
            execute_copy_resilient(
                vm, a, self.SEC_A, b, self.SEC_B,
                auditor=IntegrityAuditor(chunk_size=8),
                flight_dir=tmp_path,
            )
        report = excinfo.value.report
        assert report.unrecoverable_chunk is not None
        rank, arena, chunk = report.unrecoverable_chunk
        assert arena == "B" and rank == 1 and chunk >= 0
        assert report.flight_dump is not None
        dump = json.loads(Path(report.flight_dump).read_text())
        assert str(rank) in dump["ranks"]
        assert any(
            rec["kind"] == "audit" for rec in dump["ranks"][str(rank)]
        )

    def test_b_scribble_repairs_from_checkpoint(self):
        expected = self.baseline()
        plan = FaultPlan(seed=7, forced_scribbles=frozenset({(2, 1, "B")}))
        vm, a, b = self.build(plan=plan)
        store = CheckpointStore(CheckpointPolicy(every=2, retention=3))
        report = execute_copy_resilient(
            vm, a, self.SEC_A, b, self.SEC_B,
            checkpoints=store, auditor=True,
        )
        assert np.array_equal(collect(vm, a), expected)
        assert report.repaired_from_checkpoint > 0

    def test_unlocalizable_divergence_escalates_to_full_restore(self):
        # An un-noted reallocation changes the arena's shape, so the
        # audit after the pack superstep reports a WHOLE_ARENA
        # divergence: no chunk repair applies and the ladder rewinds the
        # whole rank to its baseline checkpoint, reopening every
        # transfer into it.
        from repro.machine.audit import IntegrityAuditor

        expected = self.baseline()
        vm, a, b = self.build()
        victim = 2
        auditor = IntegrityAuditor()
        auditor.attach(vm)
        pack_step = vm.superstep

        def reallocate(machine, step):
            # Runs after the auditor's commit hook, like real bit rot.
            if step == pack_step:
                proc = machine.processors[victim]
                proc.allocate("A", proc.memory("A").size + 1)

        vm.barrier_hooks.append(reallocate)
        store = CheckpointStore(CheckpointPolicy(every=1, retention=4))
        report = execute_copy_resilient(
            vm, a, self.SEC_A, b, self.SEC_B,
            checkpoints=store, auditor=auditor,
        )
        vm.barrier_hooks.remove(reallocate)
        assert collect(vm, a).tobytes() == expected.tobytes()
        assert report.verified
        assert report.scribbles_detected == 1
        assert report.audit_escalations == 1
        assert report.chunks_repaired == 0
        assert report.recoveries == []
        inbound = [tr for tr in report.schedule.transfers if tr.dest == victim]
        assert inbound
        assert report.replayed_transfers == len(inbound)
        # Each reopened transfer is resent once; the original copy is
        # applied first, so the resend lands as a duplicate.
        assert report.retries == report.duplicates_ignored == len(inbound)

    def test_verified_mode_clean_network_no_false_alarms(self):
        expected = self.baseline()
        vm, a, b = self.build()
        report = execute_copy_resilient(
            vm, a, self.SEC_A, b, self.SEC_B, auditor=True,
        )
        assert np.array_equal(collect(vm, a), expected)
        assert report.scribbles_detected == 0
        assert report.chunks_repaired == 0
        assert report.audits > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_scribbles_with_crashes_and_wire_faults(self, seed):
        # The full gauntlet: bit rot, a mid-exchange crash, and a lossy
        # wire.  Either bit-identical or a hard failure -- never silent.
        expected = self.baseline()
        plan = scribble_everywhere(
            seed, rate=0.1, drop=0.15, corrupt=0.1, crash=0.05,
            crash_downtime=2,
        )
        vm, a, b = self.build(plan=plan)
        store = CheckpointStore(CheckpointPolicy(every=1, retention=4))
        try:
            report = execute_copy_resilient(
                vm, a, self.SEC_A, b, self.SEC_B,
                checkpoints=store, auditor=True,
                policy=RetryPolicy(max_retries=16, max_supersteps=128),
            )
        except ExchangeFailure:
            return
        assert report.verified
        assert np.array_equal(collect(vm, a), expected)
