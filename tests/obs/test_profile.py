"""Measured superstep profiles: schedule-exact byte accounting on the
oracle, bit-exact deterministic agreement between backends, and
counter-delta parity with the resilient protocol's report."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distribution.array import AxisMap, DistributedArray
from repro.distribution.dist import CyclicK, ProcessorGrid
from repro.distribution.section import RegularSection
from repro.machine.faults import FaultPlan
from repro.machine.vm import VirtualMachine
from repro.obs import Observability
from repro.obs.profile import ProfileCollector, RunProfile, SuperstepProfile
from repro.runtime.commsets import compute_comm_schedule
from repro.runtime.exec import collect, distribute, execute_copy


def _vector(name: str, n: int, p: int, k: int) -> DistributedArray:
    grid = ProcessorGrid("P", (p,))
    return DistributedArray(name, (n,), grid, (AxisMap(CyclicK(k), grid_axis=0),))


def _run_copy(machine, n=240, k_src=3, k_dst=7):
    a = _vector("A", n, machine.p, k_dst)
    b = _vector("B", n, machine.p, k_src)
    distribute(machine, a, np.zeros(n))
    distribute(machine, b, np.arange(n, dtype=float))
    sec = RegularSection(0, n - 1, 1)
    execute_copy(machine, a, sec, b, sec)
    collect(machine, a)
    return a, b, sec


class TestScheduleExactness:
    def test_oracle_bytes_equal_schedule_transfer_sums(self):
        """The RunProfile's byte counts equal the CommSchedule's
        transfer sums bit-exactly: execute_copy packs one float64 array
        of len(tr) elements per remote transfer, and distribute/collect
        bypass the network entirely."""
        n, p, k_src, k_dst = 240, 4, 3, 7
        obs = Observability(enabled=True)
        vm = VirtualMachine(p, obs=obs)
        collector = ProfileCollector()
        with collector.attach(vm):
            a, b, sec = _run_copy(vm, n, k_src, k_dst)
        profile = collector.build()

        schedule = compute_comm_schedule(a, sec, b, sec)
        expected_bytes = sum(8 * len(tr) for tr in schedule.transfers)
        assert expected_bytes > 0
        assert profile.total_sent_bytes == expected_bytes
        assert profile.total_delivered_bytes == expected_bytes
        assert profile.total_sent_messages == len(schedule.transfers)

        # Per-channel: one message per remote transfer, 8 bytes/element.
        per_channel = {}
        for tr in schedule.transfers:
            key = (tr.source, tr.dest)
            msgs, nbytes = per_channel.get(key, (0, 0))
            per_channel[key] = (msgs + 1, nbytes + 8 * len(tr))
        measured = {}
        for sp in profile.supersteps:
            for key, ch in sp.channels.items():
                msgs, nbytes = measured.get(key, (0, 0))
                measured[key] = (msgs + ch.messages, nbytes + ch.bytes)
        assert measured == per_channel

        # Counter deltas mirror the traffic.
        assert profile.counters["net.bytes_sent"] == expected_bytes
        assert profile.counters["net.bytes_delivered"] == expected_bytes

    def test_sends_and_deliveries_land_on_adjacent_supersteps(self):
        obs = Observability(enabled=True)
        vm = VirtualMachine(4, obs=obs)
        collector = ProfileCollector()
        with collector.attach(vm):
            _run_copy(vm)
        profile = collector.build()
        send_steps = [sp.step for sp in profile.supersteps if sp.sent_bytes]
        recv_steps = [sp.step for sp in profile.supersteps if sp.delivered_bytes]
        assert send_steps and recv_steps
        # Messages sent in superstep t are delivered at the t -> t+1
        # barrier; the collector attributes the delivery to step t.
        assert send_steps == recv_steps

    def test_measured_wall_times_present(self):
        obs = Observability(enabled=True)
        vm = VirtualMachine(4, obs=obs)
        collector = ProfileCollector()
        with collector.attach(vm):
            _run_copy(vm)
        profile = collector.build()
        assert profile.measured_steps, "superstep spans should give wall_us"
        for sp in profile.measured_steps:
            assert sp.wall_us > 0.0


class TestResilientParity:
    def test_counter_deltas_equal_resilience_report(self):
        from repro.runtime.resilient import redistribute_resilient

        n, p = 240, 4
        plan = FaultPlan(seed=2, drop=0.3)
        obs = Observability(enabled=True)
        vm = VirtualMachine(p, fault_plan=plan, obs=obs)
        collector = ProfileCollector()
        with collector.attach(vm):
            src = _vector("S", n, p, 3)
            dst = _vector("D", n, p, 7)
            distribute(vm, src, np.arange(n, dtype=float))
            distribute(vm, dst, np.zeros(n))
            stats, report = redistribute_resilient(vm, dst, src)
        profile = collector.build()

        assert report.retries > 0, "drop=0.3 must force retransmits"
        counters = profile.counters
        assert counters.get("resilient.retries", 0) == report.retries
        assert (
            counters.get("resilient.detected_corruptions", 0)
            == report.detected_corruptions
        )
        assert (
            counters.get("resilient.duplicates_ignored", 0)
            == report.duplicates_ignored
        )
        assert counters.get("resilient.nacks_sent", 0) == report.nacks_sent
        # The per-step retransmit instants sum to the report too.
        assert sum(sp.retransmits for sp in profile.supersteps) == report.retries

    def test_every_counted_report_field_in_verified_mode(self):
        from repro.machine.checkpoint import CheckpointPolicy, CheckpointStore
        from repro.runtime.resilient import redistribute_resilient

        n, p = 240, 4
        plan = FaultPlan(
            seed=1, drop=0.2, corrupt=0.1, scribble=0.2,
            forced_crashes=frozenset({(2, 1)}), crash_downtime=1,
        )
        obs = Observability(enabled=True)
        vm = VirtualMachine(p, fault_plan=plan, obs=obs)
        collector = ProfileCollector()
        with collector.attach(vm):
            src = _vector("S", n, p, 3)
            dst = _vector("D", n, p, 7)
            distribute(vm, src, np.arange(n, dtype=float))
            distribute(vm, dst, np.zeros(n))
            store = CheckpointStore(CheckpointPolicy(every=1, retention=4))
            stats, report = redistribute_resilient(
                vm, dst, src, checkpoints=store, auditor=True
            )
        counters = collector.build().counters
        assert np.array_equal(collect(vm, dst), np.arange(n, dtype=float))

        for field, counter in RESILIENT_COUNTERS.items():
            value = getattr(report, field)
            assert value > 0, f"scenario must exercise {field}"
            assert counters.get(counter, 0) == value, field
        assert len(report.recoveries) == 1
        assert (
            counters["resilient.restores"]
            == len(report.recoveries) + report.audit_escalations
        )
        # resilient.audits counts audit rounds; report.audits counts
        # every auditor pass, post-repair re-audits included.
        assert counters["resilient.audits"] == len(obs.trace.spans("audit"))
        assert report.audits >= counters["resilient.audits"] > 0


# ResilienceReport field -> the resilient.* counter bumped with it.
RESILIENT_COUNTERS = {
    "retries": "resilient.retries",
    "detected_corruptions": "resilient.detected_corruptions",
    "duplicates_ignored": "resilient.duplicates_ignored",
    "nacks_sent": "resilient.nacks_sent",
    "scribbles_detected": "resilient.scribbles_detected",
    "chunks_repaired": "resilient.chunks_repaired",
    "checkpoints_taken": "resilient.checkpoints",
    "checkpoint_bytes": "resilient.checkpoint_bytes",
}


class TestBackendAgreement:
    def test_mp_profile_matches_oracle_on_deterministic_fields(self):
        from repro.machine.iface import create_machine

        views = {}
        for backend in ("inprocess", "mp"):
            obs = Observability(enabled=True)
            machine = create_machine(2, backend, obs=obs)
            collector = ProfileCollector()
            try:
                with collector.attach(machine):
                    _run_copy(machine, n=64, k_src=3, k_dst=5)
                profile = collector.build()
            finally:
                machine.close()
            assert profile.backend == backend
            views[backend] = profile.deterministic_view()
        assert views["inprocess"] == views["mp"]


class TestCollectorApi:
    def test_attach_twice_raises(self):
        vm = VirtualMachine(2)
        collector = ProfileCollector()
        collector.attach(vm)
        with pytest.raises(RuntimeError):
            collector.attach(vm)
        with pytest.raises(RuntimeError):
            ProfileCollector().attach(vm)  # seam already occupied
        collector.detach()
        assert vm.network.profile is None

    def test_build_before_attach_raises(self):
        with pytest.raises(RuntimeError):
            ProfileCollector().build()

    def test_enter_before_attach_raises(self):
        with pytest.raises(RuntimeError):
            with ProfileCollector():
                pass

    def test_detached_machine_records_nothing_more(self):
        obs = Observability(enabled=True)
        vm = VirtualMachine(4, obs=obs)
        collector = ProfileCollector()
        with collector.attach(vm):
            _run_copy(vm)
        before = collector.build().total_sent_bytes
        _run_copy(vm)  # collector detached: no longer recording
        assert collector.build().total_sent_bytes == before


class TestJsonRoundTrip:
    def test_profile_roundtrip(self, tmp_path):
        obs = Observability(enabled=True)
        vm = VirtualMachine(4, obs=obs)
        collector = ProfileCollector()
        with collector.attach(vm):
            _run_copy(vm)
        profile = collector.build(program="copy", seed=0)
        path = str(tmp_path / "profile.json")
        profile.dump(path)
        loaded = RunProfile.load(path)
        assert loaded.to_json() == profile.to_json()
        assert loaded.deterministic_view() == profile.deterministic_view()
        assert loaded.meta["program"] == "copy"

    def test_superstep_profile_roundtrip(self):
        from repro.obs.profile import ChannelTraffic, RankTraffic

        sp = SuperstepProfile(step=3, wall_us=12.5, phase="exchange")
        sp.ranks[0] = RankTraffic(sent_messages=2, sent_bytes=96)
        sp.channels[(0, 1)] = ChannelTraffic(messages=2, bytes=96, max_bytes=64)
        loaded = SuperstepProfile.from_json(sp.to_json())
        assert loaded.step == 3
        assert loaded.wall_us == 12.5
        assert loaded.phase == "exchange"
        assert loaded.ranks[0].sent_bytes == 96
        assert loaded.channels[(0, 1)].max_bytes == 64
