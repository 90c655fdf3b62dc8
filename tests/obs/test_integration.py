"""Machine-level observability integration tests.

The acceptance property of the observability PR: the trace is *truthful*.
A fault-injected resilient run must produce a Chrome trace whose
retransmit/repair instant counts equal the ``ResilienceReport`` fields,
and an instrumented machine's metrics must agree with the always-on
``NetworkStats``.
"""

import numpy as np
import pytest

from repro.distribution.array import AxisMap, DistributedArray
from repro.distribution.dist import CyclicK, ProcessorGrid
from repro.machine.checkpoint import CheckpointPolicy, CheckpointStore
from repro.machine.faults import FaultPlan
from repro.machine.trace import machine_report
from repro.machine.vm import VirtualMachine
from repro.obs import Observability, set_ambient
from repro.obs.export import chrome_trace
from repro.runtime.exec import collect, distribute, execute_copy
from repro.runtime.plancache import clear_plan_caches
from repro.runtime.redistribute import redistribute
from repro.runtime.resilient import redistribute_resilient
from repro.distribution.section import RegularSection

from .test_profile import RESILIENT_COUNTERS


def make_1d(name, n, p, k):
    grid = ProcessorGrid("P", (p,))
    return DistributedArray(name, (n,), grid, (AxisMap(CyclicK(k), grid_axis=0),))


@pytest.fixture
def fresh_caches():
    clear_plan_caches()
    yield
    clear_plan_caches()


class TestInstrumentedMachine:
    def test_superstep_and_node_spans(self):
        obs = Observability()
        vm = VirtualMachine(3, obs=obs)
        vm.run(lambda ctx: ctx.send((ctx.rank + 1) % ctx.p, "t", 1.0))
        vm.run(lambda ctx: list(ctx.drain("t")))
        assert len(obs.trace.spans("superstep")) == 2
        assert len(obs.trace.spans("barrier")) == 2
        nodes = obs.trace.spans("node")
        assert len(nodes) == 6  # 3 ranks x 2 supersteps
        assert sorted({r.rank for r in nodes}) == [0, 1, 2]
        assert obs.metrics.value("vm.supersteps") == 2

    def test_network_metrics_agree_with_stats(self):
        obs = Observability()
        vm = VirtualMachine(4, obs=obs)
        vm.run(lambda ctx: ctx.send((ctx.rank + 1) % ctx.p, "t", float(ctx.rank)))
        vm.run(lambda ctx: list(ctx.drain("t")))
        m = obs.metrics
        assert m.value("net.messages_sent") == vm.network.stats.sent == 4
        assert m.value("net.messages_delivered") == vm.network.stats.delivered == 4
        assert m.value("net.bytes_sent") == vm.network.stats.bytes

    def test_fault_counters_by_kind(self):
        obs = Observability()
        vm = VirtualMachine(2, fault_plan=FaultPlan(drop=1.0), obs=obs)
        vm.run(lambda ctx: ctx.send(1 - ctx.rank, "t", 1.0))
        vm.run(lambda ctx: None)
        assert obs.metrics.value("faults.drop") == 2
        assert obs.metrics.value("net.messages_dropped") == 2
        # The event rings hold one copy of each event (enabled handle).
        assert obs.events.count("drop") == 2

    def test_disabled_machine_records_nothing(self):
        vm = VirtualMachine(2)  # no handle: disabled Observability
        vm.run(lambda ctx: ctx.send(1 - ctx.rank, "t", 1.0))
        assert len(vm.obs.trace) == 0
        assert vm.obs.events.count() == 0
        assert vm.obs.metrics.snapshot()["counters"] == {}
        # The machine truth is still collected.
        assert vm.network.stats.sent == 2


class TestTraceMatchesReport:
    """Acceptance criterion: Chrome-trace counts == ResilienceReport."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_retransmit_instants_equal_report_retries(self, seed):
        n, p = 120, 4
        obs = Observability()
        plan = FaultPlan(seed=seed, drop=0.3, duplicate=0.2)
        vm = VirtualMachine(p, fault_plan=plan, obs=obs)
        src, dst = make_1d("S", n, p, 3), make_1d("D", n, p, 7)
        host = np.arange(n, dtype=float)
        distribute(vm, src, host)
        distribute(vm, dst, np.zeros(n))
        stats, report = redistribute_resilient(vm, dst, src)
        assert np.array_equal(collect(vm, dst), host)

        assert len(obs.trace.instants("retransmit")) == report.retries
        doc = chrome_trace(obs)
        chrome_retransmits = [
            e for e in doc["traceEvents"]
            if e["ph"] == "i" and e["name"] == "retransmit"
        ]
        assert len(chrome_retransmits) == report.retries > 0
        assert obs.metrics.value("resilient.retries") == report.retries
        rounds = obs.trace.spans("protocol_round")
        assert len(rounds) == report.supersteps - 1 - len(
            obs.trace.spans("cleanup_round")
        )

    def test_repair_instants_equal_chunks_repaired(self):
        n, p = 96, 3
        obs = Observability()
        plan = FaultPlan(seed=7, forced_scribbles=frozenset({(2, 1, "D")}))
        vm = VirtualMachine(p, fault_plan=plan, obs=obs)
        src, dst = make_1d("S", n, p, 2), make_1d("D", n, p, 5)
        host = np.arange(n, dtype=float)
        distribute(vm, src, host)
        distribute(vm, dst, np.zeros(n))
        store = CheckpointStore(CheckpointPolicy(every=1, retention=4))
        stats, report = redistribute_resilient(
            vm, dst, src, checkpoints=store, auditor=True
        )
        assert np.array_equal(collect(vm, dst), host)
        assert report.chunks_repaired > 0
        doc = chrome_trace(obs)
        chrome_repairs = [
            e for e in doc["traceEvents"]
            if e["ph"] == "i" and e["name"] == "repair"
        ]
        assert len(chrome_repairs) == report.chunks_repaired
        assert (
            obs.metrics.value("resilient.chunks_repaired")
            == report.chunks_repaired
        )

    def test_metrics_equal_every_counted_report_field(self):
        # Verified mode with wire faults, scribbles and a forced crash, so
        # every report field that has a resilient.* counter moves.
        n, p = 240, 4
        obs = Observability()
        plan = FaultPlan(
            seed=1, drop=0.2, corrupt=0.1, scribble=0.2,
            forced_crashes=frozenset({(2, 1)}), crash_downtime=1,
        )
        vm = VirtualMachine(p, fault_plan=plan, obs=obs)
        src, dst = make_1d("S", n, p, 3), make_1d("D", n, p, 7)
        host = np.arange(n, dtype=float)
        distribute(vm, src, host)
        distribute(vm, dst, np.zeros(n))
        store = CheckpointStore(CheckpointPolicy(every=1, retention=4))
        stats, report = redistribute_resilient(
            vm, dst, src, checkpoints=store, auditor=True
        )
        assert np.array_equal(collect(vm, dst), host)
        for field, counter in RESILIENT_COUNTERS.items():
            assert getattr(report, field) > 0, field
            assert obs.metrics.value(counter) == getattr(report, field), field
        assert (
            obs.metrics.value("resilient.restores")
            == len(report.recoveries) + report.audit_escalations
            == 1
        )
        assert len(obs.trace.instants("restore")) == 1


class TestMachineReport:
    def test_plan_cache_hits_and_misses_surface(self, fresh_caches):
        n, p = 40, 2
        obs = Observability()
        prev = set_ambient(obs)
        try:
            vm = VirtualMachine(p, obs=obs)
            a, b = make_1d("A", n, p, 2), make_1d("B", n, p, 5)
            distribute(vm, b, np.arange(n, dtype=float))
            distribute(vm, a, np.zeros(n))
            sec = RegularSection(0, n - 1, 1)
            execute_copy(vm, a, sec, b, sec)  # miss
            execute_copy(vm, a, sec, b, sec)  # hit
        finally:
            set_ambient(prev)
        report = machine_report(vm)
        sched = report["plan_caches"]["comm_schedules"]
        assert sched["misses"] == 1 and sched["hits"] == 1
        assert report["metrics"]["counters"]["plancache.comm_schedules.hits"] == 1
        assert (
            report["metrics"]["counters"]["plancache.comm_schedules.misses"] == 1
        )
        assert report["observability"]["enabled"]
        assert report["observability"]["spans"] == len(obs.trace) > 0

    def test_eviction_counter(self, fresh_caches):
        from repro.runtime.plancache import PlanCache

        obs = Observability()
        prev = set_ambient(obs)
        try:
            cache = PlanCache("tiny", maxsize=1)
            cache.get_or_compute("a", lambda: 1)
            cache.get_or_compute("b", lambda: 2)  # evicts a
        finally:
            set_ambient(prev)
        assert cache.evictions == 1
        assert cache.stats()["evictions"] == 1
        assert obs.metrics.value("plancache.tiny.evictions") == 1

    def test_miss_emits_one_plan_compute_span(self, fresh_caches):
        from repro.runtime.plancache import PlanCache

        obs = Observability()
        prev = set_ambient(obs)
        try:
            cache = PlanCache("tiny", maxsize=4)
            cache.get_or_compute("a", lambda: 1)  # miss: computes
            cache.get_or_compute("a", lambda: 1)  # hit: no span
        finally:
            set_ambient(prev)
        (span,) = obs.trace.spans("plan_compute")
        assert span.attrs_dict() == {"cache": "tiny"}
        assert not span.is_instant
        assert obs.metrics.value("plancache.tiny.misses") == 1
        assert obs.metrics.value("plancache.tiny.hits") == 1

    def test_report_keeps_legacy_keys(self):
        vm = VirtualMachine(2)
        vm.run(lambda ctx: None)
        report = machine_report(vm)
        for key in ("ranks", "messages", "bytes", "channels", "memory",
                    "network", "supersteps", "plan_caches"):
            assert key in report


class TestRedistributeSpans:
    def test_plain_runtime_paths_traced(self, fresh_caches):
        n, p = 60, 3
        obs = Observability()
        vm = VirtualMachine(p, obs=obs)
        src, dst = make_1d("S", n, p, 2), make_1d("D", n, p, 4)
        distribute(vm, src, np.arange(n, dtype=float))
        distribute(vm, dst, np.zeros(n))
        redistribute(vm, dst, src)
        collect(vm, dst)
        names = {r.name for r in obs.trace.spans()}
        assert {"distribute", "collect", "superstep", "barrier"} <= names
