"""Tests for elastic rank membership (:mod:`repro.runtime.elastic`).

The headline contract: ``relayout`` migrates an array between rank
counts as one planned, resilient, all-or-nothing exchange -- the result
is bit-identical to distributing onto the new layout from scratch, a
crash mid-migration rolls the whole machine back to the pre-migration
epoch, and a rank lost past checkpoint retention either degrades to
``p - 1`` (opt-in) or raises an :class:`ExchangeFailure` naming the
retention window -- never a silent wrong answer.
"""

import numpy as np
import pytest

from repro.distribution import (
    Alignment,
    AxisMap,
    Block,
    CyclicK,
    DistributedArray,
    ProcessorGrid,
    RegularSection,
)
from repro.machine.checkpoint import CheckpointPolicy, CheckpointStore
from repro.machine.faults import FaultPlan
from repro.machine.vm import VirtualMachine
from repro.runtime import (
    ElasticPolicy,
    ElasticSession,
    MigrationFailure,
    collect,
    distribute,
    execute_copy,
    relayout,
)
from repro.runtime.elastic import image_from_snapshot, make_relayout_target
from repro.runtime.plancache import (
    cache_stats,
    cached_array_plan,
    clear_plan_caches,
    invalidate_for_p,
)
from repro.runtime.resilient import ExchangeFailure, RetryPolicy


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_plan_caches()
    yield
    clear_plan_caches()


def make_1d(name, n, p, k, a=1, b=0):
    return DistributedArray(
        name,
        (n,),
        ProcessorGrid("G", (p,)),
        (AxisMap(CyclicK(k), Alignment(a, b), grid_axis=0),),
    )


def static_image(n, p, k, host, name="R"):
    """The oracle: distribute ``host`` onto a fresh static-``p`` layout
    and collect it back (what a migrated array must match bit for bit)."""
    vm = VirtualMachine(p)
    arr = make_1d(name, n, p, k)
    distribute(vm, arr, host)
    return collect(vm, arr)


# ---------------------------------------------------------------------------
# Machine-layer membership
# ---------------------------------------------------------------------------


class TestVmMembership:
    def test_grow_appends_fresh_ranks(self):
        vm = VirtualMachine(2)
        vm.grow_to(5)
        assert vm.p == 5
        assert len(vm.processors) == 5
        assert [proc.rank for proc in vm.processors] == [0, 1, 2, 3, 4]
        assert vm.dead_ranks == ()
        # New ranks are usable immediately.
        got = vm.run(lambda ctx: ctx.rank)
        assert got == [0, 1, 2, 3, 4]

    def test_grow_must_increase(self):
        vm = VirtualMachine(3)
        with pytest.raises(ValueError):
            vm.grow_to(3)
        with pytest.raises(ValueError):
            vm.grow_to(2)

    def test_retire_truncates_and_quarantines(self):
        vm = VirtualMachine(4)
        # Stage traffic touching a rank about to retire.
        vm.network.send(0, 3, "t", 1.0)
        vm.network.send(0, 1, "t", 2.0)
        quarantined_before = vm.network.stats.quarantined
        vm.retire_to(2)
        assert vm.p == 2
        assert len(vm.processors) == 2
        assert vm.network.stats.quarantined == quarantined_before + 1
        # Surviving traffic still delivers.
        vm.run(lambda ctx: None)
        assert vm.network.recv(1, 0, "t") == pytest.approx(2.0)

    def test_retire_bounds(self):
        vm = VirtualMachine(3)
        with pytest.raises(ValueError):
            vm.retire_to(0)
        with pytest.raises(ValueError):
            vm.retire_to(3)

    def test_retired_dead_rank_never_revives(self):
        plan = FaultPlan(forced_crashes=frozenset({(0, 2)}), crash_downtime=1)
        vm = VirtualMachine(3, fault_plan=plan)
        vm.run(lambda ctx: None)  # superstep 0: rank 2 crashes
        assert vm.dead_ranks == (2,)
        vm.retire_to(2)
        for _ in range(4):
            vm.run(lambda ctx: None)
        assert vm.p == 2 and vm.dead_ranks == ()

    def test_membership_events_recorded(self):
        vm = VirtualMachine(2)
        vm.grow_to(4)
        vm.retire_to(3)
        kinds = [e.kind for e in vm.network.fault_events]
        assert "grow" in kinds and "retire" in kinds


# ---------------------------------------------------------------------------
# make_relayout_target
# ---------------------------------------------------------------------------


class TestRelayoutTarget:
    def test_keeps_shape_and_alignment(self):
        a = make_1d("A", 50, 3, 4, a=2, b=1)
        t = make_relayout_target(a, CyclicK(6), 5)
        assert t.shape == a.shape
        assert t.grid.size == 5
        assert t.axis_maps[0].alignment == a.axis_maps[0].alignment
        assert t.axis_maps[0].distribution == CyclicK(6)

    def test_none_keeps_format(self):
        a = make_1d("A", 50, 3, 4)
        t = make_relayout_target(a, None, 7)
        assert t.axis_maps[0].distribution == a.axis_maps[0].distribution

    def test_2d_requires_grid_shape(self):
        grid = ProcessorGrid("G", (2, 2))
        a = DistributedArray(
            "A", (8, 8), grid,
            (AxisMap(CyclicK(2), grid_axis=0), AxisMap(CyclicK(2), grid_axis=1)),
        )
        with pytest.raises(ValueError):
            make_relayout_target(a, None, 6)
        t = make_relayout_target(a, None, 6, grid_shape=(3, 2))
        assert t.grid.shape == (3, 2)

    def test_grid_shape_must_multiply(self):
        a = make_1d("A", 50, 3, 4)
        with pytest.raises(ValueError):
            make_relayout_target(a, None, 6, grid_shape=(2, 2))


# ---------------------------------------------------------------------------
# relayout: the tentpole
# ---------------------------------------------------------------------------


class TestRelayout:
    def test_grow_bit_identical_to_static(self):
        n = 97
        host = np.arange(n, dtype=float) * 1.5
        vm = VirtualMachine(3)
        a = make_1d("A", n, 3, 4)
        distribute(vm, a, host)
        a2, report = relayout(vm, a, CyclicK(7), new_p=5)
        assert vm.p == 5
        assert report.committed and report.attempts == 1
        assert np.array_equal(collect(vm, a2), host)
        # Shard-exact: every rank holds exactly the static layout's shard.
        vm_ref = VirtualMachine(5)
        ref = make_1d("A", n, 5, 7)
        distribute(vm_ref, ref, host)
        for rank in range(5):
            assert np.array_equal(
                vm.processors[rank].memory("A"),
                vm_ref.processors[rank].memory("A"),
            )

    def test_shrink_bit_identical_to_static(self):
        n = 80
        host = np.linspace(0.0, 1.0, n)
        vm = VirtualMachine(6)
        a = make_1d("A", n, 6, 5)
        distribute(vm, a, host)
        a2, report = relayout(vm, a, CyclicK(3), new_p=2)
        assert vm.p == 2 and report.committed
        assert np.array_equal(collect(vm, a2), host)

    def test_pure_redistribution_same_p(self):
        n = 60
        host = np.arange(n, dtype=float)
        vm = VirtualMachine(4)
        a = make_1d("A", n, 4, 2)
        distribute(vm, a, host)
        a2, report = relayout(vm, a, CyclicK(9), new_p=4)
        assert vm.p == 4 and report.old_p == report.new_p == 4
        assert np.array_equal(collect(vm, a2), host)

    def test_block_to_cyclic_across_p(self):
        n = 66
        host = np.arange(n, dtype=float)
        vm = VirtualMachine(3)
        a = DistributedArray(
            "A", (n,), ProcessorGrid("G", (3,)),
            (AxisMap(Block(), grid_axis=0),),
        )
        distribute(vm, a, host)
        a2, _ = relayout(vm, a, CyclicK(4), new_p=5)
        assert np.array_equal(collect(vm, a2), host)

    def test_2d_grow_and_shrink(self):
        host = np.arange(120, dtype=float).reshape(12, 10)
        grid = ProcessorGrid("G", (2, 2))
        a = DistributedArray(
            "A", (12, 10), grid,
            (AxisMap(CyclicK(2), grid_axis=0), AxisMap(CyclicK(3), grid_axis=1)),
        )
        vm = VirtualMachine(4)
        distribute(vm, a, host)
        a2, _ = relayout(vm, a, (CyclicK(4), CyclicK(2)), new_p=6,
                         grid_shape=(3, 2))
        assert vm.p == 6
        assert np.array_equal(collect(vm, a2), host)
        a3, _ = relayout(vm, a2, None, new_p=2, grid_shape=(2, 1))
        assert vm.p == 2
        assert np.array_equal(collect(vm, a3), host)

    def test_report_counts_comm_volume(self):
        n = 64
        vm = VirtualMachine(4)
        a = make_1d("A", n, 4, 2)
        distribute(vm, a, np.arange(n, dtype=float))
        _, report = relayout(vm, a, CyclicK(5), new_p=3)
        assert report.stats is not None
        assert report.stats.elements == n
        assert report.moved_bytes == report.stats.remote_elements * 8
        assert report.supersteps > 0

    def test_retire_can_be_deferred(self):
        n = 40
        vm = VirtualMachine(4)
        a = make_1d("A", n, 4, 2)
        distribute(vm, a, np.arange(n, dtype=float))
        policy = ElasticPolicy(retire_on_commit=False)
        a2, _ = relayout(vm, a, None, new_p=2, policy=policy)
        assert vm.p == 4  # ranks kept for other arrays
        assert np.array_equal(collect(vm, a2), np.arange(n, dtype=float))
        vm.retire_to(2)
        assert np.array_equal(collect(vm, a2), np.arange(n, dtype=float))


class TestRelayoutSweep:
    """Randomized p -> p' sweep: every migration bit-identical to the
    static-p' oracle (the acceptance criterion of the elastic PR)."""

    def test_randomized_sweep(self):
        rng = np.random.default_rng(7)
        for trial in range(12):
            n = int(rng.integers(16, 120))
            old_p = int(rng.integers(1, 7))
            new_p = int(rng.integers(1, 7))
            old_k = int(rng.integers(1, 9))
            new_k = int(rng.integers(1, 9))
            host = rng.standard_normal(n)
            vm = VirtualMachine(old_p)
            a = make_1d("A", n, old_p, old_k)
            distribute(vm, a, host)
            a2, report = relayout(vm, a, CyclicK(new_k), new_p=new_p)
            assert vm.p == new_p
            assert report.committed
            got = collect(vm, a2)
            ref = static_image(n, new_p, new_k, host)
            assert np.array_equal(got, ref), (
                f"trial {trial}: {old_p}(k={old_k}) -> {new_p}(k={new_k}), n={n}"
            )

    def test_sweep_with_crashes(self):
        """Same sweep with a forced crash landing mid-migration: the
        resilient exchange (or a full epoch rollback + retry) must still
        deliver the bit-identical result."""
        rng = np.random.default_rng(11)
        for trial in range(8):
            n = int(rng.integers(24, 96))
            old_p = int(rng.integers(2, 6))
            new_p = int(rng.integers(2, 6))
            new_k = int(rng.integers(1, 7))
            victim = int(rng.integers(0, min(old_p, new_p)))
            crash_step = int(rng.integers(1, 5))
            host = rng.standard_normal(n)
            plan = FaultPlan(
                forced_crashes=frozenset({(crash_step, victim)}),
                crash_downtime=1,
            )
            vm = VirtualMachine(old_p, fault_plan=plan)
            a = make_1d("A", n, old_p, 3)
            distribute(vm, a, host)
            a2, report = relayout(vm, a, CyclicK(new_k), new_p=new_p)
            assert report.committed
            got = collect(vm, a2)
            ref = static_image(n, new_p, new_k, host)
            assert np.array_equal(got, ref), (
                f"trial {trial}: crash r{victim}@{crash_step}, "
                f"{old_p} -> {new_p}, n={n}"
            )


class TestRollback:
    def test_failed_attempt_rolls_back_then_retries(self):
        n = 48
        host = np.arange(n, dtype=float)
        # Crashes on every odd superstep in a window long enough to sink
        # attempt 1 (max_supersteps=6) but clear for attempt 2.
        crashes = frozenset((s, 1) for s in range(1, 10, 2))
        vm = VirtualMachine(3, fault_plan=FaultPlan(
            forced_crashes=crashes, crash_downtime=1))
        a = make_1d("A", n, 3, 2)
        distribute(vm, a, host)
        a2, report = relayout(
            vm, a, CyclicK(3), new_p=4,
            retry=RetryPolicy(max_supersteps=6),
            policy=ElasticPolicy(max_attempts=3, revive_wait=8),
        )
        assert report.attempts == 2 and report.rollbacks == 1
        assert np.array_equal(collect(vm, a2), host)
        assert np.array_equal(collect(vm, a2), static_image(n, 4, 3, host))

    def test_exhausted_attempts_leave_premigration_state(self):
        """All-or-nothing: when every attempt fails the machine is back
        at the old p with the old layout's exact values."""
        n = 48
        host = np.arange(n, dtype=float)
        crashes = frozenset((s, 1) for s in range(1, 400))
        vm = VirtualMachine(3, fault_plan=FaultPlan(
            forced_crashes=crashes, crash_downtime=1))
        a = make_1d("A", n, 3, 2)
        distribute(vm, a, host)
        before = [np.array(vm.processors[r].memory("A")) for r in range(3)]
        with pytest.raises(MigrationFailure) as info:
            relayout(
                vm, a, CyclicK(3), new_p=4,
                retry=RetryPolicy(max_supersteps=6),
                policy=ElasticPolicy(max_attempts=2, revive_wait=3),
            )
        assert vm.p == 3  # grown rank was retired again
        report = info.value.report
        assert not report.committed and report.attempts >= 1
        # No staging arena survives anywhere.
        for rank in range(3):
            proc = vm.processors[rank]
            if proc.alive:
                assert all("mig" not in name for name in proc.memory_names)
        # Survivor arenas hold the pre-migration values verbatim.
        for rank in range(3):
            if vm.processors[rank].alive:
                assert np.array_equal(
                    vm.processors[rank].memory("A"), before[rank]
                )

    def test_rollback_restores_after_partial_staging(self):
        """The epoch checkpoint, not the exchange's rolling checkpoints,
        is the rollback point: even values already staged under the new
        layout vanish on rollback."""
        n = 60
        host = np.arange(n, dtype=float)
        vm = VirtualMachine(3)
        a = make_1d("A", n, 3, 4)
        distribute(vm, a, host)
        store = CheckpointStore(CheckpointPolicy(every=1, retention=2))
        a2, report = relayout(vm, a, CyclicK(2), new_p=5, checkpoints=store)
        assert report.committed
        assert np.array_equal(collect(vm, a2), host)
        # Post-commit the newest retained checkpoint reflects the
        # committed state (no staging arenas).
        newest = store.checkpoints[-1]
        for rank, snap in newest.snapshots.items():
            assert all("mig" not in a.name for a in snap.arenas)


# ---------------------------------------------------------------------------
# Plan-cache keying across membership epochs (satellite)
# ---------------------------------------------------------------------------


class TestPlanCacheEpochs:
    def test_migration_never_hits_stale_p_entry(self):
        n = 60
        host = np.arange(n, dtype=float)
        vm = VirtualMachine(4)
        a = make_1d("A", n, 4, 3)
        distribute(vm, a, host)
        sec = RegularSection(0, n - 1, 1)
        b = make_1d("B", n, 4, 3)
        distribute(vm, b, np.zeros(n))
        execute_copy(vm, b, sec, a, sec)  # warm the p=4 caches
        warm = cache_stats()
        assert warm["comm_schedules"]["entries"] >= 1
        hits_before = {name: s["hits"] for name, s in warm.items()}

        a2, _ = relayout(vm, a, CyclicK(3), new_p=3,
                         policy=ElasticPolicy(retire_on_commit=False))
        # The migration schedule is keyed ((3, 4), ...): it can never be
        # served from (or collide with) a (4, 4) entry.  Committing the
        # migration already invalidated the retired epoch's plans
        # (invalidate_plans_on_commit), so an explicit sweep finds
        # nothing left and no surviving entry is tagged with the old p.
        stats_after = cache_stats()
        assert sum(s["invalidations"] for s in stats_after.values()) >= 1
        assert invalidate_for_p(4) == 0
        from repro.runtime import plancache

        for cache in plancache._CACHES:
            for key, (_, tags) in cache._data.items():
                assert tags, (cache.name, key)  # every entry is tagged
                assert 4 not in tags, (cache.name, key)
        # The p=3 copy still works and misses (its plans were fresh).
        vm.retire_to(3)
        c = make_1d("C", n, 3, 3)
        distribute(vm, c, np.zeros(n))
        execute_copy(vm, c, sec, a2, sec)
        assert np.array_equal(collect(vm, c), host)
        del hits_before

    def test_invalidate_for_p_counts(self):
        a4 = make_1d("A", 30, 4, 2)
        a3 = make_1d("A", 30, 3, 2)
        sec = RegularSection(0, 29, 1)
        cached_array_plan(a4, 0, sec)
        cached_array_plan(a3, 0, sec)
        # The p=4 plan and the p=4 period table it was read from.
        assert invalidate_for_p(4) == 2
        stats = cache_stats()["array_plans"]
        assert stats["entries"] == 1 and stats["invalidations"] == 1
        assert invalidate_for_p(4) == 0


# ---------------------------------------------------------------------------
# Degraded-mode shrink / retention eviction (satellite)
# ---------------------------------------------------------------------------


class HoleStore(CheckpointStore):
    """Simulates the cross-statement retention-eviction scenario: after
    the first (epoch) save, every checkpoint entering the store omits
    ``drop_rank``, and with ``retention=1`` the full epoch checkpoint is
    evicted from the *store* -- though the session still holds it by
    reference, exactly the situation after heavy cross-statement
    checkpoint traffic."""

    def __init__(self, policy, drop_rank):
        super().__init__(policy)
        self.drop_rank = drop_rank
        self._saves = 0

    def save(self, vm, states=None):
        ckpt = super().save(vm, states)
        self._saves += 1
        if self._saves > 1:
            ckpt.snapshots.pop(self.drop_rank, None)
        return ckpt


class TestRetentionEviction:
    N, P = 60, 4
    SEC = RegularSection(0, N - 1, 1)

    def _build(self, p, plan=None):
        vm = VirtualMachine(p, fault_plan=plan)
        a = make_1d("A", self.N, p, 3)
        b = make_1d("B", self.N, p, 5)
        return vm, a, b

    def _oracle(self, p):
        vm, a, b = self._build(p)
        distribute(vm, a, np.zeros(self.N))
        distribute(vm, b, np.arange(self.N, dtype=float))
        execute_copy(vm, a, self.SEC, b, self.SEC)
        return collect(vm, a)

    def test_degraded_shrink_completes_at_p_minus_1(self):
        plan = FaultPlan(forced_crashes=frozenset({(2, 1)}), crash_downtime=1)
        vm, a, b = self._build(self.P, plan)
        store = HoleStore(CheckpointPolicy(every=None, retention=1), drop_rank=1)
        session = ElasticSession(
            vm, checkpoints=store, policy=ElasticPolicy(degraded_shrink=True)
        )
        session.register(a, np.zeros(self.N))
        session.register(b, np.arange(self.N, dtype=float))
        session.copy("A", self.SEC, "B", self.SEC)
        assert session.degraded_shrinks == [(1, self.P, self.P - 1)]
        assert vm.p == self.P - 1
        got = collect(vm, session.arrays["A"])
        assert np.array_equal(got, self._oracle(self.P - 1))
        # B was rebuilt too, bit-identically.
        assert np.array_equal(
            collect(vm, session.arrays["B"]), np.arange(self.N, dtype=float)
        )

    def test_disabled_policy_raises_enriched_failure(self):
        plan = FaultPlan(forced_crashes=frozenset({(2, 1)}), crash_downtime=1)
        vm, a, b = self._build(self.P, plan)
        store = HoleStore(CheckpointPolicy(every=None, retention=1), drop_rank=1)
        session = ElasticSession(vm, checkpoints=store)  # degraded off
        session.register(a, np.zeros(self.N))
        session.register(b, np.arange(self.N, dtype=float))
        with pytest.raises(ExchangeFailure) as info:
            session.copy("A", self.SEC, "B", self.SEC)
        msg = str(info.value)
        # Names the rank, the superstep, and the retention window.
        assert "rank 1" in msg
        assert "superstep" in msg
        assert "retained supersteps" in msg or "no checkpoints retained" in msg
        assert "policy every" in msg
        assert info.value.report.unrecoverable is not None
        rank, step = info.value.report.unrecoverable
        assert rank == 1 and step >= 0

    def test_never_a_silent_wrong_answer(self):
        """Property form: across several victims and crash steps, the
        outcome is either a degraded p-1 run matching the static p-1
        oracle, or an ExchangeFailure -- never a completed copy whose
        values differ from an oracle."""
        rng = np.random.default_rng(3)
        for _ in range(6):
            victim = int(rng.integers(0, self.P))
            crash_step = int(rng.integers(1, 4))
            degraded = bool(rng.integers(0, 2))
            plan = FaultPlan(
                forced_crashes=frozenset({(crash_step, victim)}),
                crash_downtime=1,
            )
            vm, a, b = self._build(self.P, plan)
            store = HoleStore(
                CheckpointPolicy(every=None, retention=1), drop_rank=victim
            )
            session = ElasticSession(
                vm, checkpoints=store,
                policy=ElasticPolicy(degraded_shrink=degraded),
            )
            session.register(a, np.zeros(self.N))
            session.register(b, np.arange(self.N, dtype=float))
            try:
                session.copy("A", self.SEC, "B", self.SEC)
            except ExchangeFailure:
                assert not degraded or vm.p == self.P
                continue
            got = collect(vm, session.arrays["A"])
            oracle = self._oracle(vm.p)
            assert np.array_equal(got, oracle), (
                f"victim={victim} step={crash_step} degraded={degraded}"
            )


# ---------------------------------------------------------------------------
# ElasticSession orchestration
# ---------------------------------------------------------------------------


class TestElasticSession:
    def test_relayout_defers_retire_until_last_array(self):
        n = 40
        vm = VirtualMachine(4)
        session = ElasticSession(vm)
        host_a = np.arange(n, dtype=float)
        host_b = host_a * 2
        session.register(make_1d("A", n, 4, 2), host_a)
        session.register(make_1d("B", n, 4, 3), host_b)
        session.relayout("A", CyclicK(5), new_p=2)
        assert vm.p == 4  # B still lives on ranks 2..3
        session.relayout("B", CyclicK(5), new_p=2)
        assert vm.p == 2  # last array left: membership shrank
        assert np.array_equal(collect(vm, session.arrays["A"]), host_a)
        assert np.array_equal(collect(vm, session.arrays["B"]), host_b)

    def test_image_from_snapshot_matches_collect(self):
        n = 53
        vm = VirtualMachine(3)
        a = make_1d("A", n, 3, 4, a=2, b=1)
        host = np.arange(n, dtype=float)
        distribute(vm, a, host)
        store = CheckpointStore()
        ckpt = store.save(vm)
        assert np.array_equal(image_from_snapshot(ckpt, a), collect(vm, a))

    def test_obs_records_migration_spans(self):
        from repro.obs import Observability

        obs = Observability(enabled=True)
        vm = VirtualMachine(3, obs=obs)
        a = make_1d("A", 30, 3, 2)
        distribute(vm, a, np.arange(30, dtype=float))
        relayout(vm, a, CyclicK(3), new_p=4)
        assert [s.name for s in obs.trace.spans("migration")]
        assert [s.name for s in obs.trace.instants("migration_commit")]
        assert obs.metrics.snapshot()["counters"]["elastic.migrations"] == 1
        assert obs.metrics.snapshot()["counters"]["elastic.commits"] == 1
