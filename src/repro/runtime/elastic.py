"""Elastic rank membership: crash-tolerant live re-layout.

The paper's access-sequence machinery makes any ``cyclic(k)`` layout
cheap to *plan*; this module makes the rank count ``p`` cheap to
*change* while a program is running.  A re-layout from ``p`` ranks to
``p'`` is exactly one more communication schedule -- the old layout is
the RHS, the new layout the LHS, and :mod:`repro.runtime.commsets` /
:mod:`repro.runtime.commsets2d` already compose the two because
transfers carry only rank numbers and flat local slots, never machine
identities.  What this module adds is the *protocol* that makes the
migration safe on a faulty machine:

* **Migration epochs.**  :func:`relayout` snapshots every rank into a
  host-side epoch checkpoint before anything moves.  The migration then
  copies the array into a *staging* arena under the new layout through
  :func:`repro.runtime.resilient.execute_copy_resilient` -- acknowledged
  delivery, retransmission, destination verification, checkpointed crash
  recovery -- on a machine grown to ``max(p, p')`` ranks.

* **All-or-nothing commit.**  Only after the exchange has verified every
  destination section does the staging arena replace the real one and
  the membership change commit (:meth:`Machine.retire_to` /
  :meth:`Machine.grow_to`).  A crash mid-migration that the resilient
  exchange cannot absorb rolls the *entire* machine back to the epoch
  checkpoint -- pre-migration layout, pre-migration values, staging
  freed, grown ranks kept for the retry -- and the migration retries up
  to :attr:`ElasticPolicy.max_attempts` times.  A half-migrated arena is
  never observable.

* **Degraded-mode shrink.**  When a rank dies and its state cannot be
  recovered (the crash outlived checkpoint retention), the default is
  the enriched :class:`~repro.runtime.resilient.ExchangeFailure` naming
  the retention window.  With :attr:`ElasticPolicy.degraded_shrink`
  enabled, an :class:`ElasticSession` instead rebuilds every registered
  array at ``p - 1`` from its own epoch snapshot (host-side stable
  storage, so the dead rank's shards are still readable), retires the
  top rank, and re-runs the statement -- completing bit-identically to a
  static ``p - 1`` run instead of failing.

See docs/FAULT_MODEL.md §6 for the fault-model contract and
``examples/elastic_lu_panel.py`` / ``examples/elastic_stencil.py`` for
the workload shapes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import prod

import numpy as np

from ..distribution.array import AxisMap, DistributedArray
from ..distribution.dist import Distribution, ProcessorGrid
from ..distribution.section import RegularSection
from ..machine.checkpoint import Checkpoint, CheckpointStore
from ..machine.iface import Machine
from .address import rank_vectors
from .exec import _dim_images, _is_lowest_owner, distribute
from .plancache import (
    cached_comm_schedule,
    cached_comm_schedule_2d,
    invalidate_for_p,
)
from .redistribute import RedistributionStats, stats_from_schedule
from .resilient import (
    ExchangeFailure,
    ResilienceReport,
    RetryPolicy,
    execute_copy_resilient,
)

__all__ = [
    "ElasticPolicy",
    "ElasticSession",
    "MigrationFailure",
    "MigrationReport",
    "image_from_snapshot",
    "make_relayout_target",
    "relayout",
]

# Monotonic migration-epoch ids: staging arenas and spans are labelled
# with them so overlapping migrations of different arrays can't collide.
_EPOCH_IDS = itertools.count()


class _RollbackStall(RuntimeError):
    """A rollback could not restore the epoch because ranks stayed dead
    past the revive budget (internal; surfaced as MigrationFailure)."""


class MigrationFailure(RuntimeError):
    """A re-layout could not be completed within its retry budget.

    The machine has been rolled back to the pre-migration epoch (layout,
    values, and membership); the partial :class:`MigrationReport` is
    attached as ``.report`` and the final
    :class:`~repro.runtime.resilient.ExchangeFailure` as ``__cause__``.
    """

    def __init__(self, message: str, report: "MigrationReport") -> None:
        super().__init__(message)
        self.report = report


@dataclass(frozen=True, slots=True)
class ElasticPolicy:
    """Knobs of the elastic runtime (docs/BACKENDS.md lists defaults).

    ``max_attempts`` bounds whole-migration retries (each retry is
    preceded by a full rollback to the migration epoch).  ``revive_wait``
    bounds how many barriers a rollback waits for crashed ranks to
    restart before giving up.  ``degraded_shrink`` opts in to the
    shrink-to-``p-1`` fallback when a rank's crash outlives checkpoint
    retention (sessions only; see :class:`ElasticSession`).
    ``retire_on_commit`` releases ranks beyond the new ``p`` once a
    shrink commits; disable it when other arrays still live on them and
    retire manually after migrating everything.
    ``invalidate_plans_on_commit`` drops the retired epoch's plan-cache
    entries (:func:`repro.runtime.plancache.invalidate_for_p`).
    """

    max_attempts: int = 3
    revive_wait: int = 16
    degraded_shrink: bool = False
    retire_on_commit: bool = True
    invalidate_plans_on_commit: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.revive_wait < 0:
            raise ValueError(f"revive_wait must be >= 0, got {self.revive_wait}")


@dataclass
class MigrationReport:
    """What one :func:`relayout` cost and survived."""

    array: str
    old_p: int
    new_p: int
    epoch: int
    attempts: int = 0
    rollbacks: int = 0
    committed: bool = False
    supersteps: int = 0  # barriers across all attempts
    moved_bytes: int = 0  # remote payload volume of the winning attempt
    stats: RedistributionStats | None = None  # schedule cost figures
    exchange_reports: list[ResilienceReport] = field(default_factory=list)


def _full_sections(array: DistributedArray) -> tuple[RegularSection, ...]:
    return tuple(RegularSection(0, extent - 1, 1) for extent in array.shape)


def make_relayout_target(
    array: DistributedArray,
    new_dist: Distribution | tuple[Distribution | None, ...] | None,
    new_p: int,
    grid_shape: tuple[int, ...] | None = None,
    name: str | None = None,
) -> DistributedArray:
    """The descriptor ``array`` migrates *to*: same shape and alignments,
    new processor grid (``grid_shape`` or ``(new_p,)``), and optionally
    new per-dimension distribution formats.

    ``new_dist`` may be ``None`` (keep every dimension's format -- a pure
    membership change), a single :class:`Distribution` (applied to every
    partitioned dimension), or one entry per dimension with ``None``
    meaning "keep".  Undistributed (collapsed/replicated) dimensions
    always keep their format.
    """
    if new_p < 1:
        raise ValueError(f"need at least one rank, got new_p={new_p}")
    if grid_shape is None:
        if array.grid.rank != 1:
            raise ValueError(
                f"{array.name} lives on a {array.grid.rank}-D grid; pass "
                "grid_shape to re-layout it"
            )
        grid_shape = (new_p,)
    if prod(grid_shape) != new_p:
        raise ValueError(f"grid_shape {grid_shape} does not multiply to {new_p}")
    if isinstance(new_dist, Distribution) or new_dist is None:
        per_dim: tuple[Distribution | None, ...] = (new_dist,) * array.rank
    else:
        per_dim = tuple(new_dist)
        if len(per_dim) != array.rank:
            raise ValueError(
                f"need one distribution per dimension ({array.rank}), "
                f"got {len(per_dim)}"
            )
    grid = ProcessorGrid(f"{array.grid.name}@p{new_p}", tuple(grid_shape))
    axis_maps = []
    for am, dist in zip(array.axis_maps, per_dim):
        if dist is None or not am.distribution.partitions:
            dist = am.distribution
        axis_maps.append(
            AxisMap(
                dist,
                am.alignment,
                grid_axis=am.grid_axis,
                template_extent=am.template_extent,
            )
        )
    return DistributedArray(
        name if name is not None else array.name,
        array.shape,
        grid,
        tuple(axis_maps),
    )


def image_from_snapshot(
    checkpoint: Checkpoint, array: DistributedArray
) -> np.ndarray:
    """Reassemble ``array``'s host image from a machine checkpoint --
    :func:`repro.runtime.exec.collect`, but reading checksum-verified
    snapshot arenas instead of live rank memories.

    This is what makes degraded-mode shrink possible at all: the epoch
    checkpoint is host-side stable storage, so a crashed rank's shards
    are still readable here even though its volatile memory is gone.
    """
    out: np.ndarray | None = None
    images = _dim_images(array)
    for rank in range(array.grid.size):
        if not _is_lowest_owner(array, rank):
            continue
        snap = checkpoint.snapshots.get(rank)
        if snap is None:
            raise KeyError(
                f"checkpoint at superstep {checkpoint.superstep} does not "
                f"cover rank {rank}"
            )
        values = snap.arena_values(array.name)
        if values is None:
            raise KeyError(
                f"rank {rank}'s snapshot carries no arena {array.name!r}"
            )
        if out is None:
            out = np.zeros(array.shape, dtype=values.dtype)
        out[np.ix_(*rank_vectors(array, images, rank))] = values.reshape(
            array.local_shape(rank)
        )
    assert out is not None  # grids are non-empty
    return out


def _await_all_alive(vm: Machine, budget: int) -> bool:
    """Cross up to ``budget`` idle barriers waiting for every dead rank
    to restart (the oracle revives after its downtime; the mp backend
    respawns).  True when the machine is all-alive."""
    for _ in range(budget):
        if not vm.dead_ranks:
            return True
        vm.run(_idle)
    return not vm.dead_ranks


def _idle(ctx):
    return None


def _source_dtype(vm: Machine, array: DistributedArray):
    for rank in range(array.grid.size):
        proc = vm.processors[rank]
        if proc.alive and proc.has_memory(array.name):
            return proc.memory(array.name).dtype
    return np.float64


def relayout(
    vm: Machine,
    array: DistributedArray,
    new_dist: Distribution | tuple[Distribution | None, ...] | None = None,
    new_p: int | None = None,
    *,
    checkpoints: CheckpointStore | None = None,
    policy: ElasticPolicy | None = None,
    retry: RetryPolicy | None = None,
    auditor=None,
    grid_shape: tuple[int, ...] | None = None,
    flight_dir: str = "fault-reports",
) -> tuple[DistributedArray, MigrationReport]:
    """Migrate ``array`` to a new distribution and/or rank count, live.

    Returns ``(new_array, report)`` where ``new_array`` is the committed
    descriptor (same name, new grid/layout) whose shards live on ranks
    ``0..new_p-1``.  The migration is *planned* (one comm schedule from
    the plan cache), *resilient* (executed through
    :func:`~repro.runtime.resilient.execute_copy_resilient` with the
    migration-epoch checkpoint as the rollback point), and *atomic*: on
    success the staging arena replaces the real one and membership
    commits; on failure the machine is rolled back to the pre-migration
    epoch and :class:`MigrationFailure` is raised -- never a
    half-migrated arena.

    ``new_p`` defaults to the current grid size (pure redistribution).
    Growing spawns ranks (:meth:`Machine.grow_to`) before the exchange;
    shrinking retires them (:meth:`Machine.retire_to`) only after commit
    (and only when ``policy.retire_on_commit``; keep them when other
    arrays still live there and retire manually).
    """
    if policy is None:
        policy = ElasticPolicy()
    if checkpoints is None:
        checkpoints = CheckpointStore()
    old_p = array.grid.size
    if new_p is None:
        new_p = old_p
    if array.rank > 2:
        raise ValueError(
            f"{array.name} is rank-{array.rank}; re-layout supports 1-D "
            "and 2-D arrays"
        )
    epoch = next(_EPOCH_IDS)
    target = make_relayout_target(array, new_dist, new_p, grid_shape)
    staging = make_relayout_target(
        array, new_dist, new_p, grid_shape, name=f"{array.name}@mig{epoch}"
    )
    report = MigrationReport(array.name, old_p, new_p, epoch)
    obs = vm.obs
    dtype = _source_dtype(vm, array)
    pre_p = vm.p

    with obs.span("migration", array=array.name, old_p=old_p, new_p=new_p,
                  epoch=epoch):
        obs.inc("elastic.migrations")
        if not _await_all_alive(vm, policy.revive_wait):
            raise MigrationFailure(
                f"cannot start migration of {array.name}: ranks "
                f"{list(vm.dead_ranks)} still dead after "
                f"{policy.revive_wait} barriers",
                report,
            )
        # The migration epoch: a host-side snapshot of every rank, held
        # by reference for the whole migration so the exchange's own
        # rolling checkpoints can never evict the rollback point.
        epoch_ckpt = checkpoints.save(vm)
        if max(old_p, new_p) > vm.p:
            vm.grow_to(max(old_p, new_p))

        secs_t = _full_sections(target)
        secs_a = _full_sections(array)
        if array.rank == 1:
            schedule = cached_comm_schedule(staging, secs_t[0], array, secs_a[0])
        else:
            schedule = cached_comm_schedule_2d(staging, secs_t, array, secs_a)
        report.stats = stats_from_schedule(schedule)
        report.moved_bytes = report.stats.remote_elements * dtype.itemsize

        last_failure: ExchangeFailure | None = None
        while report.attempts < policy.max_attempts:
            report.attempts += 1
            obs.inc("elastic.migration_attempts")
            for rank in range(new_p):
                vm.processors[rank].allocate(
                    staging.name, staging.local_size(rank), dtype=dtype
                )
            try:
                xreport = execute_copy_resilient(
                    vm, staging, secs_t[0], array, secs_a[0],
                    schedule=schedule, policy=retry, checkpoints=checkpoints,
                    auditor=auditor, flight_dir=flight_dir,
                )
                report.exchange_reports.append(xreport)
                report.supersteps += xreport.supersteps
                break
            except ExchangeFailure as exc:
                last_failure = exc
                report.exchange_reports.append(exc.report)
                report.supersteps += exc.report.supersteps
                report.rollbacks += 1
                obs.inc("elastic.rollbacks")
                try:
                    rolled = _rollback(vm, staging, epoch_ckpt, checkpoints, policy)
                except _RollbackStall as stall:
                    # Ranks stayed dead past the revive budget: abort.
                    # Their pre-migration state is still in the epoch
                    # checkpoint (host-side), so a session-level policy
                    # can recover or shrink; we cannot retry here.
                    if vm.p > pre_p:
                        vm.retire_to(pre_p)
                    raise MigrationFailure(
                        f"migration of {array.name} rolled back but "
                        f"{stall}; the epoch checkpoint (superstep "
                        f"{epoch_ckpt.superstep}) still holds every "
                        "rank's pre-migration state",
                        report,
                    ) from exc
                obs.instant(
                    "migration_rollback", array=array.name, epoch=epoch,
                    attempt=report.attempts, restored_ranks=rolled,
                )
                if report.attempts >= policy.max_attempts:
                    if vm.p > pre_p:
                        vm.retire_to(pre_p)
                    raise MigrationFailure(
                        f"migration of {array.name} ({old_p} -> {new_p} "
                        f"ranks) failed after {report.attempts} attempt(s); "
                        "machine rolled back to the pre-migration epoch "
                        f"(superstep {epoch_ckpt.superstep})",
                        report,
                    ) from exc
        else:  # pragma: no cover - loop always breaks or raises
            raise MigrationFailure("migration retry loop exited", report) from last_failure

        # Commit: staging becomes the real arena, then membership.  This
        # runs host-side between barriers, so no fault point can fire
        # mid-commit -- the epoch either migrated fully or not at all.
        for rank in range(new_p):
            proc = vm.processors[rank]
            values = np.array(proc.memory(staging.name), copy=True)
            proc.free(staging.name)
            proc.allocate(array.name, values.size, dtype=values.dtype)
            if values.size:
                proc.memory(array.name)[:] = values
        if policy.retire_on_commit and new_p < vm.p:
            vm.retire_to(new_p)
        if policy.invalidate_plans_on_commit and new_p != old_p:
            invalidate_for_p(old_p)
        # Refresh the store: the newest retained checkpoint should
        # describe the *committed* state, not a mid-migration one that
        # still carries staging arenas.
        checkpoints.save(vm)
        report.committed = True
        obs.inc("elastic.commits")
        obs.instant(
            "migration_commit", array=array.name, epoch=epoch,
            old_p=old_p, new_p=new_p, attempts=report.attempts,
        )
    return target, report


def _free_staging(vm: Machine, staging: DistributedArray) -> None:
    for rank in range(vm.p):
        proc = vm.processors[rank]
        if proc.alive and proc.has_memory(staging.name):
            proc.free(staging.name)


def _rollback(
    vm: Machine,
    staging: DistributedArray,
    epoch_ckpt: Checkpoint,
    checkpoints: CheckpointStore,
    policy: ElasticPolicy,
) -> int:
    """Rewind the whole machine to the migration epoch: staging arenas
    freed, every snapshotted rank restored to its pre-migration arenas,
    grown ranks left in place (empty) for the retry.  Returns the number
    of ranks restored; raises :class:`MigrationFailure` only from the
    caller (which owns the report)."""
    _free_staging(vm, staging)
    if not _await_all_alive(vm, policy.revive_wait):
        # Ranks that revived during the wait came back wiped; whoever is
        # alive has already had its staging arena freed above.
        _free_staging(vm, staging)
        raise _RollbackStall(
            f"ranks {list(vm.dead_ranks)} still dead after "
            f"{policy.revive_wait} barriers"
        )
    _free_staging(vm, staging)
    restored = 0
    for rank in sorted(epoch_ckpt.snapshots):
        checkpoints.restore_rank(vm, rank, epoch_ckpt)
        restored += 1
    return restored


class ElasticSession:
    """A program's distributed arrays tracked across membership epochs.

    The session owns the pieces a long-running elastic program needs in
    one place: the machine, a checkpoint store, the current descriptor
    of every registered array (re-layouts swap them in place), and the
    per-statement *epoch snapshot* that backs degraded-mode shrink.

    >>> session = ElasticSession(vm, policy=ElasticPolicy(degraded_shrink=True))
    >>> session.register(a, host_a); session.register(b, host_b)
    >>> session.copy("A", sec_a, "B", sec_b)   # resilient, shrink-on-loss
    >>> session.relayout("A", CyclicK(4), new_p=6)  # live migration
    """

    def __init__(
        self,
        vm: Machine,
        *,
        checkpoints: CheckpointStore | None = None,
        policy: ElasticPolicy | None = None,
        retry: RetryPolicy | None = None,
        auditor=None,
        flight_dir: str = "fault-reports",
    ) -> None:
        self.vm = vm
        self.checkpoints = checkpoints if checkpoints is not None else CheckpointStore()
        self.policy = policy if policy is not None else ElasticPolicy()
        self.retry = retry
        self.auditor = auditor
        self.flight_dir = flight_dir
        self.arrays: dict[str, DistributedArray] = {}
        self.epoch_checkpoint: Checkpoint | None = None
        self.migrations: list[MigrationReport] = []
        #: (dead_rank, old_p, new_p) per degraded shrink, in order.
        self.degraded_shrinks: list[tuple[int, int, int]] = []

    @property
    def p(self) -> int:
        return self.vm.p

    def register(
        self, array: DistributedArray, values: np.ndarray | None = None
    ) -> DistributedArray:
        """Track ``array`` (optionally scattering ``values`` onto the
        machine first).  Registered arrays follow membership changes:
        re-layouts and degraded shrinks replace their descriptors."""
        if values is not None:
            distribute(self.vm, array, values)
        self.arrays[array.name] = array
        return array

    def relayout(
        self,
        name: str,
        new_dist: Distribution | tuple[Distribution | None, ...] | None = None,
        new_p: int | None = None,
        grid_shape: tuple[int, ...] | None = None,
    ) -> DistributedArray:
        """Live-migrate one registered array (see :func:`relayout`).

        With several registered arrays, membership only shrinks once the
        *last* one has left the retiring ranks: the session passes
        ``retire_on_commit`` only when no other registered array still
        has shards there.
        """
        array = self.arrays[name]
        others_on_old = any(
            other.grid.size > (new_p if new_p is not None else array.grid.size)
            for other_name, other in self.arrays.items()
            if other_name != name
        )
        policy = self.policy
        if others_on_old and policy.retire_on_commit:
            from dataclasses import replace

            policy = replace(policy, retire_on_commit=False)
        new_array, report = relayout(
            self.vm, array, new_dist, new_p,
            checkpoints=self.checkpoints, policy=policy, retry=self.retry,
            auditor=self.auditor, grid_shape=grid_shape,
            flight_dir=self.flight_dir,
        )
        self.arrays[name] = new_array
        self.migrations.append(report)
        return new_array

    def copy(
        self,
        dst: str,
        sec_dst: RegularSection,
        src: str,
        sec_src: RegularSection,
    ) -> ResilienceReport:
        """Resilient ``DST(sec_dst) = SRC(sec_src)`` with the degraded
        fallback: when a rank's crash is unrecoverable (e.g. it outlived
        checkpoint retention) and :attr:`ElasticPolicy.degraded_shrink`
        is on, shrink every registered array to ``p - 1`` from this
        statement's epoch snapshot and re-run -- bit-identical to the
        static ``p - 1`` execution.  With the policy off, the enriched
        :class:`~repro.runtime.resilient.ExchangeFailure` propagates.
        """
        self.epoch_checkpoint = self.checkpoints.save(self.vm)
        try:
            return self._copy_once(dst, sec_dst, src, sec_src)
        except ExchangeFailure as exc:
            if exc.report.unrecoverable is None or not self.policy.degraded_shrink:
                raise
            dead_rank, _step = exc.report.unrecoverable
            self.shrink_degraded(dead_rank)
            return self._copy_once(dst, sec_dst, src, sec_src)

    def _copy_once(self, dst, sec_dst, src, sec_src) -> ResilienceReport:
        return execute_copy_resilient(
            self.vm, self.arrays[dst], sec_dst, self.arrays[src], sec_src,
            policy=self.retry, checkpoints=self.checkpoints,
            auditor=self.auditor, flight_dir=self.flight_dir,
        )

    def shrink_degraded(self, dead_rank: int) -> int:
        """Shrink membership to ``p - 1`` from the epoch snapshot: every
        registered array is reassembled host-side (the snapshot still
        holds the dead rank's shards), the top rank retires, and the
        arrays are re-scattered under their shrunk layouts.  Returns the
        new ``p``."""
        epoch = self.epoch_checkpoint
        if epoch is None:
            raise RuntimeError(
                "no epoch snapshot to shrink from; degraded shrink is only "
                "available inside session statements (see ElasticSession.copy)"
            )
        old_p = self.vm.p
        new_p = old_p - 1
        if new_p < 1:
            raise RuntimeError(f"cannot shrink below one rank (p={old_p})")
        for array in self.arrays.values():
            if array.grid.rank != 1:
                raise RuntimeError(
                    f"degraded shrink supports 1-D grids; {array.name} lives "
                    f"on {array.grid.shape}"
                )
        obs = self.vm.obs
        with obs.span("degraded_shrink", dead_rank=dead_rank,
                      old_p=old_p, new_p=new_p):
            # Reassemble first -- pure host-side reads of the snapshot.
            images = {
                name: image_from_snapshot(epoch, array)
                for name, array in self.arrays.items()
            }
            # Surviving ranks must be alive to take their new shards
            # (the dead rank revives wiped unless it *is* the top rank,
            # which retires instead).
            if dead_rank < new_p and not _await_all_alive(
                self.vm, self.policy.revive_wait
            ):
                raise RuntimeError(
                    f"degraded shrink stalled: ranks {list(self.vm.dead_ranks)} "
                    f"still dead after {self.policy.revive_wait} barriers"
                )
            self.vm.retire_to(new_p)
            invalidate_for_p(old_p)
            for name, array in list(self.arrays.items()):
                shrunk = make_relayout_target(array, None, new_p)
                distribute(self.vm, shrunk, images[name])
                self.arrays[name] = shrunk
            self.checkpoints.save(self.vm)
        self.degraded_shrinks.append((dead_rank, old_p, new_p))
        obs.inc("elastic.degraded_shrinks")
        obs.instant(
            "degraded_shrink", dead_rank=dead_rank, old_p=old_p, new_p=new_p
        )
        return new_p
