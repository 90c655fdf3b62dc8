"""Block-cyclic redistribution: change ``cyclic(k1)`` into ``cyclic(k2)``.

The canonical runtime operation over block-cyclic arrays (and the
reason ScaLAPACK-era libraries cared about cyclic(k) in the first
place): move a whole array between two different mappings.  This is the
degenerate array statement ``B(0:n-1) = A(0:n-1)`` with different
descriptors on the two sides, so the access-sequence machinery gives
the communication sets directly; this module adds the convenience
wrapper, schedule statistics, and a traffic-matrix view the benchmarks
and examples report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..distribution.array import DistributedArray
from ..distribution.section import RegularSection
from ..machine.vm import VirtualMachine
from .commsets import CommSchedule
from .exec import execute_copy
from .plancache import cached_comm_schedule

__all__ = [
    "RedistributionStats",
    "plan_redistribution",
    "redistribute",
    "stats_from_schedule",
    "traffic_matrix",
]


@dataclass(frozen=True, slots=True)
class RedistributionStats:
    """Aggregate cost figures of a redistribution schedule."""

    elements: int
    local_elements: int
    remote_elements: int
    messages: int
    max_fan_out: int  # most destinations any single sender talks to

    @property
    def locality(self) -> float:
        """Fraction of elements that do not cross the network."""
        return self.local_elements / self.elements if self.elements else 1.0


def _whole_section(dst: DistributedArray, src: DistributedArray) -> RegularSection:
    """The whole-array section of both sides of ``dst = src``: equal
    shapes, rank-1.  Checked with or without a precomputed schedule --
    a schedule for other arrays would leave part of ``dst`` unwritten."""
    if dst.shape != src.shape:
        raise ValueError(
            f"shape mismatch: {dst.name}{list(dst.shape)} vs "
            f"{src.name}{list(src.shape)}"
        )
    for array in (dst, src):
        if array.rank != 1:
            raise ValueError(f"{array.name} must be rank-1 for redistribution")
    return RegularSection(0, dst.shape[0] - 1, 1)


def stats_from_schedule(schedule: CommSchedule) -> RedistributionStats:
    """Derive the aggregate cost figures from an existing schedule --
    an O(#transfers) summary, not a replanning."""
    fan_out: dict[int, int] = {}
    for tr in schedule.transfers:
        fan_out[tr.source] = fan_out.get(tr.source, 0) + 1
    return RedistributionStats(
        elements=schedule.total_elements,
        local_elements=schedule.total_elements - schedule.communicated_elements,
        remote_elements=schedule.communicated_elements,
        messages=len(schedule.transfers),
        max_fan_out=max(fan_out.values(), default=0),
    )


def plan_redistribution(
    dst: DistributedArray, src: DistributedArray
) -> tuple[CommSchedule, RedistributionStats]:
    """Communication schedule + statistics for ``dst = src`` (whole
    arrays; equal global sizes required)."""
    whole = _whole_section(dst, src)
    schedule = cached_comm_schedule(dst, whole, src, whole)
    return schedule, stats_from_schedule(schedule)


def redistribute(
    vm: VirtualMachine,
    dst: DistributedArray,
    src: DistributedArray,
    schedule: CommSchedule | None = None,
) -> RedistributionStats:
    """Execute ``dst = src`` on the machine; returns the statistics.

    With a precomputed ``schedule`` (the compile-time-constants case)
    the statistics are summarized from that schedule directly -- the
    full communication plan is not recomputed.
    """
    whole = _whole_section(dst, src)
    if schedule is None:
        schedule, stats = plan_redistribution(dst, src)
    else:
        stats = stats_from_schedule(schedule)
    execute_copy(vm, dst, whole, src, whole, schedule)
    return stats


def traffic_matrix(schedule: CommSchedule, p: int) -> np.ndarray:
    """``p x p`` element-count matrix: entry ``[q, r]`` is the number of
    elements rank ``q`` sends rank ``r`` (diagonal = local copies)."""
    matrix = np.zeros((p, p), dtype=np.int64)
    for tr in schedule.locals_ + schedule.transfers:
        matrix[tr.source, tr.dest] += len(tr)
    return matrix
