"""Communication sets for two-dimensional array statements.

For ``A(sec_a0, sec_a1) = B(sec_b0, sec_b1)`` the iteration space is the
cross product ``t0 in [0, n0) x t1 in [0, n1)`` and -- because HPF maps
each dimension independently (paper Section 2) -- the communication
pattern *factorizes*: iteration ``(t0, t1)`` moves between grid
coordinates determined per dimension by the 1-D ownership functions.
The 2-D schedule is therefore the tensor product of two 1-D transfer
sets, built from the same per-dimension machinery
:mod:`repro.runtime.commsets` uses, with flat local addresses composed
row-major.

``rhs_dims`` generalizes the pairing of iteration axes to RHS
dimensions: the default ``(0, 1)`` is the elementwise statement;
``(1, 0)`` pairs LHS dimension 0 with RHS dimension 1 -- the
**distributed transpose** ``A(i, j) = B(j, i)``.  Arrays may map their
dimensions onto grid axes in any (distinct) order and use different
block sizes and affine alignments.  The two grids may even differ in
total size -- each transfer's source rank is linearized through the
RHS grid and its destination rank through the LHS grid, which is what
lets :mod:`repro.runtime.elastic` schedule a live re-layout between a
``p``-rank and a ``p'``-rank grid on a machine of ``max(p, p')`` ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..distribution.array import DistributedArray
from ..distribution.section import RegularSection
from .commsets import dim_transfers

__all__ = ["Transfer2D", "CommSchedule2D", "compute_comm_schedule_2d"]


@dataclass(frozen=True, slots=True)
class Transfer2D:
    """One sender->receiver block of a 2-D statement.

    ``src_slots``/``dst_slots`` are *flat* row-major local addresses,
    parallel arrays ordered odometer style (iteration axis 0 slowest).
    """

    source: int
    dest: int
    src_slots: tuple[int, ...] | np.ndarray
    dst_slots: tuple[int, ...] | np.ndarray

    def __len__(self) -> int:
        return len(self.src_slots)


@dataclass
class CommSchedule2D:
    n_iterations: tuple[int, int]
    locals_: list[Transfer2D] = field(default_factory=list)
    transfers: list[Transfer2D] = field(default_factory=list)
    _send_index: dict[int, list[Transfer2D]] | None = field(
        default=None, repr=False, compare=False
    )
    _recv_index: dict[int, list[Transfer2D]] | None = field(
        default=None, repr=False, compare=False
    )
    _indexed_count: int = field(default=-1, repr=False, compare=False)

    @property
    def total_elements(self) -> int:
        return sum(len(t) for t in self.locals_) + sum(
            len(t) for t in self.transfers
        )

    @property
    def communicated_elements(self) -> int:
        return sum(len(t) for t in self.transfers)

    def _reindex(self) -> None:
        if self._indexed_count == len(self.transfers):
            return
        send: dict[int, list[Transfer2D]] = {}
        recv: dict[int, list[Transfer2D]] = {}
        for t in self.transfers:
            send.setdefault(t.source, []).append(t)
            recv.setdefault(t.dest, []).append(t)
        self._send_index = send
        self._recv_index = recv
        self._indexed_count = len(self.transfers)

    def sends_from(self, rank: int) -> list[Transfer2D]:
        self._reindex()
        return self._send_index.get(rank, [])

    def receives_at(self, rank: int) -> list[Transfer2D]:
        self._reindex()
        return self._recv_index.get(rank, [])

    def locals_at(self, rank: int) -> list[Transfer2D]:
        """The ``source == dest == rank`` copies, in schedule order.  A
        plain filter: ``locals_`` holds at most one transfer per rank."""
        return [t for t in self.locals_ if t.source == rank]


def _check_rank2(array: DistributedArray, role: str) -> None:
    if array.rank != 2:
        raise ValueError(f"{role} array {array.name} must be rank-2")
    if array.grid.rank != 2:
        raise ValueError(f"{role} array {array.name} must be on a rank-2 grid")
    axes = set()
    for d, dim in enumerate(array._dims):
        if dim.layout is None:
            raise ValueError(
                f"{role} array {array.name} dimension {d} is not distributed"
            )
        axes.add(dim.axis_map.grid_axis)
    if axes != {0, 1}:
        raise ValueError(
            f"{role} array {array.name} must cover both grid axes"
        )


def compute_comm_schedule_2d(
    a: DistributedArray,
    secs_a: tuple[RegularSection, RegularSection],
    b: DistributedArray,
    secs_b: tuple[RegularSection, RegularSection],
    rhs_dims: tuple[int, int] = (0, 1),
) -> CommSchedule2D:
    """Schedule for the 2-D statement pairing LHS dim ``e`` with RHS dim
    ``rhs_dims[e]`` (``(0, 1)`` elementwise, ``(1, 0)`` transpose)."""
    _check_rank2(a, "LHS")
    _check_rank2(b, "RHS")
    if sorted(rhs_dims) != [0, 1]:
        raise ValueError(f"rhs_dims must be a permutation of (0, 1), got {rhs_dims}")
    lengths_a = tuple(len(sec) for sec in secs_a)
    lengths_b = tuple(len(secs_b[rhs_dims[e]]) for e in (0, 1))
    if lengths_a != lengths_b:
        raise ValueError(
            f"non-conformable sections: {lengths_a} vs {lengths_b}"
        )
    schedule = CommSchedule2D(n_iterations=lengths_a)
    if 0 in lengths_a:
        return schedule

    # Per iteration axis: (q, r, iterations, src_slots, dst_slots) for
    # every coordinate pair, ascending in (q, r).
    pairs = [
        dim_transfers(
            a._dims[e], secs_a[e], b._dims[rhs_dims[e]], secs_b[rhs_dims[e]]
        )
        for e in (0, 1)
    ]
    axis_b = [b._dims[rhs_dims[e]].axis_map.grid_axis for e in (0, 1)]
    axis_a = [a._dims[e].axis_map.grid_axis for e in (0, 1)]
    # Whether iteration axis e supplies the RHS's *row* (dim 0) slot.
    rhs_is_dim0 = [rhs_dims[e] == 0 for e in (0, 1)]

    for q0, r0, _, bs0, as0 in pairs[0]:
        for q1, r1, _, bs1, as1 in pairs[1]:
            src_coords = [0, 0]
            src_coords[axis_b[0]], src_coords[axis_b[1]] = q0, q1
            dst_coords = [0, 0]
            dst_coords[axis_a[0]], dst_coords[axis_a[1]] = r0, r1
            src = b.grid.linearize(tuple(src_coords))
            dst = a.grid.linearize(tuple(dst_coords))
            src_shape1 = b.local_shape(src)[1]
            dst_shape1 = a.local_shape(dst)[1]
            # Flat addresses as a broadcast outer sum, raveled odometer
            # style (iteration axis 0 slowest) -- identical order to the
            # scalar double loop it replaces.
            if rhs_is_dim0[0]:
                src_flat = bs0[:, None] * src_shape1 + bs1[None, :]
            else:
                src_flat = bs1[None, :] * src_shape1 + bs0[:, None]
            dst_flat = as0[:, None] * dst_shape1 + as1[None, :]
            transfer = Transfer2D(
                src, dst, src_flat.reshape(-1), dst_flat.reshape(-1)
            )
            if src == dst:
                schedule.locals_.append(transfer)
            else:
                schedule.transfers.append(transfer)
    return schedule
