#!/usr/bin/env python
"""Why cyclic(k): load balance of triangular workloads + redistribution.

The paper's introduction motivates cyclic(k) through Dongarra, van de
Geijn & Walker's scalable dense linear algebra: factorizations shrink
their active region every step, so BLOCK distributions idle more and
more processors, while block-scattered (cyclic(k)) mappings keep the
shrinking triangle spread over everyone.  This example quantifies that
with the paper's closed-form per-rank counts (checked against a
brute-force ownership count), then performs the classic supporting
runtime operation -- redistributing an array from cyclic(1) to BLOCK --
and prints the traffic matrix the communication sets induce.

Run:  python examples/lu_panel_workload.py
"""

import numpy as np

from repro.core.counting import local_count
from repro.distribution import (
    AxisMap,
    Block,
    CyclicK,
    DistributedArray,
    ProcessorGrid,
)
from repro.machine import VirtualMachine
from repro.runtime import (
    collect,
    distribute,
    plan_redistribution,
    redistribute,
    traffic_matrix,
)

N = 96  # matrix order
PR = PC = 2


def build(name: str, kr: int, kc: int) -> DistributedArray:
    grid = ProcessorGrid("G", (PR, PC))
    return DistributedArray(
        name, (N, N), grid,
        (AxisMap(CyclicK(kr), grid_axis=0), AxisMap(CyclicK(kc), grid_axis=1)),
    )


def trailing_counts(array: DistributedArray, step: int) -> list[int]:
    """Per-rank element counts of the trailing submatrix A(step:, step:).

    A rank's count is the product of its row and column coordinates'
    shares of ``step:N-1``, each the paper's O(k) ``local_count``.
    """
    rows, cols = (
        [local_count(lay.p, lay.k, step, N - 1, 1, m) for m in range(lay.p)]
        for lay in (array.dim_layout(0), array.dim_layout(1))
    )
    counts = [0] * array.grid.size
    for mr, n_rows in enumerate(rows):
        for mc, n_cols in enumerate(cols):
            counts[array.grid.linearize((mr, mc))] = n_rows * n_cols
    brute = [0] * array.grid.size
    for i in range(step, N):
        for j in range(step, N):
            brute[array.owner((i, j))] += 1
    assert counts == brute, (array.name, step, counts, brute)
    return counts


def main() -> None:
    # --- Part 1: trailing-submatrix load balance over LU steps.
    cyclic = build("C", 4, 4)
    blocky = build("B", N // PR, N // PC)  # BLOCK x BLOCK
    print(f"{N}x{N} matrix on a {PR}x{PC} grid; trailing submatrix "
          f"A(step:, step:) work per rank:\n")
    print(f"{'step':>6} {'cyclic(4) max/min':>20} {'BLOCK max/min':>16}")
    for step in (0, N // 4, N // 2, 3 * N // 4):
        c = trailing_counts(cyclic, step)
        b = trailing_counts(blocky, step)
        c_ratio = max(c) / max(min(c), 1)
        b_ratio = max(b) / max(min(b), 1)
        print(f"{step:>6} {c_ratio:>20.2f} {b_ratio:>16.2f}")
    print("\ncyclic(k) keeps the shrinking active region balanced; BLOCK "
          "degenerates\n(idle ranks -> min goes to 0, shown as a huge ratio).")

    # --- Part 2: redistribute a vector cyclic(1) -> BLOCK for a solve phase.
    p = PR * PC
    grid1 = ProcessorGrid("P", (p,))
    src = DistributedArray("x_cyc", (N,), grid1, (AxisMap(CyclicK(1), grid_axis=0),))
    dst = DistributedArray("x_blk", (N,), grid1, (AxisMap(Block(), grid_axis=0),))
    schedule, stats = plan_redistribution(dst, src)
    vm = VirtualMachine(p)
    host = np.arange(N, dtype=float)
    distribute(vm, src, host)
    distribute(vm, dst, np.zeros(N))
    redistribute(vm, dst, src, schedule=schedule)
    assert np.array_equal(collect(vm, dst), host)

    print(f"\nredistribution cyclic(1) -> BLOCK of {N} elements: "
          f"{stats.remote_elements} moved remotely "
          f"({100 * (1 - stats.locality):.0f}%), {stats.messages} messages, "
          f"max fan-out {stats.max_fan_out}")
    print("element traffic matrix (senders x receivers):")
    print(traffic_matrix(schedule, p))


if __name__ == "__main__":
    main()
