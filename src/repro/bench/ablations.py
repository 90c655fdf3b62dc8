"""Ablation studies called out in DESIGN.md (A1-A3).

* **A1** -- sorting baseline with timsort vs LSD radix sort (the paper's
  footnote: radix was used for k >= 64, flattening the speedup curve);
* **A2** -- table-free R/L generator vs materialized ΔM table for
  traversal (the Section 6.2 time/space trade-off);
* **A3** -- Hiranandani et al.'s special-case algorithm vs the lattice
  algorithm on inputs where both apply (``s mod pk < k``).

Run with ``python -m repro.bench.ablations``.
"""

from __future__ import annotations

import argparse

import numpy as np

from ..core.access import compute_access_table
from ..core.baselines.sorting import sorting_access_table
from ..core.baselines.special import special_access_table
from ..core.counting import local_allocation_size, local_count
from ..core.generator import RLCursor
from .nodecode import fill_shape_b, make_plan
from .report import format_table
from .timers import time_us
from .workloads import PAPER_P, TABLE1_BLOCK_SIZES

__all__ = ["run_sort_ablation", "run_generator_ablation", "run_special_ablation", "main"]


def run_sort_ablation(
    *, p: int = PAPER_P, s: int = 99, block_sizes=TABLE1_BLOCK_SIZES, repeats: int = 3
) -> list[tuple[int, float, float, float]]:
    """A1: ``(k, lattice, sorting/timsort, sorting/radix)`` in us."""
    m = p // 2
    out = []
    for k in block_sizes:
        lat = time_us(lambda: compute_access_table(p, k, 0, s, m), repeats=repeats)
        tim = time_us(
            lambda: sorting_access_table(p, k, 0, s, m, sort="timsort"),
            repeats=repeats,
        )
        rad = time_us(
            lambda: sorting_access_table(p, k, 0, s, m, sort="radix"),
            repeats=repeats,
        )
        out.append((k, lat.best_us, tim.best_us, rad.best_us))
    return out


def run_generator_ablation(
    *, p: int = PAPER_P, k: int = 64, s: int = 9,
    accesses: int = 10_000, repeats: int = 3,
) -> dict[str, float]:
    """A2: traverse ``accesses`` elements via the materialized table
    (shape b) vs the O(1)-memory RLCursor."""
    m = p // 2
    u = (accesses * p - 1) * s
    plan = make_plan(p, k, 0, u, s, m)
    memory = np.zeros(local_allocation_size(p, k, u + 1, m))
    count = local_count(p, k, 0, u, s, m)

    def run_cursor():
        cur = RLCursor(p, k, 0, s, m)
        for _ in range(count):
            memory[cur.local] = 100.0
            cur.advance()

    table_t = time_us(lambda: fill_shape_b(memory, plan, 100.0),
                      repeats=repeats, number=1)
    cursor_t = time_us(run_cursor, repeats=repeats, number=1)
    return {
        "accesses": count,
        "table_us": table_t.best_us,
        "cursor_us": cursor_t.best_us,
        "table_words": plan.length,  # ΔM storage the cursor avoids
    }


def run_special_ablation(
    *, p: int = PAPER_P, block_sizes=TABLE1_BLOCK_SIZES, repeats: int = 3
) -> list[tuple[int, int, float, float]]:
    """A3: ``(k, s, lattice_us, special_us)`` with ``s = k//2 + 1`` so the
    Hiranandani condition ``s mod pk < k`` holds."""
    m = p // 2
    out = []
    for k in block_sizes:
        s = k // 2 + 1
        lat = time_us(lambda: compute_access_table(p, k, 0, s, m), repeats=repeats)
        spc = time_us(lambda: special_access_table(p, k, 0, s, m), repeats=repeats)
        out.append((k, s, lat.best_us, spc.best_us))
    return out


def main(argv: list[str] | None = None) -> None:
    """CLI entry point; see the module docstring for what it prints."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    print("A1: sorting baseline sort-routine choice (s=99, p=32, one rank)")
    rows = run_sort_ablation(repeats=args.repeats)
    print(format_table(
        ["k", "Lattice (us)", "Sorting+timsort (us)", "Sorting+radix (us)"], rows
    ))
    print()
    print("A2: materialized table vs table-free R/L cursor (k=64, s=9)")
    gen = run_generator_ablation(repeats=args.repeats)
    print(format_table(
        ["accesses", "table (us)", "cursor (us)", "table words saved"],
        [(gen["accesses"], gen["table_us"], gen["cursor_us"], gen["table_words"])],
    ))
    print()
    print("A3: lattice vs Hiranandani special case (s = k/2+1, both O(k))")
    rows = run_special_ablation(repeats=args.repeats)
    print(format_table(["k", "s", "Lattice (us)", "Special (us)"], rows))


if __name__ == "__main__":
    main()
