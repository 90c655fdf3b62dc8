"""Table 2: node-code execution times for the Figure 8 shapes.

Regenerates the paper's Table 2 -- time for one processor to perform
10,000 strided assignments using each node-code shape (a)-(d), plus our
vectorized ablation shape (v).  The upper bound is scaled with the
stride so the access count stays constant, exactly as in Section 6.2.
Run with::

    python -m repro.bench.table2
"""

from __future__ import annotations

import argparse

import numpy as np

from ..core.counting import local_allocation_size
from ..runtime.address import make_plan
from .nodecode import SHAPES
from .report import format_markdown, format_table
from .timers import time_us
from .workloads import PAPER_P, Table2Case, table2_cases

__all__ = ["run_table2", "main"]


def _prepare(case: Table2Case, m: int):
    plan = make_plan(case.p, case.k, case.l, case.upper, case.s, m)
    size = local_allocation_size(case.p, case.k, case.upper + 1, m)
    memory = np.zeros(size, dtype=np.float64)
    return plan, memory


def run_table2(
    *,
    cases: list[Table2Case] | None = None,
    shapes: str = "abcdv",
    m: int | None = None,
    repeats: int = 3,
) -> list[dict]:
    """Measure every Table 2 cell.  ``m`` picks the measured rank
    (default: rank p//2; the paper reports max over ranks but the shapes'
    per-element costs are rank-independent)."""
    if cases is None:
        cases = table2_cases()
    rows = []
    for case in cases:
        rank = case.p // 2 if m is None else m
        plan, memory = _prepare(case, rank)
        expect = plan.count
        row = {"k": case.k, "s": case.s, "accesses": expect}
        for shape in shapes:
            fn = SHAPES[shape]
            # Sanity: the shape writes exactly the owned elements.
            written = fn(memory, plan, 100.0)
            if written != expect:
                raise AssertionError(
                    f"shape {shape} wrote {written} of {expect} elements "
                    f"for {case}"
                )
            timing = time_us(lambda: fn(memory, plan, 100.0),
                             repeats=repeats, number=1)
            row[shape] = timing.best_us
        rows.append(row)
    return rows


def render(rows: list[dict], shapes: str = "abcdv", *, markdown: bool = False) -> str:
    headers = ["k", "s", "accesses"] + [f"shape ({c})" for c in shapes]
    body = [
        [row["k"], row["s"], row["accesses"]] + [row[c] for c in shapes]
        for row in rows
    ]
    fmt = format_markdown if markdown else format_table
    return fmt(headers, body)


def main(argv: list[str] | None = None) -> None:
    """CLI entry point; see the module docstring for what it prints."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shapes", default="abcdv")
    parser.add_argument("--markdown", action="store_true")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    rows = run_table2(shapes=args.shapes, repeats=args.repeats)
    print(f"Table 2: node-code time (us) for 10,000 assignments/processor (p={PAPER_P})")
    print(render(rows, args.shapes, markdown=args.markdown))
    print()
    print("Paper's shape ordering: (a) mod is worst by far; (d) fastest of a-d.")
    print("Shape (v) is our NumPy-vectorized ablation (not in the paper).")


if __name__ == "__main__":
    main()
