"""Table 2 in compiled C: the emitted Figure 8 node code, timed natively.

The Python Table 2 (:mod:`repro.bench.table2`) compresses the paper's
shape ratios because the interpreter dominates; this harness closes the
platform gap: for every Table 2 cell it *emits the C node code* the
compiler would generate (:mod:`repro.bench.nodecode`), builds it through
the hashed native artifact cache (:mod:`repro.runtime.native.build` --
one shared object per (plan, shape) descriptor, compiled once ever, not
once per run), loads it in-process, and tabulates the best
per-invocation microseconds measured by the library's own native timing
loop -- the same experiment the paper ran on the i860, modulo thirty
years of CPUs.

Run with ``python -m repro table2c`` (requires ``cc``/``gcc``/``clang``
on first use; warm caches need no compiler at all).  ``--quick`` is the
CI smoke mode: a 2x2 corner of the grid at few reps, there to keep the
emit -> compile -> execute path from silently rotting.
"""

from __future__ import annotations

import argparse
import ctypes

from ..core.counting import local_allocation_size
from ..runtime.address import make_plan
from ..runtime.native.build import NativeBuildError, find_compiler, load_library
from .nodecode import emit_timing_library
from .report import format_markdown, format_table
from .workloads import PAPER_P, Table2Case, table2_cases

__all__ = ["compiler_available", "run_table2_c", "main"]


def compiler_available() -> str | None:
    """Path of the host C compiler, or None (delegates to the native
    subsystem's discovery, including the ``REPRO_NATIVE_CC`` pin)."""
    return find_compiler()


def _cell_library(case: Table2Case, shape: str) -> ctypes.CDLL:
    """The compiled timing library for one Table 2 cell, via the hashed
    artifact cache (a warm cache performs zero compilations)."""
    rank = case.p // 2
    plan = make_plan(case.p, case.k, case.l, case.upper, case.s, rank)
    size = local_allocation_size(case.p, case.k, case.upper + 1, rank)
    source = emit_timing_library(plan, shape, memory_size=size)
    lib = load_library(
        source,
        {
            "unit": "table2_cell",
            "shape": shape,
            "p": case.p, "k": case.k, "l": case.l, "s": case.s,
            "upper": case.upper, "rank": rank, "memory_size": size,
        },
        required_symbols=("repro_best_us", "node_code"),
    )
    lib.repro_best_us.argtypes = [ctypes.c_long]
    lib.repro_best_us.restype = ctypes.c_double
    return lib


def _measure_cell(case: Table2Case, shape: str, reps: int) -> float:
    best = float(_cell_library(case, shape).repro_best_us(reps))
    if best < 0:
        raise RuntimeError(f"native arena allocation failed for {case}")
    return best


def run_table2_c(
    *,
    cases: list[Table2Case] | None = None,
    shapes: str = "abcd",
    reps: int = 300,
) -> list[dict]:
    """Measure every Table 2 cell with compiled C.  Raises
    :class:`~repro.runtime.native.NativeBuildError` when a cell must be
    compiled and no C compiler is available."""
    if cases is None:
        cases = table2_cases()
    rows = []
    for case in cases:
        row = {"k": case.k, "s": case.s}
        for shape in shapes:
            row[shape] = _measure_cell(case, shape, reps)
        rows.append(row)
    return rows


def render(rows: list[dict], shapes: str = "abcd", *, markdown: bool = False) -> str:
    headers = ["k", "s"] + [f"shape ({c}) us" for c in shapes]
    body = [[row["k"], row["s"]] + [row[c] for c in shapes] for row in rows]
    fmt = format_markdown if markdown else format_table
    return fmt(headers, body)


def main(argv: list[str] | None = None) -> None:
    """CLI entry point; see the module docstring for what it prints."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shapes", default="abcd")
    parser.add_argument("--reps", type=int, default=None)
    parser.add_argument("--markdown", action="store_true")
    parser.add_argument("--quick", action="store_true",
                        help="2x2 grid corner, few reps (CI smoke test)")
    args = parser.parse_args(argv)
    reps = args.reps if args.reps is not None else (20 if args.quick else 300)
    cases = table2_cases()
    if args.quick:
        cases = [c for c in cases if c.k <= 32 and c.s <= 15]
    try:
        rows = run_table2_c(cases=cases, shapes=args.shapes, reps=reps)
    except NativeBuildError as exc:
        raise SystemExit(f"cannot build Table 2 cells: {exc}")
    print(f"Table 2 in compiled C (-O2): 10,000 assignments/processor "
          f"(p={PAPER_P}), best of {reps}")
    print(render(rows, args.shapes, markdown=args.markdown))
    print()
    print("Paper (i860): (a) ~18,000 us dominated by integer divide; "
          "(d) fastest of a-d (~2,300-3,000 us).")


if __name__ == "__main__":
    main()
