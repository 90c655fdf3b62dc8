"""Command-line entry point: ``python -m repro <command>``.

Commands map one-to-one onto the paper's evaluation artifacts::

    python -m repro demo       # the Section-5 worked example
    python -m repro table1     # Table 1  (add --quick for one rank)
    python -m repro figure7    # Figure 7
    python -m repro table2     # Table 2
    python -m repro ablations  # DESIGN.md ablations A1-A3
    python -m repro opcounts   # platform-independent operation counts
    python -m repro claims     # Section 6.1 sensitivity claims
    python -m repro trace      # run instrumented programs, export traces
    python -m repro profile    # measured superstep profiles + calibration

Remaining arguments are forwarded to the selected harness.
"""

from __future__ import annotations

import sys

COMMANDS = {
    "table1": "repro.bench.table1",
    "figure7": "repro.bench.figure7",
    "table2": "repro.bench.table2",
    "ablations": "repro.bench.ablations",
    "opcounts": "repro.bench.opcounts",
    "claims": "repro.bench.claims",
    "costs": "repro.bench.costs",
    "table2c": "repro.bench.table2_c",
    "table1c": "repro.bench.table1_c",
    "trace": "repro.obs.cli",
    "profile": "repro.obs.profilecli",
}


def demo() -> None:
    """Print the paper's worked example end to end."""
    from repro.core import compute_access_table, compute_rl_basis
    from repro.viz import describe_basis, render_walk

    print("Kennedy, Nedeljkovic & Sethi (PPoPP 1995) -- worked example")
    print("p=4 processors, cyclic(8), section A(4::9), processor m=1\n")
    table = compute_access_table(4, 8, 4, 9, 1)
    print(f"start = {table.start}, length = {table.length}")
    print(f"AM    = {list(table.gaps)}")
    print(describe_basis(4, 8, 9))
    print()
    print(render_walk(4, 8, 4, 9, 1, 320))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    command, rest = argv[0], argv[1:]
    if command == "demo":
        demo()
        return 0
    if command not in COMMANDS:
        print(f"unknown command {command!r}; choose from "
              f"{['demo', *COMMANDS]}", file=sys.stderr)
        return 2
    import importlib

    result = importlib.import_module(COMMANDS[command]).main(rest)
    return result if isinstance(result, int) else 0


if __name__ == "__main__":
    raise SystemExit(main())
