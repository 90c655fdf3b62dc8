"""Regression gate for the end-to-end benchmark.

Compare two sets of result records written by ``run.py --out``::

    python3 benchmarks/e2e/compare.py --base A1.json A2.json ... \\
        --new B1.json B2.json ...

or measure two checkouts (say, two commits cloned side by side),
alternating which side runs first::

    python3 benchmarks/e2e/compare.py --checkouts PARENT CHANGE \\
        --repeat 10 [--seed N] [--seconds S] [--workload NAME ...]

For every workload and end-to-end metric it prints both sides' median
and quartiles and a verdict from the metric's ``BENCHMARK.json`` bound:
``worse`` or ``better`` when the medians differ by more than the bound,
else ``unchanged`` -- but ``unresolved`` when either side's
interquartile range exceeds the bound, unless every run of one side
beats every run of the other.  Exact counts of traced runs must be
identical between runs of the same seed.  Exits 1 on any ``worse`` or
any count mismatch.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Counts the program makes that must repeat exactly for a seed.
EXACT_COUNTS = (
    "net.messages", "net.bytes", "machine.supersteps", "plancache.misses",
    "plancache.evictions", "core.access_tables", "resilient.retries",
    "resilient.chunks_repaired",
)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base: list[float], new: list[float], bound: float, lower_is_better: bool) -> str:
    """Judge ``new`` against ``base`` for one metric (see module doc)."""
    b1, bmed, b3 = quartiles(base)
    n1, nmed, n3 = quartiles(new)
    worse_by = (nmed - bmed) / bmed
    if not lower_is_better:
        worse_by = -worse_by
    if worse_by > bound:
        result = "worse"
    elif worse_by < -bound:
        result = "better"
    else:
        result = "unchanged"
    noisy = max((b3 - b1) / bmed, (n3 - n1) / nmed) > bound
    separated = max(new) < min(base) or min(new) > max(base)
    return "unresolved" if noisy and not separated else result


def load(paths: list[Path]) -> list[dict]:
    return [entry for path in paths for entry in json.loads(path.read_text())["results"]]


def compare(base: list[dict], new: list[dict], spec: dict) -> bool:
    """Print the comparison table; True when nothing regressed."""
    ok = True
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in new})
    print(f"{'workload':13s} {'metric':15s} {'base median [q1, q3]':>36s} "
          f"{'new median [q1, q3]':>36s}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sides = [
                [r["metrics"][name] for r in runs
                 if r["workload"] == workload and r["trace"] == 0]
                for runs in (base, new)
            ]
            if not all(sides):
                continue
            result = verdict(*sides, metric["bound"], metric["better"] == "lower")
            ok &= result != "worse"
            cells = [
                "{1:.6g} [{0:.6g}, {2:.6g}]".format(*quartiles(values))
                for values in sides
            ]
            print(f"{workload:13s} {name:15s} {cells[0]:>36s} {cells[1]:>36s}  {result}")
    for workload in workloads:
        traced = [r for r in base + new if r["workload"] == workload and r["trace"] == 1]
        for seed in sorted({r["seed"] for r in traced}):
            runs = [r for r in traced if r["seed"] == seed]
            for name in EXACT_COUNTS:
                values = {r["metrics"][name] for r in runs}
                if len(values) > 1:
                    ok = False
                    print(f"{workload}: {name} differs between runs of seed {seed}: "
                          f"{sorted(values)}")
    return ok


def measure_checkouts(args) -> tuple[list[dict], list[dict]]:
    """Run each checkout's own ``run.py`` ``args.repeat`` times,
    alternating which side goes first."""
    out_dir = ROOT / ".bench_build" / "compare"
    out_dir.mkdir(parents=True, exist_ok=True)
    sides: tuple[list[dict], list[dict]] = ([], [])
    for i in range(args.repeat):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for side in order:
            checkout = args.checkouts[side].resolve()
            out = out_dir / f"side{side}-run{i}.json"
            cmd = [sys.executable, "benchmarks/e2e/run.py", "--seed", str(args.seed),
                   "--trace", "0", "--out", str(out)]
            if args.seconds:
                cmd += ["--seconds", str(args.seconds)]
            if args.workload:
                cmd += ["--workload", *args.workload]
            subprocess.run(cmd, cwd=checkout, check=True, stdout=subprocess.DEVNULL)
            sides[side].extend(load([out]))
    return sides


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark runs")
    parser.add_argument("--base", nargs="+", type=Path, help="result records of the base side")
    parser.add_argument("--new", nargs="+", type=Path, help="result records of the new side")
    parser.add_argument("--checkouts", nargs=2, type=Path, metavar=("BASE", "NEW"),
                        help="measure two checkouts instead of reading records")
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workload", nargs="+")
    args = parser.parse_args(argv)
    if args.checkouts:
        base, new = measure_checkouts(args)
    elif args.base and args.new:
        base, new = load(args.base), load(args.new)
    else:
        parser.error("give --base and --new, or --checkouts")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return 0 if compare(base, new, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
