#!/usr/bin/env python
"""Benchmark the vectorized access-sequence kernels and the plan cache.

Times the runtime's hot paths and writes the results as
machine-readable rows to ``BENCH_kernels.json``:

* ``scalar``     -- the element-at-a-time reference implementations
  (:mod:`repro.oracle`, ``localized_elements``, and the interpreted
  Figure 8 fill loops of :mod:`repro.bench.nodecode`);
* ``vectorized`` -- the NumPy closed-form kernels with cold plan caches
  (every call constructs its plans afresh);
* ``cached``     -- the same calls with warm plan caches (the
  steady-state of an iterative solver re-running one statement);
* ``native``     -- compiled C through the hashed .so cache of
  :mod:`repro.runtime.native.build`.  The ``fill_*`` benchmarks run the
  Table 2 grid through both the interpreted and the table-driven C
  Figure 8 shapes (:func:`repro.bench.nodecode.compiled_shapes`); rows
  are skipped (with a note in the report) when no C compiler is
  usable.

Before timing anything the script cross-checks every vectorized path
against its scalar oracle over a sweep of randomized configurations
(including affine alignments, strided/negative-stride sections, empty
owners), cross-checks the compiled shapes and the runtime kernels
(:mod:`repro.runtime.native`) against the interpreted shapes on
randomized plans, and **exits nonzero on any mismatch** -- CI runs it
with ``--quick`` as a correctness smoke test.  After the native timings
it re-runs every native fill from a cold process-state against the warm
on-disk cache and exits nonzero if that pass performed any compilation
(the cache contract: warm runs never invoke cc).

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py           # full size
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.distribution import (
    Alignment,
    AxisMap,
    CyclicK,
    DistributedArray,
    ProcessorGrid,
    RegularSection,
    localized_arrays,
    localized_elements,
)
from repro.bench.environment import environment_metadata
from repro.bench.nodecode import SHAPES, compiled_shapes
from repro.bench.workloads import Table2Case, table2_cases
from repro.core.counting import local_allocation_size
from repro.machine.vm import VirtualMachine
from repro.oracle import (
    collect_reference,
    compute_comm_schedule_reference,
    distribute_reference,
)
from repro.runtime import (
    cache_stats,
    cached_comm_schedule,
    cached_localized_arrays,
    clear_plan_caches,
    collect,
    compute_comm_schedule,
    distribute,
    execute_fill,
    make_plan,
    materialize_addresses,
    native_available,
)
from repro.runtime.native import get_runtime_kernels, reset_native_state


def make_1d(name: str, n: int, p: int, k: int, a: int = 1, b: int = 0) -> DistributedArray:
    return DistributedArray(
        name,
        (n,),
        ProcessorGrid("G", (p,)),
        (AxisMap(CyclicK(k), Alignment(a, b), grid_axis=0),),
    )


def timeit(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ----------------------------------------------------------------------
# Correctness sweep (the CI gate)
# ----------------------------------------------------------------------

def verify(draws: int, seed: int = 20260806) -> list[str]:
    """Cross-check vectorized paths against scalar oracles; returns a
    list of mismatch descriptions (empty = all good)."""
    rng = np.random.default_rng(seed)
    failures: list[str] = []
    for i in range(draws):
        p = int(rng.integers(1, 6))
        k = int(rng.integers(1, 8))
        n = int(rng.integers(1, 120))
        a = int(rng.choice([1, 1, 1, 2, 3, -1]))
        b = int(rng.integers(0, 5))
        align = Alignment(a, b)
        lo = int(rng.integers(0, n))
        hi = int(rng.integers(0, n))
        stride = int(rng.choice([1, 1, 2, 3, 5, -1, -2]))
        sec = (
            RegularSection(min(lo, hi), max(lo, hi), abs(stride))
            if stride > 0
            else RegularSection(max(lo, hi), min(lo, hi), stride)
        )
        tag = f"draw {i}: p={p} k={k} n={n} align=({a},{b}) sec={sec}"
        for m in range(p):
            pairs = localized_elements(p, k, n, align, sec, m)
            idx, slots = localized_arrays(p, k, n, align, sec, m)
            if [g for g, _ in pairs] != idx.tolist() or [
                s for _, s in pairs
            ] != slots.tolist():
                failures.append(f"localized_arrays mismatch: {tag} m={m}")

        # Schedules: random (k, alignment) on each side, same extent.
        k2 = int(rng.integers(1, 8))
        bsec_len = len(sec)
        if bsec_len and bsec_len <= n:
            asec = RegularSection(0, bsec_len - 1, 1)
            lhs = make_1d("A", n, p, k2)
            rhs = make_1d("B", n, p, k, a, b)
            vec = compute_comm_schedule(lhs, asec, rhs, sec)
            ref = compute_comm_schedule_reference(lhs, asec, rhs, sec)
            if [t.astuples() for t in vec.locals_ + vec.transfers] != [
                t.astuples() for t in ref.locals_ + ref.transfers
            ]:
                failures.append(f"comm schedule mismatch: {tag} k2={k2}")

        # distribute/collect round trip vs the scalar sweep.
        arr_v = make_1d("V", n, p, k, a, b)
        arr_s = make_1d("S", n, p, k, a, b)
        host = rng.standard_normal(n)
        vm_v, vm_s = VirtualMachine(p), VirtualMachine(p)
        distribute(vm_v, arr_v, host)
        distribute_reference(vm_s, arr_s, host)
        for m in range(p):
            got = vm_v.processors[m].memory("V")
            want = vm_s.processors[m].memory("S")
            if not np.array_equal(got, want):
                failures.append(f"distribute mismatch: {tag} m={m}")
        if not np.array_equal(collect(vm_v, arr_v), host):
            failures.append(f"collect round-trip mismatch: {tag}")
        if not np.array_equal(
            collect_reference(vm_v, arr_v), collect(vm_v, arr_v)
        ):
            failures.append(f"collect vs reference mismatch: {tag}")
    return failures


def verify_native(draws: int, seed: int = 20260807) -> list[str]:
    """Cross-check the compiled Figure 8 shapes (a)-(d) and the runtime's
    indexed fill (shape v) against the interpreted shapes on randomized
    plans, and the pack/unpack kernels against fancy indexing; empty
    list when no compiler is usable (nothing to check -- dispatch falls
    back to the verified paths)."""
    kernels = get_runtime_kernels()
    if kernels is None:
        return []
    compiled = compiled_shapes()
    rng = np.random.default_rng(seed)
    failures: list[str] = []
    for i in range(draws):
        p = int(rng.integers(1, 9))
        k = int(rng.integers(1, 17))
        l = int(rng.integers(0, 40))
        s = int(rng.integers(1, 120))
        u = l + int(rng.integers(0, 500))
        m = int(rng.integers(0, p))
        plan = make_plan(p, k, l, u, s, m)
        size = local_allocation_size(p, k, u + 1, m)
        tag = f"native draw {i}: p={p} k={k} l={l} u={u} s={s} m={m}"
        value = float(rng.standard_normal())
        for shape in "abcdv":
            ref = np.zeros(size)
            want = SHAPES[shape](ref, plan, value)
            got_mem = np.zeros(size)
            if shape == "v":
                got = kernels.fill_indexed(
                    got_mem, materialize_addresses(plan), value
                )
            else:
                got = compiled[shape](got_mem, plan, value)
            if got != want or not np.array_equal(got_mem, ref):
                failures.append(f"fill mismatch: {tag} shape={shape}")
        if size:
            src = rng.standard_normal(size)
            idx = rng.integers(0, size, size=int(rng.integers(0, 64)))
            packed = kernels.gather(src, idx)
            if packed is None or not np.array_equal(packed, src[idx]):
                failures.append(f"gather mismatch: {tag}")
            dst_n, dst_c = np.zeros(size), np.zeros(size)
            vals = rng.standard_normal(len(idx))
            dst_n[idx] = vals
            if not kernels.scatter(dst_c, idx, vals) or not np.array_equal(
                dst_c, dst_n
            ):
                failures.append(f"scatter mismatch: {tag}")
    return failures


# ----------------------------------------------------------------------
# Timed rows
# ----------------------------------------------------------------------

def bench_comm_schedule(n: int, p: int, repeats: int) -> list[dict]:
    lhs = make_1d("A", n, p, 7)
    rhs = make_1d("B", n, p, 3)
    sec_a = RegularSection(0, n - 2, 1)
    sec_b = RegularSection(1, n - 1, 1)
    rows = []

    t = timeit(lambda: compute_comm_schedule_reference(lhs, sec_a, rhs, sec_b), 1)
    rows.append({"benchmark": "comm_schedule", "variant": "scalar", "seconds": t})

    clear_plan_caches()
    t = timeit(lambda: compute_comm_schedule(lhs, sec_a, rhs, sec_b), repeats)
    rows.append({"benchmark": "comm_schedule", "variant": "vectorized", "seconds": t})

    cached_comm_schedule(lhs, sec_a, rhs, sec_b)  # warm
    t = timeit(lambda: cached_comm_schedule(lhs, sec_a, rhs, sec_b), max(repeats, 10))
    rows.append({"benchmark": "comm_schedule", "variant": "cached", "seconds": t})

    for row in rows:
        row.update(n=n, p=p)
    return rows


def bench_distribute_collect(n: int, p: int, repeats: int) -> list[dict]:
    arr = make_1d("X", n, p, 5)
    host = np.arange(n, dtype=float)
    rows = []

    vm = VirtualMachine(p)
    t = timeit(lambda: distribute_reference(vm, arr, host), 1)
    rows.append({"benchmark": "distribute", "variant": "scalar", "seconds": t})
    t = timeit(lambda: collect_reference(vm, arr), 1)
    rows.append({"benchmark": "collect", "variant": "scalar", "seconds": t})

    vm = VirtualMachine(p)

    def cold_distribute():
        clear_plan_caches()
        distribute(vm, arr, host)

    t = timeit(cold_distribute, repeats)
    rows.append({"benchmark": "distribute", "variant": "vectorized", "seconds": t})

    def cold_collect():
        clear_plan_caches()
        return collect(vm, arr)

    t = timeit(cold_collect, repeats)
    rows.append({"benchmark": "collect", "variant": "vectorized", "seconds": t})

    distribute(vm, arr, host)  # warm the localized-array cache
    t = timeit(lambda: distribute(vm, arr, host), repeats)
    rows.append({"benchmark": "distribute", "variant": "cached", "seconds": t})
    t = timeit(lambda: collect(vm, arr), repeats)
    rows.append({"benchmark": "collect", "variant": "cached", "seconds": t})

    for row in rows:
        row.update(n=n, p=p)
    return rows


def bench_localized(n: int, p: int, repeats: int) -> list[dict]:
    k = 6
    align = Alignment(1, 0)
    sec = RegularSection(0, n - 1, 3)
    rows = []
    t = timeit(lambda: [localized_elements(p, k, n, align, sec, m) for m in range(p)], 1)
    rows.append({"benchmark": "localized", "variant": "scalar", "seconds": t})
    t = timeit(lambda: [localized_arrays(p, k, n, align, sec, m) for m in range(p)], repeats)
    rows.append({"benchmark": "localized", "variant": "vectorized", "seconds": t})
    [cached_localized_arrays(p, k, n, align, sec, m) for m in range(p)]
    t = timeit(
        lambda: [cached_localized_arrays(p, k, n, align, sec, m) for m in range(p)],
        max(repeats, 10),
    )
    rows.append({"benchmark": "localized", "variant": "cached", "seconds": t})
    for row in rows:
        row.update(n=n, p=p, k=k)
    return rows


def _fill_cells(cases: list[Table2Case]) -> list[tuple]:
    """(bench-name, plan, arena) for every (Table 2 cell, Figure 8 shape)."""
    cells = []
    for case in cases:
        rank = case.p // 2
        plan = make_plan(case.p, case.k, case.l, case.upper, case.s, rank)
        size = local_allocation_size(case.p, case.k, case.upper + 1, rank)
        memory = np.zeros(size)
        for shape in "abcd":
            cells.append((f"fill_{shape}[k={case.k},s={case.s}]", shape, plan, memory))
    return cells


def bench_fill_shapes(cases: list[Table2Case], repeats: int) -> list[dict]:
    """The Table 2 experiment through this runtime: every Figure 8 shape
    on every grid cell, interpreted vs compiled.  Native rows are
    omitted when no compiler is usable."""
    rows = []
    compiled = compiled_shapes() if native_available() else None
    for bench, shape, plan, memory in _fill_cells(cases):
        interp = SHAPES[shape]
        t = timeit(lambda: interp(memory, plan, 100.0), repeats)
        rows.append({"benchmark": bench, "variant": "scalar", "seconds": t,
                     "n": plan.count, "p": plan.p})
        if compiled is not None:
            nat = compiled[shape]
            t = timeit(lambda: nat(memory, plan, 100.0), max(repeats, 20))
            rows.append({"benchmark": bench, "variant": "native", "seconds": t,
                         "n": plan.count, "p": plan.p})
    return rows


def warm_cache_check(cases: list[Table2Case]) -> list[str]:
    """Re-run every native fill after dropping all in-process native
    state -- each compiled Figure 8 shape on its Table 2 cell, and one
    runtime ``execute_fill`` with native dispatch: the on-disk cache is
    warm, so the pass must dlopen existing artifacts and perform
    **zero** compilations.  Returns violations."""
    if not native_available():
        return []
    from repro.obs import Observability, set_ambient

    reset_native_state()  # forget handles; disk cache stays
    obs = Observability()
    prev = set_ambient(obs)
    problems = []
    try:
        compiled = compiled_shapes()
        for bench, shape, plan, memory in _fill_cells(cases):
            written = compiled[shape](memory, plan, 100.0)
            if written != plan.count:
                problems.append(f"warm-cache {bench} wrote {written} of "
                                f"{plan.count} elements")
        arr = make_1d("W", 64, 4, 3)
        vm = VirtualMachine(4)
        distribute(vm, arr, np.zeros(64))
        execute_fill(vm, arr, (RegularSection(1, 62, 3),), 1.0, native=True)
    finally:
        set_ambient(prev)
    compiles = obs.metrics.value("native.compile")
    if compiles:
        problems.append(
            f"warm-cache pass performed {compiles} compilations "
            "(cache key instability or a broken install path)"
        )
    if not obs.metrics.value("native.dispatch_native"):
        problems.append("warm-cache pass never dispatched a native kernel")
    return problems


def collect_metrics(n: int, p: int) -> dict:
    """One instrumented warm pass over the benched workloads.

    Runs *after* the timed rows (never during them -- the timings above
    are taken with observability disabled, which is the configuration
    the <5% overhead budget in docs/OBSERVABILITY.md is measured
    against) and returns an ``Observability.snapshot()`` for the
    ``BENCH_kernels_metrics.json`` sidecar."""
    from repro.obs import Observability, set_ambient

    obs = Observability()
    prev = set_ambient(obs)
    try:
        clear_plan_caches()
        lhs, rhs = make_1d("A", n, p, 7), make_1d("B", n, p, 3)
        sec_a, sec_b = RegularSection(0, n - 2, 1), RegularSection(1, n - 1, 1)
        cached_comm_schedule(lhs, sec_a, rhs, sec_b)  # miss
        cached_comm_schedule(lhs, sec_a, rhs, sec_b)  # hit
        arr = make_1d("X", n, p, 5)
        vm = VirtualMachine(p, obs=obs)
        distribute(vm, arr, np.arange(n, dtype=float))
        collect(vm, arr)
        for m in range(p):
            cached_localized_arrays(p, 6, n, Alignment(1, 0),
                                    RegularSection(0, n - 1, 3), m)
    finally:
        set_ambient(prev)
        clear_plan_caches()
    return obs.snapshot()


def speedups(rows: list[dict]) -> dict:
    by = {(r["benchmark"], r["variant"]): r["seconds"] for r in rows}
    out: dict[str, dict] = {}
    for bench in {r["benchmark"] for r in rows}:
        scalar = by.get((bench, "scalar"))
        entry = {}
        for variant in ("vectorized", "cached", "native"):
            sec = by.get((bench, variant))
            if scalar and sec:
                entry[variant] = round(scalar / sec, 2)
        out[bench] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes + fewer draws (CI smoke test)")
    parser.add_argument("--n", type=int, default=None,
                        help="array size (default 100000, quick 8000)")
    parser.add_argument("-p", "--procs", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--draws", type=int, default=None,
                        help="verification sweep size (default 60, quick 25)")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent / "BENCH_kernels.json")
    args = parser.parse_args(argv)

    n = args.n or (8_000 if args.quick else 100_000)
    repeats = args.repeats or (3 if args.quick else 5)
    draws = args.draws if args.draws is not None else (25 if args.quick else 60)

    print(f"verifying vectorized kernels against scalar oracles ({draws} draws)...")
    failures = verify(draws)
    if failures:
        for f in failures:
            print(f"MISMATCH: {f}", file=sys.stderr)
        print(f"{len(failures)} scalar-vs-vectorized mismatches", file=sys.stderr)
        return 1
    print("ok: vectorized kernels bit-identical to scalar paths")

    if native_available():
        print(f"verifying compiled kernels against interpreted shapes "
              f"({draws} draws)...")
        failures = verify_native(draws)
        if failures:
            for f in failures:
                print(f"MISMATCH: {f}", file=sys.stderr)
            print(f"{len(failures)} native-vs-interpreted mismatches",
                  file=sys.stderr)
            return 1
        print("ok: compiled kernels bit-identical to interpreted shapes")
    else:
        print("note: no usable C compiler -- native rows skipped, "
              "NumPy fallback covers dispatch")

    fill_cases = table2_cases()
    if args.quick:
        fill_cases = [c for c in fill_cases if c.k <= 32 and c.s <= 15]

    clear_plan_caches()
    rows = []
    rows += bench_localized(n, args.procs, repeats)
    rows += bench_comm_schedule(n, args.procs, repeats)
    rows += bench_distribute_collect(n, args.procs, repeats)
    rows += bench_fill_shapes(fill_cases, repeats)

    problems = warm_cache_check(fill_cases)
    if problems:
        for prob in problems:
            print(f"CACHE VIOLATION: {prob}", file=sys.stderr)
        return 1
    if native_available():
        print("ok: warm-cache native pass performed zero compilations")
        # The perf gate: compiled Figure 8 shapes must beat the
        # interpreter by >=5x on every Table 2 cell (typical: 15-100x).
        by = {(r["benchmark"], r["variant"]): r["seconds"] for r in rows}
        slow = [
            (bench, by[bench, "scalar"] / sec)
            for (bench, variant), sec in by.items()
            if variant == "native" and by[bench, "scalar"] / sec < 5.0
        ]
        if slow:
            for bench, ratio in slow:
                print(f"PERF GATE: {bench} native only {ratio:.1f}x over "
                      "interpreted (need >=5x)", file=sys.stderr)
            return 1
        print("ok: native fill columns >=5x over the interpreter")

    report = {
        "config": {"n": n, "p": args.procs, "repeats": repeats,
                   "quick": args.quick, "verify_draws": draws,
                   "native": native_available()},
        "environment": environment_metadata(),
        "rows": rows,
        "speedups": speedups(rows),
        "cache_stats": cache_stats(),
    }
    args.output.write_text(json.dumps(report, indent=1) + "\n")

    metrics_path = args.output.with_name(args.output.stem + "_metrics.json")
    metrics_path.write_text(json.dumps(
        {"config": report["config"], "snapshot": collect_metrics(n, args.procs)},
        indent=1,
    ) + "\n")

    print(f"\n{'benchmark':<14} {'variant':<11} {'seconds':>12}")
    for row in rows:
        print(f"{row['benchmark']:<14} {row['variant']:<11} {row['seconds']:>12.6f}")
    print("\nspeedups over scalar:")
    for bench, entry in sorted(report["speedups"].items()):
        pretty = ", ".join(f"{v}: {x}x" for v, x in entry.items())
        print(f"  {bench:<14} {pretty}")
    print(f"\nwrote {args.output}")
    print(f"wrote {metrics_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
