"""``python -m repro trace`` -- run instrumented programs, export traces.

Runs one or more built-in SPMD programs on a machine with observability
enabled, then writes a Chrome trace-event file (load it in Perfetto,
https://ui.perfetto.dev, or ``chrome://tracing``) plus optional
JSON-lines and text-summary exports.  Programs::

    copy          A(0:n-1) = B(0:n-1) across two cyclic layouts
    redistribute  whole-array cyclic(k_src) -> cyclic(k_dst)
    transpose     distributed A = B^T on a 2x2 grid
    fill          strided section fill
    resilient     fault-injected checkpointed resilient redistribution

Examples::

    python -m repro trace copy --out trace.json
    python -m repro trace resilient --drop 0.3 --seed 2 --summary -
    python -m repro trace copy redistribute fill --jsonl trace.jsonl
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import Observability, set_ambient
from .export import write_chrome_trace, write_jsonl, write_summary, summary

__all__ = ["PROGRAMS", "main", "run_program"]


def _vector(name: str, n: int, p: int, k: int):
    from ..distribution.array import AxisMap, DistributedArray
    from ..distribution.dist import CyclicK, ProcessorGrid

    grid = ProcessorGrid("P", (p,))
    return DistributedArray(name, (n,), grid, (AxisMap(CyclicK(k), grid_axis=0),))


def _run_copy(vm, args) -> None:
    from ..distribution.section import RegularSection
    from ..runtime.exec import collect, distribute, execute_copy

    n = args.n
    a = _vector("A", n, vm.p, args.k_dst)
    b = _vector("B", n, vm.p, args.k_src)
    distribute(vm, a, np.zeros(n))
    distribute(vm, b, np.arange(n, dtype=float))
    sec = RegularSection(0, n - 1, 1)
    for _ in range(args.repeat):
        execute_copy(vm, a, sec, b, sec)
    collect(vm, a)


def _run_redistribute(vm, args) -> None:
    from ..runtime.exec import collect, distribute
    from ..runtime.redistribute import redistribute

    n = args.n
    src = _vector("S", n, vm.p, args.k_src)
    dst = _vector("D", n, vm.p, args.k_dst)
    distribute(vm, src, np.arange(n, dtype=float))
    distribute(vm, dst, np.zeros(n))
    for _ in range(args.repeat):
        redistribute(vm, dst, src)
    collect(vm, dst)


def _run_transpose(vm, args) -> None:
    from ..distribution.array import AxisMap, DistributedArray
    from ..distribution.dist import CyclicK, ProcessorGrid
    from ..runtime.exec import distribute, execute_transpose

    if vm.p != 4:
        raise SystemExit("transpose program needs --p 4 (a 2x2 grid)")
    n = max(8, int(np.sqrt(args.n)))
    grid = ProcessorGrid("G", (2, 2))
    maps = (
        AxisMap(CyclicK(args.k_src), grid_axis=0),
        AxisMap(CyclicK(args.k_src), grid_axis=1),
    )
    a = DistributedArray("A", (n, n), grid, maps)
    b = DistributedArray("B", (n, n), grid, maps)
    distribute(vm, a, np.zeros((n, n)))
    distribute(vm, b, np.arange(n * n, dtype=float).reshape(n, n))
    for _ in range(args.repeat):
        execute_transpose(vm, a, b)


def _run_fill(vm, args) -> None:
    from ..distribution.section import RegularSection
    from ..runtime.exec import distribute, execute_fill

    n = args.n
    a = _vector("A", n, vm.p, args.k_dst)
    distribute(vm, a, np.zeros(n))
    sec = (RegularSection(0, n - 1, 3),)
    for _ in range(args.repeat):
        execute_fill(vm, a, sec, 1.0)


def _run_resilient(vm, args) -> None:
    from ..machine.checkpoint import CheckpointPolicy, CheckpointStore
    from ..runtime.exec import collect, distribute
    from ..runtime.resilient import ExchangeFailure, redistribute_resilient

    n = args.n
    src = _vector("S", n, vm.p, args.k_src)
    dst = _vector("D", n, vm.p, args.k_dst)
    distribute(vm, src, np.arange(n, dtype=float))
    distribute(vm, dst, np.zeros(n))
    store = CheckpointStore(CheckpointPolicy(every=2, retention=4))
    try:
        stats, report = redistribute_resilient(
            vm, dst, src, checkpoints=store, auditor=True
        )
        print(
            f"resilient: converged in {report.supersteps} supersteps, "
            f"{report.retries} retransmits, "
            f"{report.chunks_repaired} chunks repaired",
            file=sys.stderr,
        )
    except ExchangeFailure as exc:
        print(f"resilient: {exc}", file=sys.stderr)
    collect(vm, dst)


PROGRAMS = {
    "copy": _run_copy,
    "redistribute": _run_redistribute,
    "transpose": _run_transpose,
    "fill": _run_fill,
    "resilient": _run_resilient,
}


def run_program(name: str, vm, args) -> None:
    """Run one named program on an (instrumented) machine."""
    with vm.obs.span("program", program=name):
        PROGRAMS[name](vm, args)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "programs", nargs="+", choices=sorted(PROGRAMS),
        help="programs to run, in order, on one machine",
    )
    parser.add_argument("--p", type=int, default=4, help="ranks (default 4)")
    parser.add_argument("--n", type=int, default=240, help="elements (default 240)")
    parser.add_argument("--k-src", type=int, default=3, help="source block size")
    parser.add_argument("--k-dst", type=int, default=7, help="dest block size")
    parser.add_argument("--repeat", type=int, default=2,
                        help="statement repetitions (shows plan-cache hits)")
    parser.add_argument("--seed", type=int, default=0, help="fault-plan seed")
    parser.add_argument("--drop", type=float, default=0.0)
    parser.add_argument("--duplicate", type=float, default=0.0)
    parser.add_argument("--corrupt", type=float, default=0.0)
    parser.add_argument("--scribble", type=float, default=0.0)
    parser.add_argument("--out", default="trace.json",
                        help="Chrome trace-event output path (default trace.json)")
    parser.add_argument("--jsonl", default=None,
                        help="also write a JSON-lines dump to this path")
    parser.add_argument("--summary", default=None, metavar="PATH",
                        help="also write the text summary ('-' for stdout)")
    parser.add_argument("--prom", default=None, metavar="PATH",
                        help="also dump the metrics registry as Prometheus "
                             "exposition text ('-' for stdout), the same "
                             "body a /metrics scrape would see")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the closing one-line report")
    args = parser.parse_args(argv)

    from ..machine.faults import FaultPlan
    from ..machine.vm import VirtualMachine

    plan = None
    if args.drop or args.duplicate or args.corrupt or args.scribble:
        plan = FaultPlan(
            seed=args.seed, drop=args.drop, duplicate=args.duplicate,
            corrupt=args.corrupt, scribble=args.scribble,
        )
    obs = Observability(enabled=True)
    previous = set_ambient(obs)
    try:
        for name in args.programs:
            # One machine per program, all reporting into the same
            # handle.  Only the resilient protocol survives an
            # adversarial interconnect, so the fault plan applies to it
            # alone.
            vm = VirtualMachine(
                args.p,
                fault_plan=plan if name == "resilient" else None,
                obs=obs,
            )
            run_program(name, vm, args)
    finally:
        set_ambient(previous)

    path = write_chrome_trace(obs, args.out)
    if args.jsonl:
        write_jsonl(obs, args.jsonl)
    if args.summary == "-":
        print(summary(obs))
    elif args.summary:
        write_summary(obs, args.summary)
    if args.prom:
        from .promexport import prometheus_text

        text = prometheus_text(obs.metrics.snapshot())
        if args.prom == "-":
            sys.stdout.write(text)
        else:
            with open(args.prom, "w", encoding="utf-8") as fh:
                fh.write(text)
    if not args.quiet:
        snap = obs.snapshot()
        print(
            f"wrote {path} ({snap['spans']} spans, "
            f"{snap['events']} machine events); "
            f"supersteps={obs.metrics.value('vm.supersteps')}"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    raise SystemExit(main())
