"""The four end-to-end workloads, and the process that measures one.

Run by ``run.py`` in a fresh interpreter per pass::

    python3 benchmarks/e2e/workloads.py --workload jacobi --seed 0 \\
        --seconds 15 [--quick] [--traced]

It prints one JSON summary as its last line of standard output.

Each workload is a closed loop driven from this process's single
thread.  A *round* is the whole workload once, from program text to
collected images, starting from empty plan caches as a fresh compiler
process would; the process repeats rounds until ``--seconds`` have
passed (at least :data:`MIN_ROUNDS`).  Rounds are identical: every
input, program and fault decision is a function of the seed.  Every
collected image is checked bit for bit against an oracle that does not
use the distributed machinery.

Each round times its work slot by slot (one program's compile, one
statement execution, ...), and the summary keeps every slot's fastest
time over the rounds; ``run.py`` turns those into the end-to-end
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import NullTracer, Tracer  # noqa: E402
from programs import (  # noqa: E402
    RESILIENT_DST_KS,
    jacobi_source,
    resilient_source,
    sweep_sources,
    transpose_source,
)
from repro.lang import compile_program, parse_program  # noqa: E402
from repro.lang.reference import ReferenceInterpreter  # noqa: E402
from repro.machine.checkpoint import CheckpointPolicy, CheckpointStore  # noqa: E402
from repro.machine.faults import FaultPlan  # noqa: E402
from repro.machine.iface import create_machine  # noqa: E402
from repro.obs import Observability, set_ambient  # noqa: E402
from repro.runtime.exec import collect, distribute  # noqa: E402
from repro.runtime.native import native_mode  # noqa: E402
from repro.runtime.plancache import clear_plan_caches  # noqa: E402
from repro.runtime.redistribute import plan_redistribution  # noqa: E402
from repro.runtime.resilient import redistribute_resilient  # noqa: E402

MIN_ROUNDS = 3
#: The timed phases of a round, each a list of per-slot times.
PHASES = ("compile", "setup", "run", "collect")
clock = time.perf_counter


@dataclass
class RoundRecord:
    """What one round measured, in seconds, slot by slot: the i-th entry
    of a phase times the same piece of work in every round of a run
    (one program's compile, one statement execution, ...)."""

    wall: list[float] = field(default_factory=list)
    compile: list[float] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    run: list[float] = field(default_factory=list)
    collect: list[float] = field(default_factory=list)
    elements: int = 0
    attempted: int = 0
    failed: int = 0

    def operation(self, obs, fn, *args):
        """Run one operation as a timed ``stmt``; ``None`` if it raised."""
        self.attempted += 1
        began = clock()
        try:
            with obs.span("stmt"):
                result = fn(*args)
        except Exception:  # a failed operation is a result, not a crash
            if not self.failed:
                traceback.print_exc()
            self.failed += 1
            result = None
        self.run.append(clock() - began)
        return result

    def check(self, got: np.ndarray, expected: bytes) -> None:
        """One image check: bit-identical to the oracle's digest."""
        self.attempted += 1
        if digest(got) != expected:
            self.failed += 1


def digest(image: np.ndarray) -> bytes:
    return hashlib.sha256(np.ascontiguousarray(image).tobytes()).digest()


def reference_digests(source: str, inputs: dict, passes: int) -> dict[str, bytes]:
    """Images of ``source`` after ``passes`` passes of the sequential
    reference interpreter, as digests."""
    interp = ReferenceInterpreter(parse_program(source))
    for name, values in inputs.items():
        interp.set_array(name, values)
    for _ in range(passes):
        images = interp.run()
    return {name: digest(image) for name, image in images.items()}


def run_program(rec, obs, tracer, source, backend, inputs, passes) -> dict:
    """Parse, compile, boot, distribute, run ``passes`` passes over the
    statements, and collect every array; returns the host images."""
    paused = tracer.paused_s
    start = clock()
    with obs.span("lang.parse"):
        program = parse_program(source)
    with obs.span("lang.compile"):
        compiled = compile_program(program)
    compiled_at = clock()
    with obs.span("machine.boot"):
        vm = create_machine(compiled.nprocs, backend, obs=obs)
    try:
        for name, array in compiled.arrays.items():
            distribute(vm, array, inputs[name])
        ready = clock()
        for _ in range(passes):
            for stmt in compiled.statements:
                rec.elements += rec.operation(obs, stmt.run, vm) or 0
            tracer.drain()
        ran = clock()
        images = {name: collect(vm, array) for name, array in compiled.arrays.items()}
        done = clock()
    finally:
        vm.close()
    rec.compile.append(compiled_at - start)
    rec.setup.append(ready - compiled_at)
    rec.collect.append(done - ran)
    rec.wall.append(done - start - (tracer.paused_s - paused))
    tracer.note("lang.statements", len(compiled.statements))
    return images


class Jacobi:
    """In-process, P(4), CYCLIC(8): one compiled program replayed for
    many passes -- the paper's Section 6.1 case of compile-time
    schedules reused forever."""

    def __init__(self, seed: int, quick: bool) -> None:
        n = 131072
        self.passes = 12 if quick else 150
        self.source = jacobi_source(n)
        rng = np.random.default_rng([seed, 1])
        self.inputs = {"A": rng.standard_normal(n), "B": rng.standard_normal(n)}
        self.expected = reference_digests(self.source, self.inputs, self.passes)

    def run_round(self, rec, obs, tracer) -> None:
        images = run_program(
            rec, obs, tracer, self.source, "inprocess", self.inputs, self.passes
        )
        for name, image in images.items():
            rec.check(image, self.expected[name])


class LayoutSweep:
    """In-process, many distinct seeded programs each compiled, run
    once, collected and checked: the paper's algorithm over many
    (p, k, l, s) combinations, with almost no plan-cache reuse."""

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.programs = sweep_sources(seed, 13 if quick else 130)
        self.expected: dict[int, dict[str, bytes]] = {}

    def _inputs(self, index: int, n: int) -> dict:
        rng = np.random.default_rng([self.seed, 2, index])
        return {"A": rng.standard_normal(n), "B": rng.standard_normal(n)}

    def run_round(self, rec, obs, tracer) -> None:
        for index, (n, source) in enumerate(self.programs):
            inputs = self._inputs(index, n)
            if index not in self.expected:
                self.expected[index] = reference_digests(source, inputs, 1)
            images = run_program(rec, obs, tracer, source, "inprocess", inputs, 1)
            for name, image in images.items():
                rec.check(image, self.expected[index][name])


class TransposeMp:
    """Two real worker processes on P(2, 1): ``Q = TRANSPOSE(M)`` and
    back, megabytes per superstep over shared-memory arenas and framed
    sockets."""

    def __init__(self, seed: int, quick: bool) -> None:
        n = 192 if quick else 768
        self.passes = 4 if quick else 20
        self.source = transpose_source(n)
        rng = np.random.default_rng([seed, 3])
        self.inputs = {"M": rng.standard_normal((n, n)), "Q": rng.standard_normal((n, n))}
        self.expected = reference_digests(self.source, self.inputs, self.passes)

    def run_round(self, rec, obs, tracer) -> None:
        images = run_program(
            rec, obs, tracer, self.source, "mp", self.inputs, self.passes
        )
        for name, image in images.items():
            rec.check(image, self.expected[name])


class Resilient:
    """In-process, p = 8: acknowledged exchanges from CYCLIC(3) into
    eight layouts over a seeded lossy, corrupting network, with
    checkpoints and the integrity auditor on."""

    def __init__(self, seed: int, quick: bool) -> None:
        self.n = 4096 if quick else 32768
        self.exchanges = 8 if quick else 24
        self.seed = seed
        self.source = resilient_source(self.n)
        self.host = np.random.default_rng([seed, 4]).standard_normal(self.n)
        self.expected = digest(self.host)

    def run_round(self, rec, obs, tracer) -> None:
        paused = tracer.paused_s
        start = clock()
        with obs.span("lang.parse"):
            program = parse_program(self.source)
        with obs.span("lang.compile"):
            arrays = compile_program(program).arrays
            schedules = {
                k: plan_redistribution(arrays[f"D{k}"], arrays["S"])[0]
                for k in RESILIENT_DST_KS
            }
        compiled_at = clock()
        plan = FaultPlan(
            seed=self.seed, drop=0.05, duplicate=0.02, corrupt=0.02, scribble=0.01
        )
        with obs.span("machine.boot"):
            vm = create_machine(8, fault_plan=plan, obs=obs)
        try:
            distribute(vm, arrays["S"], self.host)
            for k in RESILIENT_DST_KS:
                distribute(vm, arrays[f"D{k}"], np.zeros(self.n))
            store = CheckpointStore(CheckpointPolicy(every=2, retention=4))
            ready = clock()
            images = []
            for e in range(self.exchanges):
                k = RESILIENT_DST_KS[e % len(RESILIENT_DST_KS)]
                dst = arrays[f"D{k}"]
                result = rec.operation(
                    obs, lambda: redistribute_resilient(
                        vm, dst, arrays["S"], schedule=schedules[k],
                        checkpoints=store, auditor=True,
                    )
                )
                if result is not None:
                    stats, report = result
                    rec.elements += stats.elements
                    tracer.note("resilient.retransmitted_bytes", report.retransmitted_bytes)
                began = clock()
                images.append(collect(vm, dst))
                rec.collect.append(clock() - began)
                tracer.drain()
            done = clock()
        finally:
            vm.close()
        rec.compile.append(compiled_at - start)
        rec.setup.append(ready - compiled_at)
        rec.wall.append(done - start - (tracer.paused_s - paused))
        for image in images:
            rec.check(image, self.expected)


WORKLOADS = {
    "jacobi": Jacobi,
    "layout-sweep": LayoutSweep,
    "transpose-mp": TransposeMp,
    "resilient": Resilient,
}


def peak_rss_mb() -> float:
    """Max RSS of this process plus its largest reaped child (the mp
    workers), in MiB (``ru_maxrss`` is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def measure(name: str, seed: int, seconds: float, quick: bool, traced: bool) -> dict:
    """Run ``name`` for ``seconds`` (at least :data:`MIN_ROUNDS` rounds)
    and summarize it."""
    workload = WORKLOADS[name](seed, quick)
    obs = Observability(enabled=traced)
    tracer = Tracer(obs) if traced else NullTracer()
    previous = set_ambient(obs if traced else None)
    rounds: list[RoundRecord] = []
    try:
        with tracer.instrumented():
            began = clock()
            while len(rounds) < MIN_ROUNDS or clock() - began < seconds:
                clear_plan_caches()
                tracer.start_round()
                rec = RoundRecord()
                workload.run_round(rec, obs, tracer)
                tracer.end_round(sum(rec.wall))
                rounds.append(rec)
    finally:
        set_ambient(previous)

    summary = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "native_mode": native_mode(),
        "rounds": len(rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "stmt_samples": sum(len(r.run) for r in rounds),
        "elements": rounds[0].elements,
        "peak_rss_mb": peak_rss_mb(),
        "best": {
            phase: np.min([getattr(r, phase) for r in rounds], axis=0).tolist()
            for phase in PHASES
        },
    }
    if traced:
        summary["layers"] = tracer.summary()
    return summary


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    summary = measure(args.workload, args.seed, args.seconds, args.quick, args.traced)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
