"""Digest of seeded verified exchanges, for "same behaviour" checks.

Replays the end-to-end ``resilient`` workload's exchanges (p = 8,
``S`` in CYCLIC(3) into eight layouts, the workload's fault plan,
checkpoints every two supersteps) with an explicit
:class:`~repro.machine.audit.IntegrityAuditor` per exchange, and prints
one sha256 per seed over every exchange's ``ResilienceReport``,
auditor verdicts and ``AuditStats``, collected image and the network's
``NetworkStats``.  Run it against two source trees and diff the output::

    PYTHONPATH=src python benchmarks/resilience_digest.py
    PYTHONPATH=../other/src python benchmarks/resilience_digest.py

Options: ``--seeds 0 7 11``, ``--exchanges 24``, ``--n 32768``.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

from programs import RESILIENT_DST_KS, resilient_source  # noqa: E402
from repro.lang import compile_program, parse_program  # noqa: E402
from repro.machine.audit import IntegrityAuditor  # noqa: E402
from repro.machine.checkpoint import CheckpointPolicy, CheckpointStore  # noqa: E402
from repro.machine.faults import FaultPlan  # noqa: E402
from repro.machine.iface import create_machine  # noqa: E402
from repro.runtime.exec import collect, distribute  # noqa: E402
from repro.runtime.resilient import ExchangeFailure, redistribute_resilient  # noqa: E402


def seed_digest(seed: int, exchanges: int, n: int) -> tuple[str, str]:
    """``(sha256, summary)`` of ``exchanges`` verified exchanges."""
    arrays = compile_program(parse_program(resilient_source(n))).arrays
    plan = FaultPlan(seed=seed, drop=0.05, duplicate=0.02, corrupt=0.02, scribble=0.01)
    vm = create_machine(8, fault_plan=plan)
    h = hashlib.sha256()
    totals = dict(divergences=0, repaired=0, failures=0)
    try:
        distribute(vm, arrays["S"], np.random.default_rng([seed, 4]).standard_normal(n))
        for k in RESILIENT_DST_KS:
            distribute(vm, arrays[f"D{k}"], np.zeros(n))
        store = CheckpointStore(CheckpointPolicy(every=2, retention=4))
        for e in range(exchanges):
            dst = arrays[f"D{RESILIENT_DST_KS[e % len(RESILIENT_DST_KS)]}"]
            auditor = IntegrityAuditor()
            try:
                _, report = redistribute_resilient(
                    vm, dst, arrays["S"], checkpoints=store, auditor=auditor
                )
            except ExchangeFailure as exc:
                report = exc.report
                totals["failures"] += 1
            report.flight_dump = report.trace_dump = None  # file paths
            totals["divergences"] += auditor.stats.divergences
            totals["repaired"] += report.chunks_repaired
            for part in (report, auditor.verdicts, auditor.stats, vm.network.stats):
                h.update(repr(part).encode())
            h.update(collect(vm, dst).tobytes())
    finally:
        vm.close()
    return h.hexdigest(), " ".join(f"{k}={v}" for k, v in totals.items())


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 7, 11])
    ap.add_argument("--exchanges", type=int, default=24)
    ap.add_argument("--n", type=int, default=32768)
    args = ap.parse_args(argv)
    for seed in args.seeds:
        digest, summary = seed_digest(seed, args.exchanges, args.n)
        print(f"seed {seed}: {digest} {summary}")


if __name__ == "__main__":
    main()
