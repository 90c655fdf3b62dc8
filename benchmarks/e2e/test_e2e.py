"""Self-tests of the end-to-end benchmark.

Run from the repository root with ``PYTHONPATH=src pytest benchmarks/e2e``.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from compare import verdict
from layers import Tracer, WRAPPED, percentile, self_times
from programs import SWEEP_N, sweep_sources
from repro.lang import compile_program, parse_program
from repro.obs import Observability
from repro.obs.spans import SpanRecord

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def test_same_seed_gives_identical_sources():
    assert sweep_sources(7, 70) == sweep_sources(7, 70)
    assert sweep_sources(7, 70) != sweep_sources(8, 70)


@pytest.mark.parametrize("seed", [0, 1])
def test_sweep_programs_compile_in_bounds(seed):
    programs = sweep_sources(seed, 130)
    assert len({source for _, source in programs}) == len(programs)
    for n, source in programs:
        assert SWEEP_N[0] <= n < SWEEP_N[1]
        compiled = compile_program(parse_program(source))  # raises when out of bounds
        assert {a.shape for a in compiled.arrays.values()} == {(n,)}
        assert len(compiled.statements) == 12


def span(name, ts, dur, depth):
    return SpanRecord(name, None, ts, dur, depth)


def test_self_time_subtracts_direct_children_only():
    # root [0, 100) holds a [10, 40) -- which holds b [15, 25) -- and
    # c [50, 60); then a second root [200, 230) with child d [205, 215).
    records = [
        span("b", 15, 10, 2),
        span("a", 10, 30, 1),
        SpanRecord("mark", None, 55, None, 2),  # instants carry no time
        span("c", 50, 10, 1),
        span("root", 0, 100, 0),
        span("d", 205, 10, 1),
        span("root", 200, 30, 0),
    ]
    got = [(r.name, own) for r, own in self_times(records)]
    assert got == [("b", 10), ("a", 20), ("c", 10), ("root", 60), ("d", 10), ("root", 20)]


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([3.0], 90) == 3.0


def test_wrappers_are_restored_after_the_traced_pass():
    import importlib

    originals = {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _ in WRAPPED
    }
    tracer = Tracer(Observability(enabled=True))
    with tracer.instrumented():
        for (module, attr), fn in originals.items():
            assert getattr(importlib.import_module(module), attr) is not fn
        # Copies bound by ``from ... import`` elsewhere are swapped too.
        from repro.lang import compiler
        from repro.runtime import exec as executors

        assert compiler.cached_comm_schedule.__wrapped__ is originals[
            ("repro.runtime.plancache", "cached_comm_schedule")]
        assert executors.cached_array_plan.__wrapped__ is originals[
            ("repro.runtime.plancache", "cached_array_plan")]
    for (module, attr), fn in originals.items():
        assert getattr(importlib.import_module(module), attr) is fn
    wrapped = set(originals.values())
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in vars(module).items():
                if callable(value) and getattr(value, "__wrapped__", None) in wrapped:
                    pytest.fail(f"{name}.{attr} is still a benchmark wrapper")


def test_verdicts():
    base = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert verdict(base, [1.20, 1.21, 1.19, 1.22, 1.20], 0.10, True) == "worse"
    assert verdict(base, [1.20, 1.21, 1.19, 1.22, 1.20], 0.10, False) == "better"
    assert verdict(base, [1.03, 1.01, 1.02, 1.00, 1.04], 0.10, True) == "unchanged"
    noisy = [0.5, 1.5, 1.0, 0.7, 1.4]
    assert verdict(base, noisy, 0.10, True) == "unresolved"
    # Wide spread, but every new run beats every base run.
    assert verdict([2.0, 3.0, 2.5, 2.2], [1.0, 1.5, 1.2, 1.1], 0.10, True) == "better"


def test_quick_run_emits_the_declared_metrics(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "quick.json"
    began = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--trace", "0", "1",
         "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120,
    )
    elapsed = time.monotonic() - began
    assert proc.returncode == 0, proc.stdout
    assert elapsed <= 60, f"--quick took {elapsed:.1f} s"
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    results = json.loads(out.read_text())["results"]
    assert {(r["workload"], r["trace"]) for r in results} == {
        (w, t) for w in ("jacobi", "layout-sweep", "transpose-mp", "resilient")
        for t in (0, 1)
    }
    for entry in results:
        kind = "per_layer" if entry["trace"] else "end_to_end"
        assert set(entry["metrics"]) == {m["name"] for m in spec[kind]}
        assert entry["failed"] == 0 and not entry["problems"]
        assert entry["native_mode"] in ("auto", "on", "off")
