"""Runtime-level benchmarks: alignment localization, communication-set
generation, and whole-statement execution on the virtual machine.

Not tables from the paper -- these measure the surrounding system the
paper's algorithm is designed to serve (schedule construction cost,
two-application alignment overhead, end-to-end statement cost), so the
reproduction's claims about "suitable for inclusion in compilers and
run-time systems" can be judged.
"""

import numpy as np
import pytest

from repro.bench.workloads import PAPER_P
from repro.distribution.align import Alignment
from repro.distribution.array import AxisMap, DistributedArray
from repro.distribution.dist import CyclicK, ProcessorGrid
from repro.distribution.localize import localize_section
from repro.distribution.section import RegularSection
from repro.machine.vm import VirtualMachine
from repro.runtime.commsets import compute_comm_schedule
from repro.runtime.exec import distribute, execute_copy, execute_fill


def _array(name, n, p, k, a=1, b=0, textent=None):
    grid = ProcessorGrid("P", (p,))
    return DistributedArray(
        name, (n,), grid,
        (AxisMap(CyclicK(k), Alignment(a, b), grid_axis=0, template_extent=textent),),
    )


@pytest.mark.parametrize("alignment", ["identity", "affine"])
@pytest.mark.benchmark(max_time=0.3, min_rounds=3)
def test_localize_section(benchmark, alignment):
    """Two-application scheme vs plain identity localization."""
    benchmark.group = "runtime-localize"
    a, b = (1, 0) if alignment == "identity" else (3, 2)
    align = Alignment(a, b)
    sec = RegularSection(0, 9999, 7)
    benchmark(localize_section, PAPER_P, 16, 10_000, align, sec, PAPER_P // 2)


@pytest.mark.parametrize("kb", [4, 8])
@pytest.mark.benchmark(max_time=0.5, min_rounds=3)
def test_comm_schedule(benchmark, kb):
    """Communication-set generation for a block-size-changing copy."""
    benchmark.group = "runtime-commsets"
    p, n = 8, 4096
    a = _array("A", n, p, 16)
    b = _array("B", n, p, kb)
    sec = RegularSection(0, n - 1, 3)
    sched = benchmark(compute_comm_schedule, a, sec, b, sec)
    assert sched.total_elements == len(sec)


@pytest.mark.benchmark(max_time=0.5, min_rounds=3)
def test_statement_fill(benchmark):
    """Whole A(l:u:s) = scalar statement on an 8-rank machine."""
    benchmark.group = "runtime-fill"
    p, n = 8, 65_536
    arr = _array("A", n, p, 16)
    vm = VirtualMachine(p)
    distribute(vm, arr, np.zeros(n))
    sec = RegularSection(3, n - 1, 7)
    written = benchmark(execute_fill, vm, arr, (sec,), 1.0)
    assert written == len(sec)


@pytest.mark.benchmark(max_time=0.5, min_rounds=3)
def test_statement_copy(benchmark):
    """Whole A(sec) = B(sec) statement including pack/exchange/unpack."""
    benchmark.group = "runtime-copy"
    p, n = 8, 16_384
    a = _array("A", n, p, 16)
    b = _array("B", n, p, 4)
    vm = VirtualMachine(p)
    distribute(vm, a, np.zeros(n))
    distribute(vm, b, np.arange(n, dtype=float))
    sec_a = RegularSection(0, n - 2, 3)
    sec_b = RegularSection(1, n - 1, 3)
    sched = compute_comm_schedule(a, sec_a, b, sec_b)
    benchmark(execute_copy, vm, a, sec_a, b, sec_b, sched)


@pytest.mark.parametrize("k", [1, 4, 16])
@pytest.mark.benchmark(max_time=0.5, min_rounds=3)
def test_transpose(benchmark, k):
    """Distributed transpose on a 2x2 grid (plan reused, execution timed)."""
    from repro.runtime.commsets2d import compute_comm_schedule_2d
    from repro.runtime.exec import execute_transpose

    benchmark.group = f"runtime-transpose k={k}"
    n = 128
    grid = ProcessorGrid("G", (2, 2))
    a = DistributedArray(
        "TA", (n, n), grid,
        (AxisMap(CyclicK(k), grid_axis=0), AxisMap(CyclicK(k), grid_axis=1)),
    )
    b = DistributedArray(
        "TB", (n, n), grid,
        (AxisMap(CyclicK(k), grid_axis=0), AxisMap(CyclicK(k), grid_axis=1)),
    )
    sec = (RegularSection(0, n - 1, 1), RegularSection(0, n - 1, 1))
    schedule = compute_comm_schedule_2d(a, sec, b, sec, rhs_dims=(1, 0))
    vm = VirtualMachine(4)
    distribute(vm, a, np.zeros((n, n)))
    distribute(vm, b, np.arange(n * n, dtype=float).reshape(n, n))
    benchmark(execute_transpose, vm, a, b, schedule)
