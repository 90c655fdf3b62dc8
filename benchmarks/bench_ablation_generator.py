"""Ablation A2: materialized ΔM table vs table-free R/L cursor.

Section 6.2's time/space trade-off: the algorithm "can be modified to
return only vectors R and L, without storing any tables ... with only a
small penalty in the execution time."
"""

import numpy as np
import pytest

from repro.bench.nodecode import fill_shape_b, make_plan
from repro.bench.workloads import PAPER_P
from repro.core.counting import local_allocation_size, local_count
from repro.core.generator import RLCursor

K, S = 64, 9
RANK = PAPER_P // 2
ACCESSES = 10_000
UPPER = (ACCESSES * PAPER_P - 1) * S


@pytest.fixture(scope="module")
def workload():
    plan = make_plan(PAPER_P, K, 0, UPPER, S, RANK)
    memory = np.zeros(local_allocation_size(PAPER_P, K, UPPER + 1, RANK))
    count = local_count(PAPER_P, K, 0, UPPER, S, RANK)
    return plan, memory, count


@pytest.mark.benchmark(max_time=0.5, min_rounds=3)
def test_materialized_table(benchmark, workload):
    benchmark.group = "ablation-generator"
    plan, memory, _ = workload
    benchmark(fill_shape_b, memory, plan, 100.0)


@pytest.mark.benchmark(max_time=0.5, min_rounds=3)
def test_rl_cursor(benchmark, workload):
    benchmark.group = "ablation-generator"
    _, memory, count = workload

    def run():
        cursor = RLCursor(PAPER_P, K, 0, S, RANK)
        for _ in range(count):
            memory[cursor.local] = 100.0
            cursor.advance()

    benchmark(run)
