"""Table 2: node-code shapes 8(a)-(d) + vectorized ablation (Section 6.2).

One benchmark per (shape, k, s) cell; every shape performs ~10,000
strided assignments into one rank's local memory, with the upper bound
scaled to the stride exactly as in the paper.
"""

import numpy as np
import pytest

from repro.bench.nodecode import SHAPES
from repro.bench.workloads import table2_cases
from repro.core.counting import local_allocation_size
from repro.runtime.address import make_plan

CASES = table2_cases()
IDS = [f"k{c.k}-s{c.s}" for c in CASES]

_prepared = {}


def _get(case):
    key = (case.k, case.s)
    if key not in _prepared:
        rank = case.p // 2
        plan = make_plan(case.p, case.k, case.l, case.upper, case.s, rank)
        memory = np.zeros(local_allocation_size(case.p, case.k, case.upper + 1, rank))
        _prepared[key] = (plan, memory)
    return _prepared[key]


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("case", CASES, ids=IDS)
@pytest.mark.benchmark(max_time=0.3, min_rounds=3)
def test_node_code(benchmark, case, shape):
    benchmark.group = f"table2 k={case.k} s={case.s}"
    plan, memory = _get(case)
    fn = SHAPES[shape]
    written = benchmark(fn, memory, plan, 100.0)
    # ~10,000 per processor, exact up to ownership rounding.
    assert abs(written - case.accesses_per_proc) <= case.k
