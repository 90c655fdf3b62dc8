"""Differential tests: cached, direct and oracle plans, compared exactly.

Each case is evaluated three ways -- through the plan cache
(:mod:`repro.runtime.plancache`), by the direct vectorized producer, and
by the independently coded oracle -- and the three results must be
identical.  The cases once reached these paths through the planning
service's ``plan``/``localize``/``schedule`` queries; they now call the
library directly, with no JSON layer in between.
"""

from __future__ import annotations

import json

import pytest

from repro.core.access import compute_access_table
from repro.core.baselines.naive import naive_access_table
from repro.distribution.align import Alignment
from repro.distribution.array import AxisMap, DistributedArray
from repro.distribution.dist import CyclicK, ProcessorGrid
from repro.distribution.localize import localized_arrays, localized_elements
from repro.distribution.section import RegularSection
from repro.oracle import compute_comm_schedule_reference
from repro.runtime.commsets import compute_comm_schedule
from repro.runtime.plancache import (
    cached_comm_schedule,
    cached_localized_arrays,
    clear_plan_caches,
)

PLAN_CASES = [
    {"p": 4, "k": 8, "l": 4, "s": 9, "m": 1},  # the paper's worked example
    {"p": 1, "k": 1, "l": 0, "s": 1, "m": 0},
    {"p": 3, "k": 5, "l": 2, "s": 7, "m": 2},
    {"p": 8, "k": 3, "l": 11, "s": 13, "m": 5},
    {"p": 2, "k": 16, "l": 0, "s": 31, "m": 1},
    {"p": 5, "k": 4, "l": 3, "s": 20, "m": 0},  # stride spanning full courses
]

LOCALIZE_CASES = [
    dict(p=4, k=8, extent=64, align_a=1, align_b=0, lower=0, upper=63, stride=3, rank=2),
    dict(p=2, k=4, extent=40, align_a=2, align_b=1, lower=3, upper=37, stride=5, rank=1),
    dict(p=3, k=5, extent=50, align_a=-1, align_b=49, lower=0, upper=49, stride=7, rank=0),
    dict(p=1, k=3, extent=20, align_a=1, align_b=0, lower=19, upper=0, stride=4, rank=0),
]

SCHEDULE_CASES = [
    {
        "n": 64, "p": 4,
        "lhs": {"k": 8, "align_a": 1, "align_b": 0, "lower": 0, "upper": 63, "stride": 1},
        "rhs": {"k": 4, "align_a": 1, "align_b": 0, "lower": 0, "upper": 63, "stride": 1},
    },
    {
        "n": 48, "p": 3,
        "lhs": {"k": 4, "align_a": 1, "align_b": 2, "lower": 1, "upper": 43, "stride": 3},
        "rhs": {"k": 6, "align_a": 1, "align_b": 0, "lower": 2, "upper": 44, "stride": 3},
    },
    {
        "n": 30, "p": 2,
        "lhs": {"k": 5, "align_a": 1, "align_b": 0, "lower": 0, "upper": 29, "stride": 2},
        "rhs": {"k": 3, "align_a": 1, "align_b": 1, "lower": 0, "upper": 28, "stride": 2},
    },
]


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_plan_caches()
    yield
    clear_plan_caches()


def plan_fields(table) -> tuple:
    return (table.start, table.length, table.gaps, table.index_gaps)


def plan_args(params: dict) -> tuple:
    return tuple(params[name] for name in ("p", "k", "l", "s", "m"))


def localize_args(params: dict) -> tuple:
    return (
        params["p"],
        params["k"],
        params["extent"],
        Alignment(params["align_a"], params["align_b"]),
        RegularSection(params["lower"], params["upper"], params["stride"]),
        params["rank"],
    )


def schedule_args(params: dict) -> tuple:
    n, p = params["n"], params["p"]
    grid = ProcessorGrid("G", (p,))

    def side(name: str, spec: dict):
        align = Alignment(spec.get("align_a", 1), spec.get("align_b", 0))
        array = DistributedArray(
            name, (n,), grid, (AxisMap(CyclicK(spec["k"]), align, grid_axis=0),)
        )
        return array, RegularSection(spec["lower"], spec["upper"], spec["stride"])

    lhs, sec_a = side("A", params["lhs"])
    rhs, sec_b = side("B", params["rhs"])
    return lhs, sec_a, rhs, sec_b


def schedule_fields(schedule) -> tuple:
    return (
        schedule.n_iterations,
        [t.astuples() for t in schedule.locals_],
        [t.astuples() for t in schedule.transfers],
    )


class TestDifferential:
    @pytest.mark.parametrize("params", PLAN_CASES)
    def test_plan_bit_identical(self, params):
        args = plan_args(params)
        assert plan_fields(compute_access_table(*args)) == plan_fields(
            naive_access_table(*args)
        )

    @pytest.mark.parametrize("params", LOCALIZE_CASES)
    def test_localize_bit_identical(self, params):
        args = localize_args(params)
        oracle = localized_elements(*args)
        want = ([i for i, _ in oracle], [s for _, s in oracle])
        for _ in range(2):  # a miss, then a hit on the stored vectors
            indices, slots = cached_localized_arrays(*args)
            assert (indices.tolist(), slots.tolist()) == want
        indices, slots = localized_arrays(*args)
        assert (indices.tolist(), slots.tolist()) == want

    @pytest.mark.parametrize("params", SCHEDULE_CASES)
    def test_schedule_bit_identical(self, params):
        args = schedule_args(params)
        oracle = schedule_fields(compute_comm_schedule_reference(*args))
        for _ in range(2):  # a miss, then a hit on the stored schedule
            assert schedule_fields(cached_comm_schedule(*args)) == oracle
        assert schedule_fields(compute_comm_schedule(*args)) == oracle

    def test_results_are_pure_json(self):
        # Plan fields and schedule tuples are plain Python ints: no NumPy
        # scalar leaks out of the vectorized producers.
        for params in PLAN_CASES[:2]:
            json.dumps(plan_fields(compute_access_table(*plan_args(params))))
        for params in LOCALIZE_CASES[:2]:
            indices, slots = cached_localized_arrays(*localize_args(params))
            json.dumps([indices.tolist(), slots.tolist()])
        for params in SCHEDULE_CASES[:1]:
            json.dumps(schedule_fields(cached_comm_schedule(*schedule_args(params))))


class TestValidation:
    # The ids keep the case numbering of the larger table these two
    # cases come from; the rest checked request fields that no longer
    # exist.
    @pytest.mark.parametrize(
        "op,params,match",
        [
            pytest.param(
                "localize",
                {"p": 2, "k": 2, "extent": 10, "align_a": 0, "align_b": 0,
                 "lower": 0, "upper": 9, "stride": 1, "rank": 0},
                "nonzero",
                id="localize-params6-nonzero",
            ),
            pytest.param(
                "schedule",
                {"n": 10, "p": 2,
                 "lhs": {"k": 2, "lower": 0, "upper": 9, "stride": 1},
                 "rhs": {"k": 2, "lower": 0, "upper": 4, "stride": 1}},
                "conformable",
                id="schedule-params8-conformable",
            ),
        ],
    )
    def test_bad_params_named(self, op, params, match):
        if op == "localize":
            paths = (cached_localized_arrays, localized_arrays, localized_elements)
            build = localize_args
        else:
            paths = (cached_comm_schedule, compute_comm_schedule,
                     compute_comm_schedule_reference)
            build = schedule_args
        for path in paths:
            with pytest.raises(ValueError, match=match):
                path(*build(params))
