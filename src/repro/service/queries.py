"""Query evaluators: the pure functions the planning service serves.

Three data-plane operations, each a pure function of small layout
descriptors (which is what makes them ideal service material -- ROADMAP
item 3):

* ``plan``     -- the paper's ΔM access table for ``(p, k, l, s, m)``;
* ``localize`` -- the localized (indices, slots) vectors of a section
  under an affine alignment on one rank;
* ``schedule`` -- the full communication schedule of a 1-D
  array-assignment statement between two cyclic(k) layouts.

Each op has two implementations with identical JSON results:

* :func:`evaluate` -- the production path (O(k) tables, vectorized
  kernels, plan caches);
* :func:`reference` -- the scalar/naive oracle path (brute-force
  enumeration, element-at-a-time schedules), used by the degradation
  ladder when a shard's circuit breaker is open and by the differential
  tests as ground truth.

Results contain only JSON integers/lists, so "bit-identical" is exact:
two responses agree iff their canonical JSON encodings are equal bytes.
Parameter validation raises :class:`~repro.service.protocol.RequestError`
with the offending field named; size caps keep a single hostile or
confused query from tying up a compute slot for minutes.
"""

from __future__ import annotations

from ..core.access import compute_access_table
from ..core.baselines.naive import naive_access_table
from ..distribution import (
    Alignment,
    AxisMap,
    CyclicK,
    DistributedArray,
    ProcessorGrid,
    RegularSection,
)
from ..distribution.localize import localized_elements
from ..oracle import compute_comm_schedule_reference
from ..runtime.commsets import compute_comm_schedule
from ..runtime.plancache import cached_comm_schedule, cached_localized_arrays
from .protocol import RequestError

__all__ = ["QUERY_OPS", "evaluate", "reference"]

#: Size caps: generous for real layouts, tight enough that even the
#: brute-force reference path finishes within a sane deadline.
MAX_P = 1 << 14
MAX_K = 1 << 18
MAX_PK = 1 << 20
MAX_EXTENT = 1 << 20
MAX_SCHEDULE_N = 1 << 16
MAX_ALIGN = 1 << 16


def _int_param(params: dict, name: str, lo: int | None = None, hi: int | None = None):
    if name not in params:
        raise RequestError(f"missing required parameter {name!r}")
    value = params[name]
    if not isinstance(value, int) or isinstance(value, bool):
        raise RequestError(f"parameter {name!r} must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise RequestError(f"parameter {name!r} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise RequestError(f"parameter {name!r} must be <= {hi}, got {value}")
    return value


def _check_fields(params: dict, allowed: set[str], where: str) -> None:
    unknown = set(params) - allowed
    if unknown:
        raise RequestError(f"unknown {where} parameters {sorted(unknown)}")


# ---------------------------------------------------------------------------
# plan: the paper's access table
# ---------------------------------------------------------------------------


def _plan_params(params: dict) -> tuple[int, int, int, int, int]:
    _check_fields(params, {"p", "k", "l", "s", "m"}, "plan")
    p = _int_param(params, "p", 1, MAX_P)
    k = _int_param(params, "k", 1, MAX_K)
    if p * k > MAX_PK:
        raise RequestError(f"p*k must be <= {MAX_PK}, got {p * k}")
    l = _int_param(params, "l", 0, MAX_EXTENT)
    s = _int_param(params, "s", 1, MAX_EXTENT)
    m = _int_param(params, "m", 0, p - 1)
    return p, k, l, s, m


def _plan_result(table) -> dict:
    return {
        "start": table.start,
        "length": table.length,
        "gaps": [int(g) for g in table.gaps],
        "index_gaps": [int(g) for g in table.index_gaps],
    }


def _eval_plan(params: dict) -> dict:
    return _plan_result(compute_access_table(*_plan_params(params)))


def _ref_plan(params: dict) -> dict:
    return _plan_result(naive_access_table(*_plan_params(params)))


# ---------------------------------------------------------------------------
# localize: section index/slot vectors under affine alignment
# ---------------------------------------------------------------------------


def _localize_params(params: dict):
    _check_fields(
        params,
        {"p", "k", "extent", "align_a", "align_b", "lower", "upper", "stride", "rank"},
        "localize",
    )
    p = _int_param(params, "p", 1, MAX_P)
    k = _int_param(params, "k", 1, MAX_K)
    if p * k > MAX_PK:
        raise RequestError(f"p*k must be <= {MAX_PK}, got {p * k}")
    extent = _int_param(params, "extent", 1, MAX_EXTENT)
    a = _int_param(params, "align_a", -MAX_ALIGN, MAX_ALIGN)
    if a == 0:
        raise RequestError("parameter 'align_a' must be nonzero")
    b = _int_param(params, "align_b", -MAX_ALIGN, MAX_ALIGN)
    lower = _int_param(params, "lower", 0, extent - 1)
    upper = _int_param(params, "upper", 0, extent - 1)
    stride = _int_param(params, "stride", 1, MAX_EXTENT)
    rank = _int_param(params, "rank", 0, p - 1)
    return p, k, extent, Alignment(a, b), RegularSection(lower, upper, stride), rank


def _eval_localize(params: dict) -> dict:
    p, k, extent, align, section, rank = _localize_params(params)
    indices, slots = cached_localized_arrays(p, k, extent, align, section, rank)
    return {"indices": [int(i) for i in indices], "slots": [int(s) for s in slots]}


def _ref_localize(params: dict) -> dict:
    p, k, extent, align, section, rank = _localize_params(params)
    pairs = localized_elements(p, k, extent, align, section, rank)
    return {"indices": [int(i) for i, _ in pairs], "slots": [int(s) for _, s in pairs]}


# ---------------------------------------------------------------------------
# schedule: 1-D statement communication schedules
# ---------------------------------------------------------------------------


def _side_params(params: dict, side: str, p: int, n: int):
    spec = params.get(side)
    if not isinstance(spec, dict):
        raise RequestError(f"parameter {side!r} must be an object describing one side")
    _check_fields(
        spec, {"k", "align_a", "align_b", "lower", "upper", "stride"}, side
    )
    k = _int_param(spec, "k", 1, MAX_K)
    if p * k > MAX_PK:
        raise RequestError(f"{side}: p*k must be <= {MAX_PK}, got {p * k}")
    a = _int_param(spec, "align_a", -MAX_ALIGN, MAX_ALIGN) if "align_a" in spec else 1
    if a == 0:
        raise RequestError(f"{side}: 'align_a' must be nonzero")
    b = _int_param(spec, "align_b", -MAX_ALIGN, MAX_ALIGN) if "align_b" in spec else 0
    lower = _int_param(spec, "lower", 0, n - 1)
    upper = _int_param(spec, "upper", 0, n - 1)
    stride = _int_param(spec, "stride", 1, MAX_SCHEDULE_N)
    return k, Alignment(a, b), RegularSection(lower, upper, stride)


def _schedule_arrays(params: dict):
    _check_fields(params, {"n", "p", "lhs", "rhs"}, "schedule")
    n = _int_param(params, "n", 1, MAX_SCHEDULE_N)
    p = _int_param(params, "p", 1, MAX_P)
    k_a, align_a, sec_a = _side_params(params, "lhs", p, n)
    k_b, align_b, sec_b = _side_params(params, "rhs", p, n)
    if len(sec_a) != len(sec_b):
        raise RequestError(
            f"sections are not conformable: lhs has {len(sec_a)} elements, "
            f"rhs has {len(sec_b)}"
        )
    grid = ProcessorGrid("G", (p,))
    lhs = DistributedArray(
        "A", (n,), grid, (AxisMap(CyclicK(k_a), align_a, grid_axis=0),)
    )
    rhs = DistributedArray(
        "B", (n,), grid, (AxisMap(CyclicK(k_b), align_b, grid_axis=0),)
    )
    return lhs, sec_a, rhs, sec_b


def _schedule_result(schedule) -> dict:
    return {
        "n_iterations": schedule.n_iterations,
        "locals": [list(t.astuples()) for t in schedule.locals_],
        "transfers": [list(t.astuples()) for t in schedule.transfers],
    }


def _eval_schedule(params: dict, use_cache: bool = True) -> dict:
    lhs, sec_a, rhs, sec_b = _schedule_arrays(params)
    if use_cache:
        schedule = cached_comm_schedule(lhs, sec_a, rhs, sec_b)
    else:
        schedule = compute_comm_schedule(lhs, sec_a, rhs, sec_b)
    return _schedule_result(schedule)


def _ref_schedule(params: dict) -> dict:
    lhs, sec_a, rhs, sec_b = _schedule_arrays(params)
    return _schedule_result(compute_comm_schedule_reference(lhs, sec_a, rhs, sec_b))


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

QUERY_OPS = ("plan", "localize", "schedule")


def evaluate(op: str, params: dict, use_cache: bool = True) -> dict:
    """Production-path evaluation.  ``use_cache=False`` bypasses the
    plan caches (the differential tests' "direct computation").

    ``plan`` results are never plan-cache mediated (the table build is
    already O(k)); the service's own result cache sits above this.
    """
    if op == "plan":
        return _eval_plan(params)
    if op == "localize":
        if use_cache:
            return _eval_localize(params)
        p, k, extent, align, section, rank = _localize_params(params)
        from ..distribution.localize import localized_arrays

        indices, slots = localized_arrays(p, k, extent, align, section, rank)
        return {
            "indices": [int(i) for i in indices],
            "slots": [int(s) for s in slots],
        }
    if op == "schedule":
        return _eval_schedule(params, use_cache=use_cache)
    raise RequestError(f"unknown query op {op!r}")


def reference(op: str, params: dict) -> dict:
    """Scalar/naive oracle evaluation -- slower, independently coded,
    bit-identical results."""
    if op == "plan":
        return _ref_plan(params)
    if op == "localize":
        return _ref_localize(params)
    if op == "schedule":
        return _ref_schedule(params)
    raise RequestError(f"unknown query op {op!r}")
