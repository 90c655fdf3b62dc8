"""The four node-code shapes of Figure 8 -- the Table 2 experiment subjects.

After the ΔM table is constructed, each processor traverses its local
memory with one of these loops (the paper's C fragments correspond to
``A(l:u:s) = value``):

* **shape (a)** -- cycle the table index with an explicit ``mod``
  (given "for conceptual reasons" in Chatterjee et al.; by far the
  slowest measured shape in Table 2);
* **shape (b)** -- replace ``mod`` with a compare-and-reset;
* **shape (c)** -- a ``for`` loop over the table inside an infinite
  loop, exiting with ``goto done`` (better scheduling in the paper's
  icc build);
* **shape (d)** -- two-table lookup indexed by local offset
  (``deltaM`` + ``NextOffset``), the fastest of the four in Table 2;
* **shape (v)** -- our NumPy-vectorized ablation (A4): materialize all
  local addresses with a cumulative sum of the tiled gap table and
  assign in one fancy-indexing store, as
  :func:`repro.runtime.exec.execute_fill` stores (its addresses come
  from the all-ranks period tables, not a ΔM table).

Each shape exists three ways here, all writing the same addresses:

* interpreted Python (:data:`SHAPES`), timed by :mod:`repro.bench.table2`;
* table-driven C with the ΔM tables passed at run time
  (:func:`compiled_shapes`, the paper's Section 6.1 "runtime
  constructor" scenario), benched by ``benchmarks/bench_kernels.py``;
* C specialized to one plan, its tables embedded as static
  initializers (:func:`emit_node_code` and the harnesses around it),
  timed natively by :mod:`repro.bench.table2_c`.

The shapes walk a :class:`NodePlan` (from :func:`make_plan`): the
visit-order ΔM table plus what only node code reads -- the last local
address the loops compare against and the shape-(d) offset-indexed
tables of :func:`repro.core.compute_offset_tables`.  Shape (v) also takes
an :class:`AccessPlan` (from :func:`make_array_plan`): one dimension of a
:class:`~repro.distribution.array.DistributedArray` under any alignment,
its ΔM table from the two-application scheme of
:func:`~repro.distribution.localize.localize_section`.  The runtime's
fills read the all-ranks period tables instead
(:mod:`repro.runtime.address`).

Every fill assigns ``value`` to each element the plan covers and returns
the number of elements written.  The Python shapes accept a NumPy array,
a Python list, or a :class:`repro.machine.TracingMemory`; the compiled
ones a C-contiguous float64 array.  Compiled artifacts go through the
hashed ``.so`` cache of :mod:`repro.runtime.native.build`.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.access import compute_access_table
from ..core.counting import last_location, local_count
from ..core.kernels import expand_table
from ..core.offsets import compute_offset_tables
from ..distribution.array import DistributedArray
from ..distribution.layout import CyclicLayout
from ..distribution.localize import bounded_count, localize_section
from ..distribution.section import RegularSection
from ..runtime.native.build import load_library

__all__ = [
    "NodePlan",
    "make_plan",
    "AccessPlan",
    "make_array_plan",
    "materialize_addresses",
    "fill_shape_a",
    "fill_shape_b",
    "fill_shape_c",
    "fill_shape_d",
    "fill_vectorized",
    "SHAPES",
    "compiled_shapes",
    "emit_node_code",
    "emit_harness",
    "emit_timing_harness",
    "emit_timing_library",
]


@dataclass(frozen=True, slots=True)
class NodePlan:
    """One processor's Figure 8 plan for ``A(l:u:s)`` under an
    identity-aligned ``cyclic(k)`` distribution.

    ``delta_m`` is in visit order (shapes a-c); ``delta_m_by_offset`` /
    ``next_offset`` / ``start_offset`` feed shape (d).  The loops run
    while the address is ``<= last_local``.  ``count == 0`` plans have
    ``start_local is None``.
    """

    p: int
    k: int
    m: int
    count: int
    length: int
    start_local: int | None
    last_local: int | None
    delta_m: tuple[int, ...]
    start_offset: int | None
    delta_m_by_offset: tuple[int, ...]
    next_offset: tuple[int, ...]

    @property
    def is_empty(self) -> bool:
        return self.count == 0


def make_plan(p: int, k: int, l: int, u: int, s: int, m: int) -> NodePlan:
    """Build the Figure 8 plan for ``A(l:u:s)`` on processor ``m``.

    Negative strides are normalized first (the paper's Section 2
    reduction); traversal is always in increasing index order.
    """
    section = RegularSection(l, u, s).normalized()
    count = 0
    if not section.is_empty:
        l, u, s = section.lower, section.upper, section.stride
        count = local_count(p, k, l, u, s, m)
    if count == 0:
        return NodePlan(p, k, m, 0, 0, None, None, (), None, (), ())

    table = compute_access_table(p, k, l, s, m)
    offsets = compute_offset_tables(p, k, l, s, m)
    last_global = last_location(p, k, l, u, s, m)
    return NodePlan(
        p=p,
        k=k,
        m=m,
        count=count,
        length=table.length,
        start_local=table.start_local,
        last_local=CyclicLayout(p, k).local_address_on(last_global, m),
        delta_m=table.gaps,
        start_offset=offsets.start_offset,
        delta_m_by_offset=offsets.delta_m,
        next_offset=offsets.next_offset,
    )


@dataclass(frozen=True, slots=True)
class AccessPlan:
    """Per-processor traversal plan for a bounded section of one array
    dimension.

    ``delta_m`` is the ΔM gap table in visit order and ``start_local`` the
    first compressed slot; ``count`` is the number of elements the
    processor owns within the bounds.  ``count == 0`` plans have
    ``start_local is None``.
    """

    p: int
    k: int
    m: int
    count: int
    length: int
    start_local: int | None
    delta_m: tuple[int, ...]

    @property
    def is_empty(self) -> bool:
        return self.count == 0


def make_array_plan(
    array: DistributedArray, dim: int, section: RegularSection, rank: int
) -> AccessPlan:
    """Plan for one dimension of a :class:`DistributedArray` section.

    Slots are *compressed array-local* slots, from
    :func:`~repro.distribution.localize.localize_section` for every
    alignment.  A section outside the dimension's extent raises
    ``IndexError``.
    """
    d = array._dims[dim]
    if d.layout is None:
        raise ValueError(f"dimension {dim} of {array.name} is not distributed")
    coords = array.grid.coordinates(rank)
    m = coords[d.axis_map.grid_axis]
    p, k = d.layout.p, d.layout.k
    alignment = d.axis_map.alignment
    table = localize_section(p, k, d.extent, alignment, section, m)
    # A non-empty (unbounded) cycle may still end, bounded, before the
    # rank's first owned element.
    count = 0 if table.is_empty else bounded_count(p, k, alignment, section, m)
    if count == 0:
        return AccessPlan(p, k, m, 0, 0, None, ())
    return AccessPlan(p, k, m, count, table.length, table.start_slot, table.gaps)


def materialize_addresses(plan) -> np.ndarray:
    """All local addresses a :class:`NodePlan` or :class:`AccessPlan`
    covers, as one int64 vector -- the vectorized Figure 8 table walk of
    shape (v)."""
    return expand_table(plan.start_local, plan.delta_m, plan.count)


def fill_shape_a(memory, plan: NodePlan, value) -> int:
    """Figure 8(a): ``i = (i + 1) % length`` -- mod every iteration."""
    if plan.count == 0:
        return 0
    base = plan.start_local
    last = plan.last_local
    delta = plan.delta_m
    length = plan.length
    i = 0
    written = 0
    while base <= last:
        memory[base] = value
        written += 1
        base += delta[i]
        i = (i + 1) % length
    return written


def fill_shape_b(memory, plan: NodePlan, value) -> int:
    """Figure 8(b): compare-and-reset instead of ``mod`` (what Chatterjee
    et al.'s implementation actually used, per the paper's footnote)."""
    if plan.count == 0:
        return 0
    base = plan.start_local
    last = plan.last_local
    delta = plan.delta_m
    length = plan.length
    i = 0
    written = 0
    while base <= last:
        memory[base] = value
        written += 1
        base += delta[i]
        i += 1
        if i == length:
            i = 0
    return written


def fill_shape_c(memory, plan: NodePlan, value) -> int:
    """Figure 8(c): ``for`` over the table inside ``while (TRUE)``, exit
    via ``goto done`` -- emulated with a flag and ``break``."""
    if plan.count == 0:
        return 0
    base = plan.start_local
    last = plan.last_local
    delta = plan.delta_m
    length = plan.length
    written = 0
    done = False
    while not done:
        for i in range(length):
            memory[base] = value
            written += 1
            base += delta[i]
            if base > last:
                done = True
                break
    return written


def fill_shape_d(memory, plan: NodePlan, value) -> int:
    """Figure 8(d): two-table lookup indexed by local offset (the fastest
    shape of Table 2; requires the Section 6.2 offset-indexed tables)."""
    if plan.count == 0:
        return 0
    base = plan.start_local
    last = plan.last_local
    delta = plan.delta_m_by_offset
    nxt = plan.next_offset
    i = plan.start_offset
    written = 0
    while base <= last:
        memory[base] = value
        written += 1
        base += delta[i]
        i = nxt[i]
    return written


def fill_vectorized(memory, plan, value) -> int:
    """Shape (v): one fancy-indexed store over the materialized address
    vector (ablation A4; idiomatic NumPy, no per-element interpretation)."""
    addrs = materialize_addresses(plan)
    if len(addrs):
        memory[addrs] = value
    return len(addrs)


#: Shape registry keyed by the paper's figure labels.
SHAPES: dict[str, Callable] = {
    "a": fill_shape_a,
    "b": fill_shape_b,
    "c": fill_shape_c,
    "d": fill_shape_d,
    "v": fill_vectorized,
}


# ---------------------------------------------------------------------------
# Table-driven C copies of shapes (a)-(d)
# ---------------------------------------------------------------------------

_SHAPES_C = r"""
/* Figure 8 shapes (a)-(d), table-driven: the ΔM tables arrive as
 * arguments, so one shared library serves every plan.  Each returns the
 * number of elements written. */

long repro_fill_a(double *A, double value, long start, long last,
                  const long *deltaM, long length)
{
    double *base = A + start;
    double *end = A + last;
    long i = 0, written = 0;
    while (base <= end) {
        *base = value;
        written++;
        base += deltaM[i];
        i = (i + 1) % length;
    }
    return written;
}

long repro_fill_b(double *A, double value, long start, long last,
                  const long *deltaM, long length)
{
    double *base = A + start;
    double *end = A + last;
    long i = 0, written = 0;
    while (base <= end) {
        *base = value;
        written++;
        base += deltaM[i++];
        if (i == length) i = 0;
    }
    return written;
}

long repro_fill_c(double *A, double value, long start, long last,
                  const long *deltaM, long length)
{
    double *base = A + start;
    double *end = A + last;
    long i, written = 0;
    while (1) {
        for (i = 0; i < length; i++) {
            *base = value;
            written++;
            base += deltaM[i];
            if (base > end) goto done;
        }
    }
done:
    return written;
}

long repro_fill_d(double *A, double value, long start, long last,
                  const long *deltaM, const long *nextOffset,
                  long startOffset)
{
    double *base = A + start;
    double *end = A + last;
    long i = startOffset, written = 0;
    while (base <= end) {
        *base = value;
        written++;
        base += deltaM[i];
        i = nextOffset[i];
    }
    return written;
}
"""

_f64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_i64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")


def _table(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.int64)


def compiled_shapes() -> dict[str, Callable]:
    """The table-driven C shapes (a)-(d) as ``(memory, plan, value) ->
    written`` callables, built once through the hashed artifact cache
    (a warm cache performs zero compilations).  Raises
    :class:`~repro.runtime.native.build.NativeBuildError` when the
    library must be compiled and no C compiler is usable."""
    lib = load_library(
        _SHAPES_C, {"unit": "figure8_shapes"},
        required_symbols=tuple(f"repro_fill_{c}" for c in "abcd"),
    )
    for c in "abc":
        fn = getattr(lib, f"repro_fill_{c}")
        fn.argtypes = [_f64, ctypes.c_double, ctypes.c_long, ctypes.c_long,
                       _i64, ctypes.c_long]
        fn.restype = ctypes.c_long
    lib.repro_fill_d.argtypes = [_f64, ctypes.c_double, ctypes.c_long,
                                 ctypes.c_long, _i64, _i64, ctypes.c_long]
    lib.repro_fill_d.restype = ctypes.c_long

    def table_walk(fn):
        def fill(memory, plan: NodePlan, value) -> int:
            if plan.count == 0:
                return 0
            return int(fn(memory, float(value), plan.start_local,
                          plan.last_local, _table(plan.delta_m), plan.length))
        return fill

    def fill_d(memory, plan: NodePlan, value) -> int:
        if plan.count == 0:
            return 0
        return int(lib.repro_fill_d(
            memory, float(value), plan.start_local, plan.last_local,
            _table(plan.delta_m_by_offset), _table(plan.next_offset),
            plan.start_offset,
        ))

    shapes = {c: table_walk(getattr(lib, f"repro_fill_{c}")) for c in "abc"}
    shapes["d"] = fill_d
    return shapes


# ---------------------------------------------------------------------------
# Plan-specialized C (Table 2 in C)
# ---------------------------------------------------------------------------

_HEADERS = {
    "a": "shape (a): cycle the table index with mod (Figure 8(a))",
    "b": "shape (b): compare-and-reset (Figure 8(b))",
    "c": "shape (c): for loop + goto done (Figure 8(c))",
    "d": "shape (d): two-table lookup by local offset (Figure 8(d))",
}


def _static_int_array(name: str, values) -> str:
    body = ", ".join(str(v) for v in values)
    return f"static const long {name}[{max(len(values), 1)}] = {{{body}}};"


def emit_node_code(plan: NodePlan, shape: str, value: float = 100.0) -> str:
    """C function ``node_code(double *A)`` for one processor's share of
    ``A(l:u:s) = value`` using the given Figure 8 shape, its tables
    embedded as static initializers (the paper's Section 6.1 case of
    compile-time-constant distribution parameters).  Self-contained C89,
    so it can be eyeballed against the paper or compiled elsewhere."""
    if shape not in _HEADERS:
        raise ValueError(f"unknown shape {shape!r}; choose from {sorted(_HEADERS)}")
    if plan.is_empty:
        return (
            f"/* {_HEADERS[shape]} -- this processor owns no section elements */\n"
            "void node_code(double *A) { (void)A; }\n"
        )

    lines = [f"/* {_HEADERS[shape]} */"]
    lines.append(f"#define STARTMEM {plan.start_local}")
    lines.append(f"#define LASTMEM  {plan.last_local}")
    lines.append(f"#define LENGTH   {plan.length}")
    if shape == "d":
        lines.append(f"#define STARTOFFSET {plan.start_offset}")
        lines.append(_static_int_array("deltaM", plan.delta_m_by_offset))
        lines.append(_static_int_array("NextOffset", plan.next_offset))
    else:
        lines.append(_static_int_array("deltaM", plan.delta_m))
    lines.append("")
    lines.append("void node_code(double *A)")
    lines.append("{")
    if shape == "a":
        lines.extend([
            "    double *base = A + STARTMEM;",
            "    long i = 0;",
            "    while (base <= A + LASTMEM) {",
            f"        *base = {value};",
            "        base += deltaM[i];",
            "        i = (i + 1) % LENGTH;",
            "    }",
        ])
    elif shape == "b":
        lines.extend([
            "    double *base = A + STARTMEM;",
            "    long i = 0;",
            "    while (base <= A + LASTMEM) {",
            f"        *base = {value};",
            "        base += deltaM[i++];",
            "        if (i == LENGTH) i = 0;",
            "    }",
        ])
    elif shape == "c":
        lines.extend([
            "    double *base = A + STARTMEM;",
            "    long i;",
            "    while (1) {",
            "        for (i = 0; i < LENGTH; i++) {",
            f"            *base = {value};",
            "            base += deltaM[i];",
            "            if (base > A + LASTMEM) goto done;",
            "        }",
            "    }",
            "done: ;",
        ])
    else:  # shape == "d"
        lines.extend([
            "    double *base = A + STARTMEM;",
            "    long i = STARTOFFSET;",
            "    while (base <= A + LASTMEM) {",
            f"        *base = {value};",
            "        base += deltaM[i];",
            "        i = NextOffset[i];",
            "    }",
        ])
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_harness(plan: NodePlan, shape: str, memory_size: int,
                 value: float = 100.0) -> str:
    """Complete C program: the node code plus a ``main`` that prints the
    written addresses in order (one per line) -- the address stream the
    tests compare against the Python shapes."""
    node = emit_node_code(plan, shape, value)
    return (
        "#include <stdio.h>\n"
        "#include <stdlib.h>\n\n"
        + node
        + "\n"
        "int main(void)\n"
        "{\n"
        f"    double *A = calloc({memory_size}, sizeof(double));\n"
        "    long i;\n"
        "    node_code(A);\n"
        f"    for (i = 0; i < {memory_size}; i++)\n"
        f"        if (A[i] == {value}) printf(\"%ld\\n\", i);\n"
        "    free(A);\n"
        "    return 0;\n"
        "}\n"
    )


def emit_timing_harness(plan: NodePlan, shape: str, memory_size: int,
                        value: float = 100.0) -> str:
    """C program that times ``node_code`` and prints the best
    per-invocation microseconds.

    ``argv[1]`` chooses the repetition count (default 1000); the minimum
    over repetitions is printed with 3 decimals -- the same min-of-N
    discipline the Python timers use.  This is the closest this
    reproduction gets to the paper's platform: the emitted Figure 8
    code, compiled by a real C compiler, timed natively.
    """
    node = emit_node_code(plan, shape, value)
    return (
        "#include <stdio.h>\n"
        "#include <stdlib.h>\n"
        "#include <time.h>\n\n"
        + node
        + "\n"
        "static double now_us(void)\n"
        "{\n"
        "    struct timespec ts;\n"
        "    clock_gettime(CLOCK_MONOTONIC, &ts);\n"
        "    return ts.tv_sec * 1e6 + ts.tv_nsec * 1e-3;\n"
        "}\n\n"
        "int main(int argc, char **argv)\n"
        "{\n"
        "    long reps = argc > 1 ? atol(argv[1]) : 1000;\n"
        f"    double *A = calloc({memory_size}, sizeof(double));\n"
        "    double best = 1e30;\n"
        "    long r;\n"
        "    node_code(A); /* warm up */\n"
        "    for (r = 0; r < reps; r++) {\n"
        "        double t0 = now_us();\n"
        "        node_code(A);\n"
        "        double dt = now_us() - t0;\n"
        "        if (dt < best) best = dt;\n"
        "    }\n"
        "    printf(\"%.3f\\n\", best);\n"
        "    free(A);\n"
        "    return 0;\n"
        "}\n"
    )


def emit_timing_library(plan: NodePlan, shape: str, memory_size: int,
                        value: float = 100.0) -> str:
    """Shared-library variant of :func:`emit_timing_harness`.

    Exports the specialized ``node_code`` plus ``repro_best_us(reps)``,
    which allocates the local arena, runs the warm-up and the min-of-N
    repetition loop natively, and returns the best per-invocation
    microseconds as a double -- the Table 2 cell measurement without a
    process launch per cell.  ``repro_touched(A)`` re-runs the node
    code on a caller-provided arena so the address stream stays
    checkable from Python.
    """
    node = emit_node_code(plan, shape, value)
    return (
        "#include <stdlib.h>\n"
        "#include <time.h>\n\n"
        + node
        + "\n"
        "static double now_us(void)\n"
        "{\n"
        "    struct timespec ts;\n"
        "    clock_gettime(CLOCK_MONOTONIC, &ts);\n"
        "    return ts.tv_sec * 1e6 + ts.tv_nsec * 1e-3;\n"
        "}\n\n"
        "double repro_best_us(long reps)\n"
        "{\n"
        f"    double *A = calloc({memory_size}, sizeof(double));\n"
        "    double best = 1e30;\n"
        "    long r;\n"
        "    if (!A) return -1.0;\n"
        "    node_code(A); /* warm up */\n"
        "    for (r = 0; r < reps; r++) {\n"
        "        double t0 = now_us();\n"
        "        node_code(A);\n"
        "        double dt = now_us() - t0;\n"
        "        if (dt < best) best = dt;\n"
        "    }\n"
        "    free(A);\n"
        "    return best;\n"
        "}\n\n"
        "void repro_touched(double *A)\n"
        "{\n"
        "    node_code(A);\n"
        "}\n"
    )
