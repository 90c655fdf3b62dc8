"""Seeded mini-HPF program sources for the end-to-end benchmark.

Every generator is a pure function of its arguments: the same seed
gives byte-identical source text, so a run replays exactly from its
``--seed``.  The programs only use the language the compiler accepts
(see ``repro.lang.parser``); the benchmark hands them to the system as
text, exactly as a user would.
"""

from __future__ import annotations

import numpy as np

#: Processor counts and block sizes ``layout-sweep`` crosses.  The
#: 5 x 13 grid is walked in full by every batch of 65 programs, so each
#: batch covers the same (p, k) mix and batches differ only in the
#: drawn sections, alignments and extents.
SWEEP_PS = (2, 3, 4, 5, 8)
SWEEP_KS = (1, 2, 3, 4, 5, 7, 8, 13, 16, 32, 64, 128, 256)
SWEEP_N = (4000, 40000)  # half-open extent range
SWEEP_FILLS = 4
SWEEP_COPIES = 8
SWEEP_FILL_STRIDE = 64  # fill strides are drawn from 1..63
SWEEP_COPY_STRIDE = 40  # copy strides are drawn from 1..39

#: ``resilient``: the source layout and the eight target layouts.
RESILIENT_SRC_K = 3
RESILIENT_DST_KS = (1, 3, 4, 7, 8, 16, 32, 64)


def jacobi_source(n: int, p: int = 4, k: int = 8) -> str:
    """Two three-point scaled sums (there and back), one strided copy
    (stride 3) and one strided fill (stride 7) over ``CYCLIC(k)``."""
    return (
        f"PROCESSORS P({p})\n"
        f"TEMPLATE   T({n})\n"
        f"REAL       A({n})\n"
        f"REAL       B({n})\n"
        "ALIGN      A(i) WITH T(i)\n"
        "ALIGN      B(i) WITH T(i)\n"
        f"DISTRIBUTE T(CYCLIC({k})) ONTO P\n"
        f"B(1:{n - 2}) = 0.5*A(0:{n - 3}) + 0.5*A(2:{n - 1})\n"
        f"A(1:{n - 2}) = 0.5*B(0:{n - 3}) + 0.5*B(2:{n - 1})\n"
        f"A(0:{n - 3}:3) = B(2:{n - 1}:3)\n"
        f"B(0:{n - 1}:7) = 1.5\n"
    )


def transpose_source(n: int) -> str:
    """``Q = TRANSPOSE(M)`` and back on a 2 x 1 grid, ``CYCLIC(4)`` in
    both dimensions."""
    full = f"0:{n - 1}, 0:{n - 1}"
    return (
        "PROCESSORS P(2, 1)\n"
        f"TEMPLATE   T({n}, {n})\n"
        f"REAL       M({n}, {n})\n"
        f"REAL       Q({n}, {n})\n"
        "ALIGN      M(i, j) WITH T(i, j)\n"
        "ALIGN      Q(i, j) WITH T(i, j)\n"
        "DISTRIBUTE T(CYCLIC(4), CYCLIC(4)) ONTO P\n"
        f"Q({full}) = TRANSPOSE(M({full}))\n"
        f"M({full}) = TRANSPOSE(Q({full}))\n"
    )


def resilient_source(n: int, p: int = 8) -> str:
    """Declarations only: ``S`` in ``CYCLIC(3)`` and one target ``Dk``
    per layout of :data:`RESILIENT_DST_KS`, each on its own template.
    The exchanges themselves go through ``runtime.resilient``."""
    lines = [
        f"PROCESSORS P({p})",
        f"TEMPLATE   TS({n})",
        f"REAL       S({n})",
        "ALIGN      S(i) WITH TS(i)",
        f"DISTRIBUTE TS(CYCLIC({RESILIENT_SRC_K})) ONTO P",
    ]
    for k in RESILIENT_DST_KS:
        lines += [
            f"TEMPLATE   T{k}({n})",
            f"REAL       D{k}({n})",
            f"ALIGN      D{k}(i) WITH T{k}(i)",
            f"DISTRIBUTE T{k}(CYCLIC({k})) ONTO P",
        ]
    return "\n".join(lines) + "\n"


def _section(rng: np.random.Generator, n: int, stride: int, count: int) -> str:
    lower = int(rng.integers(0, n - (count - 1) * stride))
    return f"{lower}:{lower + (count - 1) * stride}:{stride}"


def sweep_program(rng: np.random.Generator, p: int, k: int, n: int) -> str:
    """One ``layout-sweep`` program: ``A`` aligned with ``T(i)``, ``B``
    with ``T(a*j+b)``, four strided fills and eight strided copies
    between them, every section inside its array."""
    a = int(rng.integers(1, 4))
    b = int(rng.integers(0, 6))
    lines = [
        f"PROCESSORS P({p})",
        f"TEMPLATE   T({a * (n - 1) + b + 1})",
        f"REAL       A({n})",
        f"REAL       B({n})",
        "ALIGN      A(i) WITH T(i)",
        f"ALIGN      B(j) WITH T({a}*j+{b})",
        f"DISTRIBUTE T(CYCLIC({k})) ONTO P",
    ]
    for _ in range(SWEEP_FILLS):
        s = int(rng.integers(1, SWEEP_FILL_STRIDE))
        count = int(rng.integers(1, (n - 1) // s + 2))
        target = "AB"[int(rng.integers(2))]
        value = float(rng.integers(1, 100))
        lines.append(f"{target}({_section(rng, n, s, count)}) = {value}")
    for _ in range(SWEEP_COPIES):
        s_dst = int(rng.integers(1, SWEEP_COPY_STRIDE))
        s_src = int(rng.integers(1, SWEEP_COPY_STRIDE))
        count = int(rng.integers(1, (n - 1) // max(s_dst, s_src) + 2))
        target, source = ("A", "B") if rng.integers(2) else ("B", "A")
        lines.append(
            f"{target}({_section(rng, n, s_dst, count)}) = "
            f"{source}({_section(rng, n, s_src, count)})"
        )
    return "\n".join(lines) + "\n"


def sweep_sources(seed: int, count: int) -> list[tuple[int, str]]:
    """``count`` ``(n, source)`` pairs for ``layout-sweep``, ``n`` being
    the extent of both arrays.

    The (p, k) grid is walked in a seeded order, so every batch of 65
    programs holds each pair once; extents are stratified over
    :data:`SWEEP_N` (one draw per equal-width stratum, shuffled), which
    keeps the total work of a batch close to the same across seeds.
    """
    rng = np.random.default_rng([seed, 0x5EED])
    grid = [(p, k) for p in SWEEP_PS for k in SWEEP_KS]
    pairs: list[tuple[int, int]] = []
    while len(pairs) < count:
        pairs += [grid[i] for i in rng.permutation(len(grid))]
    lo, hi = SWEEP_N
    width = (hi - lo) / count
    extents = [lo + int((i + rng.random()) * width) for i in range(count)]
    extents = [extents[i] for i in rng.permutation(count)]
    return [
        (n, sweep_program(rng, p, k, n))
        for (p, k), n in zip(pairs[:count], extents)
    ]
