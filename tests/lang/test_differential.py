"""Differential testing: distributed execution vs reference interpreter.

Random mini-HPF programs (random mappings, random statements) are
compiled onto the virtual machine and executed; final array images must
equal the sequential reference interpreter's.  This is the strongest
end-to-end check in the suite: a divergence anywhere in the
access-sequence / alignment / communication stack shows up here.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.compiler import compile_source
from repro.lang.parser import parse_program
from repro.lang.reference import interpret
from repro.runtime.exec import distribute

ARRAY_NAMES = ["A", "B", "C"]


@st.composite
def random_program_1d(draw):
    """A random rank-1 program over three arrays of equal size."""
    p = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=12, max_value=64))
    k = draw(st.integers(min_value=1, max_value=8))
    # Affine alignments (a >= 1 keeps template extents easy to bound).
    lines = [f"PROCESSORS P({p})", f"TEMPLATE T({4 * n + 16})"]
    for name in ARRAY_NAMES:
        lines.append(f"REAL {name}({n})")
    for name in ARRAY_NAMES:
        a = draw(st.integers(min_value=1, max_value=3))
        b = draw(st.integers(min_value=0, max_value=5))
        lines.append(f"ALIGN {name}(i) WITH T({a}*i+{b})")
    lines.append(f"DISTRIBUTE T(CYCLIC({k})) ONTO P")

    n_statements = draw(st.integers(min_value=1, max_value=4))
    for _ in range(n_statements):
        kind = draw(st.sampled_from(["fill", "copy", "combine"]))
        count = draw(st.integers(min_value=1, max_value=10))

        def section(count=count):
            s = draw(st.integers(min_value=1, max_value=4))
            max_l = n - 1 - (count - 1) * s
            if max_l < 0:
                s = 1
                max_l = n - count
            l = draw(st.integers(min_value=0, max_value=max_l))
            return f"{l}:{l + (count - 1) * s}:{s}"

        target = draw(st.sampled_from(ARRAY_NAMES))
        if kind == "fill":
            value = draw(st.integers(min_value=-50, max_value=50))
            lines.append(f"{target}({section()}) = {value}.0")
        elif kind == "copy":
            source = draw(st.sampled_from(ARRAY_NAMES))
            lines.append(f"{target}({section()}) = {source}({section()})")
        else:
            # 1-4 terms with non-integer coefficients: the sum must
            # associate left to right exactly as the reference does.
            n_terms = draw(st.integers(min_value=1, max_value=4))
            terms = []
            for _ in range(n_terms):
                coef = draw(st.floats(min_value=-3, max_value=3,
                                      allow_nan=False, allow_infinity=False))
                term = draw(st.sampled_from(ARRAY_NAMES))
                terms.append(f"{coef!r} * {term}({section()})")
            lines.append(f"{target}({section()}) = " + " + ".join(terms))
    return "\n".join(lines), n


class TestDifferential1D:
    @given(random_program_1d(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_vm_matches_reference(self, prog_and_n, seed):
        source, n = prog_and_n
        program_ast = parse_program(source)
        compiled = compile_source(source)

        rng = np.random.default_rng(seed)
        inputs = {name: rng.uniform(-9, 9, n) for name in ARRAY_NAMES}

        want = interpret(program_ast, inputs)

        vm = compiled.make_machine()
        for name in ARRAY_NAMES:
            distribute(vm, compiled.arrays[name], inputs[name])
        compiled.run(vm)

        for name in ARRAY_NAMES:
            got = compiled.image(vm, name)
            assert got.tobytes() == want[name].tobytes(), (source, name)


class TestDifferential2D:
    @given(
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=6, max_value=16),
        st.integers(min_value=6, max_value=16),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=15, deadline=None)
    def test_2d_program(self, g0, g1, k0, k1, n0, n1, seed):
        source = f"""
        PROCESSORS P({g0}, {g1})
        TEMPLATE   T({n0}, {n1})
        TEMPLATE   U({n1}, {n0})
        REAL       M({n0}, {n1})
        REAL       N({n0}, {n1})
        REAL       Q({n1}, {n0})
        ALIGN      M(i, j) WITH T(i, j)
        ALIGN      N(i, j) WITH T(i, j)
        ALIGN      Q(i, j) WITH U(i, j)
        DISTRIBUTE T(CYCLIC({k0}), CYCLIC({k1})) ONTO P
        DISTRIBUTE U(CYCLIC({k1}), CYCLIC({k0})) ONTO P
        M(0:{n0 - 1}, 0:{n1 - 1}) = N(0:{n0 - 1}, 0:{n1 - 1})
        M(0:{n0 - 1}:2, 0:{n1 - 1}) = 3.0
        Q(0:{n1 - 1}, 0:{n0 - 1}) = TRANSPOSE(M(0:{n0 - 1}, 0:{n1 - 1}))
        """
        program_ast = parse_program(source)
        compiled = compile_source(source)
        rng = np.random.default_rng(seed)
        inputs = {"N": rng.integers(-9, 9, (n0, n1)).astype(float)}
        want = interpret(program_ast, inputs)

        vm = compiled.make_machine()
        distribute(vm, compiled.arrays["N"], inputs["N"])
        compiled.run(vm)
        for name in ("M", "N", "Q"):
            got = compiled.image(vm, name)
            assert got.tobytes() == want[name].tobytes(), name
