"""How compiled fills run.

Every fill takes the runtime's one path -- the vectorized ΔM expansion
(shape v) and one NumPy indexed store, never an interpreted Figure 8
loop -- and is bit-identical to the reference interpreter.
"""

import numpy as np

from repro.lang.compiler import compile_source
from repro.lang.parser import parse_program
from repro.lang.reference import interpret
from repro.bench import nodecode
from repro.runtime.exec import distribute

# A is identity-aligned, B affine-aligned.
FILLS = """
PROCESSORS P(4)
TEMPLATE   T(400)
REAL       A(120)
REAL       B(120)
ALIGN      A(i) WITH T(i)
ALIGN      B(i) WITH T(3*i+2)
DISTRIBUTE T(CYCLIC(5)) ONTO P
A(0:119:7) = 1.5
B(3:118:4) = -2.25
B(0:119:3) = 4.0
"""
SOURCE = FILLS + "A(1:100) = 0.5*B(0:99) + 0.25*A(2:101)\nA(2:119:9) = 0.75\n"


def run(source):
    """Run ``source`` compiled, return (images, reference images)."""
    program = parse_program(source)
    rng = np.random.default_rng(5)
    inputs = {"A": rng.random(120), "B": rng.random(120)}
    compiled = compile_source(source)
    vm = compiled.make_machine()
    for name, values in inputs.items():
        distribute(vm, compiled.arrays[name], values)
    compiled.run(vm)
    images = {name: compiled.image(vm, name) for name in inputs}
    return images, interpret(program, inputs)


def assert_bit_identical(images, want):
    for name, image in images.items():
        assert image.tobytes() == want[name].tobytes(), name


def forbid_interpreted_shapes(monkeypatch):
    def interpreted(*args, **kwargs):
        raise AssertionError("interpreted Figure 8 shape on the default path")

    for letter in "abcd":
        monkeypatch.setitem(nodecode.SHAPES, letter, interpreted)


class TestNumpyMode:
    def test_default_fills_never_interpret(self, monkeypatch):
        forbid_interpreted_shapes(monkeypatch)
        assert_bit_identical(*run(SOURCE))

    def test_fills_bit_identical(self):
        # Identity-aligned A and affine-aligned B fills alone.
        assert_bit_identical(*run(FILLS))
