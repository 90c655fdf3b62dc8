"""Which node-code shape a compiled rank-1 fill runs.

The default is the vectorized ΔM expansion (shape v) in every native
mode, never an interpreted Figure 8 loop; with kernels serving the call
(``REPRO_NATIVE=on``) it runs compiled.  An explicit ``default_shape``
pins a letter.
"""

import shutil

import numpy as np
import pytest

from repro.lang.compiler import compile_source
from repro.lang.parser import parse_program
from repro.lang.reference import interpret
from repro.obs import Observability, set_ambient
from repro.runtime import codegen
from repro.runtime.exec import distribute
from repro.runtime.native import reset_native_state, set_native_mode

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


def run(source, **compile_kwargs):
    """Run ``source`` compiled, return (images, reference images)."""
    program = parse_program(source)
    rng = np.random.default_rng(5)
    inputs = {"A": rng.random(120), "B": rng.random(120)}
    compiled = compile_source(source, **compile_kwargs)
    vm = compiled.make_machine()
    for name, values in inputs.items():
        distribute(vm, compiled.arrays[name], values)
    compiled.run(vm)
    images = {name: compiled.image(vm, name) for name in inputs}
    return images, interpret(program, inputs)


def assert_bit_identical(images, want):
    for name, image in images.items():
        assert image.tobytes() == want[name].tobytes(), name


@pytest.fixture
def numpy_mode():
    previous = set_native_mode("auto")
    yield
    set_native_mode(previous)


@pytest.fixture
def native_on(tmp_path, monkeypatch):
    """Native mode ``on`` with a fresh kernel cache dir and fresh
    in-process native state."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "native-cache"))
    monkeypatch.delenv("REPRO_NATIVE_CC", raising=False)
    reset_native_state()
    previous = set_native_mode("on")
    yield
    set_native_mode(previous)
    reset_native_state()


@pytest.fixture
def obs():
    ob = Observability()
    previous = set_ambient(ob)
    yield ob
    set_ambient(previous)


def forbid_interpreted_shapes(monkeypatch):
    def interpreted(*args, **kwargs):
        raise AssertionError("interpreted Figure 8 shape on the default path")

    for letter in "abcd":
        monkeypatch.setitem(codegen.SHAPES, letter, interpreted)


@pytest.mark.usefixtures("numpy_mode")
class TestNumpyMode:
    def test_default_fills_never_interpret(self, monkeypatch):
        forbid_interpreted_shapes(monkeypatch)
        assert_bit_identical(*run(SOURCE))

    def test_explicit_letter_pins_the_shape(self, monkeypatch):
        calls = []
        fill_a = codegen.SHAPES["a"]

        def counting(memory, plan, value):
            calls.append(plan.count)
            return fill_a(memory, plan, value)

        monkeypatch.setitem(codegen.SHAPES, "a", counting)
        assert_bit_identical(*run(SOURCE, default_shape="a"))
        assert calls

    def test_pinned_d_falls_back_to_b_under_affine_alignment(self, monkeypatch):
        ran = []
        for letter in "bd":
            def recording(memory, plan, value, letter=letter,
                          fill=codegen.SHAPES[letter]):
                ran.append(letter)
                return fill(memory, plan, value)

            monkeypatch.setitem(codegen.SHAPES, letter, recording)
        assert_bit_identical(*run(FILLS, default_shape="d"))
        # One A fill (identity) and two B fills (affine) per rank.
        assert sorted(set(ran)) == ["b", "d"]
        assert ran.count("b") == 2 * ran.count("d")


@pytest.mark.skipif(
    shutil.which("cc") is None and shutil.which("gcc") is None,
    reason="no C compiler on host",
)
class TestNativeMode:
    def test_fills_run_compiled(self, native_on, obs):
        program = compile_source(FILLS)
        vm = program.make_machine()
        before_native = obs.metrics.value("native.dispatch_native")
        before_numpy = obs.metrics.value("native.dispatch_numpy")
        program.run(vm)
        native = obs.metrics.value("native.dispatch_native") - before_native
        numpy = obs.metrics.value("native.dispatch_numpy") - before_numpy
        # Three fills over four ranks, every rank owning some element.
        assert native == 12
        assert numpy == 0

    def test_native_mode_bit_identical(self, native_on):
        assert_bit_identical(*run(SOURCE))
