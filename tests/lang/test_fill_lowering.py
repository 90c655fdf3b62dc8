"""How compiled fills run.

Every fill takes the runtime's one path -- the vectorized ΔM expansion
(shape v), never an interpreted Figure 8 loop -- and is bit-identical to
the reference interpreter; with kernels serving the call
(``REPRO_NATIVE=on``) it runs compiled.
"""

import shutil

import numpy as np
import pytest

from repro.lang.compiler import compile_source
from repro.lang.parser import parse_program
from repro.lang.reference import interpret
from repro.obs import Observability, set_ambient
from repro.bench import nodecode
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
        monkeypatch.setitem(nodecode.SHAPES, letter, interpreted)


@pytest.mark.usefixtures("numpy_mode")
class TestNumpyMode:
    def test_default_fills_never_interpret(self, monkeypatch):
        forbid_interpreted_shapes(monkeypatch)
        assert_bit_identical(*run(SOURCE))

    def test_fills_bit_identical(self):
        # Identity-aligned A and affine-aligned B fills alone.
        assert_bit_identical(*run(FILLS))


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
