"""Tests for the hashed C artifact cache (:mod:`repro.runtime.native`).

Three layers:

* differential -- the bench's compiled Figure 8 shapes must be
  bit-identical to the interpreted ones over randomized plan sweeps;
* cache -- one compilation ever per descriptor, disk hits after the
  handle cache is dropped, corrupt artifacts rejected and rebuilt;
* degradation -- a missing or broken compiler is a clean
  :class:`NativeBuildError` for the compiled reproductions and nothing
  at all for the runtime, which compiles nothing.

Compiler-dependent tests skip when the host has no cc/gcc; the
degradation tests run everywhere (they *hide* the compiler on purpose).
"""

import os
import shutil
import warnings

import numpy as np
import pytest

from repro.bench.nodecode import SHAPES, compiled_shapes, make_plan
from repro.distribution import (
    Alignment,
    AxisMap,
    CyclicK,
    DistributedArray,
    ProcessorGrid,
)
from repro.machine.vm import VirtualMachine
from repro.obs import Observability, set_ambient
from repro.runtime import collect, distribute
from repro.runtime.native import native_mode
from repro.runtime.native.build import (
    NativeBuildError,
    build_cached,
    clear_handle_cache,
    compiler_id,
    descriptor_hash,
    find_compiler,
    load_library,
)

needs_cc = pytest.mark.skipif(
    shutil.which("cc") is None and shutil.which("gcc") is None,
    reason="no C compiler on host",
)

TINY_C = "long forty_two(void) { return 42; }\n"


@pytest.fixture
def native_env(tmp_path, monkeypatch):
    """Fresh cache dir + fresh in-process handle cache per test."""
    cache = tmp_path / "native-cache"
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
    monkeypatch.delenv("REPRO_NATIVE_CC", raising=False)
    clear_handle_cache()
    yield cache
    clear_handle_cache()


@pytest.fixture
def obs():
    """An enabled Observability installed as ambient for the test."""
    ob = Observability()
    prev = set_ambient(ob)
    yield ob
    set_ambient(prev)


def random_plan(rng):
    p = int(rng.integers(1, 9))
    k = int(rng.integers(1, 17))
    l = int(rng.integers(0, 40))
    s = int(rng.integers(1, 120))
    u = l + int(rng.integers(0, 500))
    m = int(rng.integers(0, p))
    from repro.core.counting import local_allocation_size

    return make_plan(p, k, l, u, s, m), local_allocation_size(p, k, u + 1, m)


def make_1d(name, n, p, k, a=1, b=0):
    return DistributedArray(
        name, (n,), ProcessorGrid("G", (p,)),
        (AxisMap(CyclicK(k), Alignment(a, b), grid_axis=0),),
    )


# ---------------------------------------------------------------------------
# Differential: compiled Figure 8 shapes vs the interpreted ones
# ---------------------------------------------------------------------------

@needs_cc
class TestDifferential:
    def test_fill_shapes_bit_identical(self, native_env):
        fills = compiled_shapes()
        rng = np.random.default_rng(42)
        for _ in range(30):
            plan, size = random_plan(rng)
            value = float(rng.standard_normal())
            for shape in "abcd":
                ref = np.zeros(size)
                want = SHAPES[shape](ref, plan, value)
                got_mem = np.zeros(size)
                got = fills[shape](got_mem, plan, value)
                assert got == want, (plan, shape)
                assert np.array_equal(got_mem, ref), (plan, shape)

    def test_paper_worked_example(self, native_env):
        fills = compiled_shapes()
        plan = make_plan(4, 8, 4, 319, 9, 1)
        for shape in "abcd":
            mem = np.zeros(80)
            assert fills[shape](mem, plan, 100.0) == 9
            assert np.flatnonzero(mem).tolist() == [
                5, 8, 20, 35, 47, 50, 62, 65, 77
            ]


# ---------------------------------------------------------------------------
# Cache behavior
# ---------------------------------------------------------------------------

@needs_cc
class TestCache:
    def test_compile_once_then_disk_hits(self, native_env, obs):
        build_cached(TINY_C, {"unit": "t1"})
        assert obs.metrics.value("native.compile") == 1
        build_cached(TINY_C, {"unit": "t1"})
        build_cached(TINY_C, {"unit": "t1"})
        assert obs.metrics.value("native.compile") == 1
        assert obs.metrics.value("native.disk_hit") == 2

    def test_descriptor_and_source_key_the_artifact(self, native_env):
        a = build_cached(TINY_C, {"unit": "t1"})
        b = build_cached(TINY_C, {"unit": "t2"})
        c = build_cached(TINY_C.replace("42", "43"), {"unit": "t1"})
        assert len({a, b, c}) == 3
        for artifact in (a, b, c):
            assert artifact.exists()
            assert artifact.with_suffix(".c").exists()  # source kept alongside

    def test_handle_cache_and_disk_reload(self, native_env, obs):
        lib = load_library(TINY_C, {"unit": "h"}, required_symbols=("forty_two",))
        assert lib.forty_two() == 42
        load_library(TINY_C, {"unit": "h"})
        assert obs.metrics.value("native.handle_hit") == 1
        clear_handle_cache()
        load_library(TINY_C, {"unit": "h"})
        assert obs.metrics.value("native.compile") == 1  # never recompiled
        assert obs.metrics.value("native.disk_hit") >= 2

    def test_corrupt_artifact_rejected_and_rebuilt(self, native_env, obs):
        artifact = build_cached(TINY_C, {"unit": "c"})
        artifact.write_bytes(b"\x7fELF truncated garbage")
        clear_handle_cache()
        lib = load_library(TINY_C, {"unit": "c"}, required_symbols=("forty_two",))
        assert lib.forty_two() == 42
        assert obs.metrics.value("native.rebuild_corrupt") == 1
        assert obs.metrics.value("native.compile") == 2

    def test_missing_symbol_rebuilds_once_then_raises(self, native_env, obs):
        # A library that genuinely lacks the symbol is indistinguishable
        # from corruption: rejected, rebuilt once, and -- still lacking
        # it -- surfaced as a hard build error rather than a loop.
        with pytest.raises(NativeBuildError, match="still unloadable"):
            load_library(
                TINY_C, {"unit": "s"}, required_symbols=("no_such_symbol",)
            )
        assert obs.metrics.value("native.rebuild_corrupt") == 1
        assert obs.metrics.value("native.compile") == 2

    def test_warm_runtime_kernels_zero_compiles(self, native_env, obs):
        # The bench's Figure 8 shape library: one compile cold, none warm.
        compiled_shapes()
        first = obs.metrics.value("native.compile")
        assert first == 1
        clear_handle_cache()  # drop handles; the .so stays on disk
        compiled_shapes()
        assert obs.metrics.value("native.compile") == first
        assert obs.metrics.value("native.disk_hit") >= 1

    def test_compiler_id_in_key(self, native_env):
        h1 = descriptor_hash({"unit": "x", "compiler": compiler_id()})
        h2 = descriptor_hash({"unit": "x", "compiler": "other cc 1.0"})
        assert h1 != h2


# ---------------------------------------------------------------------------
# Degradation: no compiler, broken compiler
# ---------------------------------------------------------------------------

class TestDegradation:
    def test_missing_cc_results_still_correct(self, native_env, obs,
                                               monkeypatch):
        # Hiding the compiler changes discovery, never the runtime: it
        # compiles nothing, so it neither warns nor counts a compile.
        monkeypatch.setenv("REPRO_NATIVE_CC", "/nonexistent/cc")
        clear_handle_cache()
        assert find_compiler() is None
        assert compiler_id() == "none"
        n, p = 100, 4
        host = np.arange(n, dtype=float)
        arr = make_1d("X", n, p, 5)
        vm = VirtualMachine(p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            distribute(vm, arr, host)
            assert np.array_equal(collect(vm, arr), host)
        assert obs.metrics.value("native.compile") == 0

    def test_broken_cc_build_error_message(self, native_env, monkeypatch):
        if not os.path.exists("/bin/false"):
            pytest.skip("no /bin/false on host")
        monkeypatch.setenv("REPRO_NATIVE_CC", "/bin/false")
        clear_handle_cache()
        with pytest.raises(NativeBuildError):
            build_cached(TINY_C, {"unit": "broken"})

    def test_native_mode_reports_off(self):
        # The runtime has one NumPy path; the e2e records stamp "off".
        assert native_mode() == "off"
