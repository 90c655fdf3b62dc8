"""Tests for the compiled-kernel subsystem (:mod:`repro.runtime.native`).

Three layers:

* differential -- the compiled fill and pack/unpack kernels must be
  bit-identical to NumPy fancy indexing, the bench's compiled Figure 8
  shapes to the interpreted ones, over randomized plan sweeps; and the
  executors must produce identical machine states with ``native=True``
  and ``native=False``;
* cache -- one compilation ever per descriptor, disk hits after the
  handle cache is dropped, corrupt artifacts rejected and rebuilt;
* degradation -- a missing or broken compiler falls back to NumPy with
  one warning and a counter, never an exception, never wrong results.

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
    Cyclic,
    CyclicK,
    DistributedArray,
    ProcessorGrid,
    RegularSection,
)
from repro.machine.vm import VirtualMachine
from repro.obs import Observability, set_ambient
from repro.runtime import (
    clear_plan_caches,
    collect,
    distribute,
    execute_copy,
    execute_fill,
    materialize_addresses,
)
from repro.runtime.native import (
    get_runtime_kernels,
    kernels_for,
    native_available,
    native_mode,
    reset_native_state,
    set_native_mode,
)
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
    """Fresh cache dir + fresh in-process native state per test."""
    cache = tmp_path / "native-cache"
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
    monkeypatch.delenv("REPRO_NATIVE_CC", raising=False)
    reset_native_state()
    yield cache
    reset_native_state()


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
# Differential: compiled kernels vs the interpreted semantics of record
# ---------------------------------------------------------------------------

def compiled_fills():
    """Letter -> compiled fill: the bench's table-driven C shapes (a)-(d)
    and the runtime's indexed fill over the materialized addresses (v)."""
    kernels = get_runtime_kernels()
    assert kernels is not None
    fills = compiled_shapes()
    fills["v"] = lambda memory, plan, value: kernels.fill_indexed(
        memory, materialize_addresses(plan), value
    )
    return fills


@needs_cc
class TestDifferential:
    def test_fill_shapes_bit_identical(self, native_env):
        fills = compiled_fills()
        rng = np.random.default_rng(42)
        for _ in range(30):
            plan, size = random_plan(rng)
            value = float(rng.standard_normal())
            for shape in "abcdv":
                ref = np.zeros(size)
                want = SHAPES[shape](ref, plan, value)
                got_mem = np.zeros(size)
                got = fills[shape](got_mem, plan, value)
                assert got == want, (plan, shape)
                assert np.array_equal(got_mem, ref), (plan, shape)

    def test_paper_worked_example(self, native_env):
        fills = compiled_fills()
        plan = make_plan(4, 8, 4, 319, 9, 1)
        for shape in "abcdv":
            mem = np.zeros(80)
            assert fills[shape](mem, plan, 100.0) == 9
            assert np.flatnonzero(mem).tolist() == [
                5, 8, 20, 35, 47, 50, 62, 65, 77
            ]

    def test_gather_scatter_match_fancy_indexing(self, native_env):
        kernels = get_runtime_kernels()
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 300))
            src = rng.standard_normal(n)
            idx = rng.integers(0, n, size=int(rng.integers(0, 80)))
            assert np.array_equal(kernels.gather(src, idx), src[idx])
            vals = rng.standard_normal(len(idx))
            dst_native, dst_numpy = np.zeros(n), np.zeros(n)
            assert kernels.scatter(dst_native, idx, vals)
            dst_numpy[idx] = vals  # duplicate slots: last write wins, both paths
            assert np.array_equal(dst_native, dst_numpy)

    def test_non_contiguous_memory_declined(self, native_env):
        kernels = get_runtime_kernels()
        plan = make_plan(4, 8, 4, 319, 9, 1)
        strided = np.zeros(160)[::2]
        assert kernels.fill_indexed(strided, materialize_addresses(plan), 1.0) is None
        assert kernels.gather(strided, np.array([0, 1])) is None
        assert not kernels.scatter(strided, np.array([0]), np.array([1.0]))

    def test_executors_bit_identical(self, native_env):
        rng = np.random.default_rng(11)
        for n, p, k in [(257, 4, 5), (64, 3, 1), (100, 5, 8)]:
            host = rng.standard_normal(n)
            arr_n, arr_i = make_1d("X", n, p, k), make_1d("X", n, p, k)
            vm_n, vm_i = VirtualMachine(p), VirtualMachine(p)
            distribute(vm_n, arr_n, host, native=True)
            distribute(vm_i, arr_i, host, native=False)
            for m in range(p):
                assert np.array_equal(
                    vm_n.processors[m].memory("X"),
                    vm_i.processors[m].memory("X"),
                )
            sec = RegularSection(1, n - 2, 3)
            assert execute_fill(
                vm_n, arr_n, (sec,), 5.0, native=True
            ) == execute_fill(vm_i, arr_i, (sec,), 5.0, native=False)
            assert np.array_equal(
                collect(vm_n, arr_n, native=True),
                collect(vm_i, arr_i, native=False),
            )

    def test_fill_2d_dispatches_natively(self, native_env, obs):
        grid = ProcessorGrid("P", (2, 2))
        host = np.arange(72, dtype=float).reshape(8, 9)
        secs = (RegularSection(1, 7, 2), RegularSection(0, 8, 3))
        images = []
        for native in (True, False):
            arr = DistributedArray(
                "M", (8, 9), grid,
                (AxisMap(CyclicK(2), grid_axis=0), AxisMap(Cyclic(), grid_axis=1)),
            )
            vm = VirtualMachine(4)
            distribute(vm, arr, host, native=native)
            before = obs.metrics.value("native.dispatch_native")
            assert execute_fill(vm, arr, secs, 5.0, native=native) == 4 * 3
            bumps = obs.metrics.value("native.dispatch_native") - before
            # Every rank owns some of the 12 elements: one store each.
            assert bumps == (4 if native else 0)
            images.append(collect(vm, arr))
        assert obs.metrics.value("native.dispatch_numpy") == 0
        assert images[0].tobytes() == images[1].tobytes()

    @pytest.mark.parametrize("lo, hi, step", [(-8, 7, 1), (0, 68, 17)])
    def test_fill_outside_extent_raises(self, native_env, lo, hi, step):
        """Regression: the compiled indexed store does no bounds check,
        so an identity-aligned section outside the extent wrote outside
        the ranks' arenas (and could crash the interpreter)."""
        arr = make_1d("A", 64, 4, 4)
        vm = VirtualMachine(4)
        distribute(vm, arr, np.zeros(64), native=True)
        with pytest.raises(IndexError, match="outside array extent"):
            execute_fill(vm, arr, (RegularSection(lo, hi, step),), 1.0,
                         native=True)
        assert not collect(vm, arr, native=True).any()

    def test_execute_copy_bit_identical(self, native_env):
        clear_plan_caches()
        n, p = 200, 4
        host = np.arange(n, dtype=float)
        a_n, b_n = make_1d("A", n, p, 7), make_1d("B", n, p, 3)
        a_i, b_i = make_1d("A", n, p, 7), make_1d("B", n, p, 3)
        vm_n, vm_i = VirtualMachine(p), VirtualMachine(p)
        for vm, a, b, native in ((vm_n, a_n, b_n, True), (vm_i, a_i, b_i, False)):
            distribute(vm, a, np.zeros(n), native=native)
            distribute(vm, b, host, native=native)
            execute_copy(vm, a, RegularSection(0, n - 2, 1),
                         b, RegularSection(1, n - 1, 1), native=native)
        assert np.array_equal(collect(vm_n, a_n), collect(vm_i, a_i))


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
        assert native_available()
        first = obs.metrics.value("native.compile")
        assert first == 1
        reset_native_state()  # drop handles; the .so stays on disk
        assert native_available()
        assert obs.metrics.value("native.compile") == first
        assert obs.metrics.value("native.disk_hit") >= 1

    def test_compiler_id_in_key(self, native_env):
        h1 = descriptor_hash({"unit": "x", "compiler": compiler_id()})
        h2 = descriptor_hash({"unit": "x", "compiler": "other cc 1.0"})
        assert h1 != h2


# ---------------------------------------------------------------------------
# Degradation: no compiler, broken compiler, kill switch
# ---------------------------------------------------------------------------

class TestDegradation:
    def test_missing_cc_falls_back_with_one_warning(
        self, native_env, obs, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NATIVE_CC", "/nonexistent/cc")
        reset_native_state()
        assert find_compiler() is None
        assert compiler_id() == "none"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert kernels_for(True) is None
            assert kernels_for(True) is None  # second call: no second warning
        runtime_warnings = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(runtime_warnings) == 1
        assert "falling back" in str(runtime_warnings[0].message)
        assert obs.metrics.value("native.fallback") == 2

    def test_missing_cc_results_still_correct(self, native_env, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CC", "/nonexistent/cc")
        reset_native_state()
        n, p = 100, 4
        host = np.arange(n, dtype=float)
        arr = make_1d("X", n, p, 5)
        vm = VirtualMachine(p)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            distribute(vm, arr, host, native=True)  # silently NumPy
            assert np.array_equal(collect(vm, arr, native=True), host)

    def test_broken_cc_falls_back(self, native_env, obs, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CC", "/bin/false")
        reset_native_state()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert kernels_for(True) is None
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)
        arr = make_1d("X", 320, 4, 8)
        vm = VirtualMachine(4)
        distribute(vm, arr, np.zeros(320))
        assert execute_fill(
            vm, arr, (RegularSection(4, 319, 9),), 100.0, native=True
        ) == len(range(4, 320, 9))
        assert np.flatnonzero(vm.processors[1].memory("X")).tolist() == [
            5, 8, 20, 35, 47, 50, 62, 65, 77
        ]

    def test_broken_cc_build_error_message(self, native_env, monkeypatch):
        if not os.path.exists("/bin/false"):
            pytest.skip("no /bin/false on host")
        monkeypatch.setenv("REPRO_NATIVE_CC", "/bin/false")
        reset_native_state()
        with pytest.raises(NativeBuildError):
            build_cached(TINY_C, {"unit": "broken"})

    def test_mode_off_is_kill_switch(self, native_env):
        previous = set_native_mode("off")
        try:
            assert kernels_for(True) is None
            assert kernels_for(None) is None
        finally:
            set_native_mode(previous)

    @needs_cc
    def test_mode_on_serves_default_calls(self, native_env):
        previous = set_native_mode("on")
        try:
            assert kernels_for(None) is not None
            assert kernels_for(False) is None  # explicit False still wins
        finally:
            set_native_mode(previous)

    def test_mode_roundtrip_and_validation(self):
        assert native_mode() in ("auto", "on", "off")
        with pytest.raises(ValueError, match="unknown native mode"):
            set_native_mode("sometimes")
