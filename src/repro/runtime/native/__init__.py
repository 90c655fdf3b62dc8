"""Native-speed runtime kernels behind a NumPy-safe dispatch seam.

* :mod:`repro.runtime.native.build` compiles emitted C with the host
  compiler into a hashed on-disk .so cache (atomic installs, corrupt
  artifacts rejected and rebuilt, fork-safe handle cache);
* this module wraps the runtime kernel library
  (:func:`repro.runtime.emit_c.emit_runtime_kernels`) in
  :class:`RuntimeKernels` -- the indexed fill and the ΔM-driven
  pack/unpack (gather/scatter) -- with ctypes signatures checked at
  load time;
* :func:`kernels_for` is the dispatch seam :mod:`repro.runtime.exec`
  consults: it returns the loaded kernels or ``None``, and ``None``
  always means "use the existing NumPy path".

Native dispatch **never changes results**: the NumPy fancy-index paths
are the semantics of record (differential tests in
``tests/runtime/test_native.py``), and any reason the native path cannot
serve a call -- no compiler, a broken compiler, a non-float64 or
non-contiguous memory, a ``TracingMemory`` -- falls back to NumPy with
an observable counter (and a single process-wide warning when the cause
is a missing compiler).

Selection model (``native=`` arguments accept ``None``/``True``/``False``):

* ``native=True`` -- use compiled kernels, falling back if unavailable;
* ``native=False`` -- never;
* ``native=None`` (default) -- follow the global mode:
  ``auto`` (default) treats ``None`` as NumPy, ``on`` treats it as
  native-when-available, ``off`` force-disables even explicit ``True``
  (kill switch).  Set via :func:`set_native_mode` or ``REPRO_NATIVE``.

Counters (through the ambient obs handle): ``native.compile``,
``native.disk_hit``, ``native.handle_hit``, ``native.rebuild_corrupt``,
``native.fallback``, ``native.dispatch_native``,
``native.dispatch_numpy``.  See docs/NATIVE.md.
"""

from __future__ import annotations

import ctypes
import os
import warnings

import numpy as np

from ...obs import ambient
from ..emit_c import KERNELS_ABI, emit_runtime_kernels
from .build import (
    NativeBuildError,
    build_cached,
    clear_handle_cache,
    compiler_id,
    find_compiler,
    load_library,
)

__all__ = [
    "NativeBuildError",
    "RuntimeKernels",
    "native_available",
    "get_runtime_kernels",
    "kernels_for",
    "native_mode",
    "set_native_mode",
    "reset_native_state",
    "build_cached",
    "compiler_id",
    "find_compiler",
    "clear_handle_cache",
]

_MODES = ("auto", "on", "off")

_REQUIRED_SYMBOLS = (
    "repro_fill_indexed",
    "repro_gather_f64",
    "repro_scatter_f64",
    "repro_kernels_abi",
)

_f64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_i64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")


class RuntimeKernels:
    """ctypes facade over the compiled runtime kernel library.

    Every method either performs the operation natively and returns its
    result, or returns ``None``/``False`` to tell the caller "this call
    shape is not native-servable, use the NumPy path" (wrong dtype,
    non-ndarray or non-contiguous memory).  Falling back is always safe
    because the NumPy paths are the semantics of record.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        lib.repro_fill_indexed.argtypes = [_f64, _i64, ctypes.c_long,
                                           ctypes.c_double]
        lib.repro_fill_indexed.restype = None
        lib.repro_gather_f64.argtypes = [_f64, _f64, _i64, ctypes.c_long]
        lib.repro_gather_f64.restype = None
        lib.repro_scatter_f64.argtypes = [_f64, _i64, _f64, ctypes.c_long]
        lib.repro_scatter_f64.restype = None
        lib.repro_kernels_abi.argtypes = []
        lib.repro_kernels_abi.restype = ctypes.c_long

    # -- dispatchability ------------------------------------------------

    @staticmethod
    def _servable(memory) -> bool:
        return (
            isinstance(memory, np.ndarray)
            and memory.dtype == np.float64
            and memory.flags["C_CONTIGUOUS"]
            and memory.ndim == 1
        )

    @staticmethod
    def _tables(values) -> np.ndarray:
        return np.ascontiguousarray(values, dtype=np.int64)

    # -- fill / pack / unpack ------------------------------------------

    def fill_indexed(self, memory, addrs: np.ndarray, value) -> int | None:
        """``memory[addrs] = value`` natively; ``None`` = not servable."""
        if not self._servable(memory):
            return None
        idx = self._tables(addrs)
        self._lib.repro_fill_indexed(memory, idx, len(idx), float(value))
        return len(idx)

    def gather(self, src, idx: np.ndarray) -> np.ndarray | None:
        """Pack: ``src[idx].copy()`` natively; ``None`` = not servable."""
        if not self._servable(src):
            return None
        idx = self._tables(idx)
        out = np.empty(len(idx), dtype=np.float64)
        self._lib.repro_gather_f64(out, src, idx, len(idx))
        return out

    def scatter(self, dst, idx: np.ndarray, values) -> bool:
        """Unpack: ``dst[idx] = values`` natively; False = not servable."""
        if not self._servable(dst):
            return False
        values = np.ascontiguousarray(values, dtype=np.float64)
        idx = self._tables(idx)
        if len(values) != len(idx):
            raise ValueError(
                f"scatter length mismatch: {len(idx)} slots, "
                f"{len(values)} values"
            )
        self._lib.repro_scatter_f64(dst, idx, values, len(idx))
        return True


# ---------------------------------------------------------------------------
# Load-once state (per process; reset on fork via build's guard)
# ---------------------------------------------------------------------------

_kernels: RuntimeKernels | None = None
_load_failed = False
_warned = False
_mode = os.environ.get("REPRO_NATIVE", "auto").lower()
if _mode not in _MODES:
    _mode = "auto"


def native_mode() -> str:
    """The global selection mode: ``auto``, ``on``, or ``off``."""
    return _mode


def set_native_mode(mode: str) -> str:
    """Set the global mode; returns the previous one.  ``off`` is the
    kill switch (even explicit ``native=True`` calls use NumPy)."""
    global _mode
    if mode not in _MODES:
        raise ValueError(f"unknown native mode {mode!r}; choose from {_MODES}")
    previous, _mode = _mode, mode
    return previous


def _warn_fallback(reason: str) -> None:
    global _warned
    ambient().inc("native.fallback")
    if not _warned:
        _warned = True
        warnings.warn(
            f"native kernels unavailable ({reason}); "
            "falling back to the NumPy path (results are identical)",
            RuntimeWarning,
            stacklevel=3,
        )


def get_runtime_kernels() -> RuntimeKernels | None:
    """The loaded generic kernel library, building it on first use;
    ``None`` (with one warning + a ``native.fallback`` counter) when it
    cannot be built or loaded."""
    global _kernels, _load_failed
    if _kernels is not None:
        return _kernels
    if _load_failed:
        ambient().inc("native.fallback")
        return None
    if ctypes.sizeof(ctypes.c_long) != 8:
        _load_failed = True
        _warn_fallback("platform long is not 64-bit")
        return None
    try:
        lib = load_library(
            emit_runtime_kernels(),
            {"unit": "runtime_kernels", "abi": KERNELS_ABI},
            required_symbols=_REQUIRED_SYMBOLS,
        )
        if int(lib.repro_kernels_abi()) != KERNELS_ABI:
            raise NativeBuildError(
                f"kernel ABI mismatch (got {int(lib.repro_kernels_abi())}, "
                f"want {KERNELS_ABI})"
            )
    except NativeBuildError as exc:
        _load_failed = True
        _warn_fallback(str(exc).splitlines()[0])
        return None
    _kernels = RuntimeKernels(lib)
    return _kernels


def native_available() -> bool:
    """Whether native dispatch can actually serve calls right now."""
    return get_runtime_kernels() is not None


def kernels_for(flag: bool | None) -> RuntimeKernels | None:
    """Resolve a ``native=`` argument against the global mode.

    The one seam every dispatch site goes through; returns the kernels
    to use or ``None`` for the NumPy path.
    """
    mode = _mode
    if mode == "off" or flag is False:
        return None
    if flag is None and mode != "on":
        return None
    return get_runtime_kernels()


def reset_native_state() -> None:
    """Forget loaded kernels, load failures, the warn-once latch, and
    dlopen handles (tests flip compilers/cache dirs between cases; real
    code never needs this)."""
    global _kernels, _load_failed, _warned
    _kernels = None
    _load_failed = False
    _warned = False
    clear_handle_cache()
