"""The hashed C artifact cache behind the compiled paper reproductions.

:mod:`repro.runtime.native.build` compiles emitted C with the host
compiler into a hashed on-disk .so cache (atomic installs, corrupt
artifacts rejected and rebuilt, fork-safe handle cache).  Its users are
the Figure 8 node code and the Table 1/2 C harnesses of
:mod:`repro.bench`; the runtime itself runs every fill, pack and unpack
as one NumPy indexing statement and compiles nothing.

Counters (through the ambient obs handle): ``native.compile``,
``native.disk_hit``, ``native.handle_hit``, ``native.rebuild_corrupt``.
See docs/NATIVE.md.
"""

from __future__ import annotations

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
    "build_cached",
    "clear_handle_cache",
    "compiler_id",
    "find_compiler",
    "load_library",
    "native_mode",
]


def native_mode() -> str:
    """Always ``"off"``: the runtime has one execution path, NumPy
    fancy indexing, and no compiled dispatch to switch on.

    Kept because the end-to-end benchmark stamps this value into every
    result record (``native_mode``), and its tests accept ``auto``,
    ``on`` or ``off`` there.
    """
    return "off"
