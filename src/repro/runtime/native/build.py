"""Compile emitted C into a hashed, crash-safe on-disk artifact cache.

The C emitters of :mod:`repro.bench` (the Figure 8 node code and the
Table 1/2 harnesses) produce translation units; this module turns them
into loadable shared objects (or standalone executables) exactly once
per *descriptor*.  A descriptor is a JSON-able dict of everything that
can change the produced machine code: the plan parameters / source
identity, the exact source text, the pinned flag set, the artifact
kind, and the compiler id (path + version line).  Its SHA-256 keys the
artifact, so:

* repeated runs never recompile warm work;
* a compiler upgrade, source change, or flag change misses cleanly
  instead of serving stale code;
* concurrent builders race benignly: each compiles into a private
  ``.tmp-<pid>`` file and installs with an atomic :func:`os.replace`.

Layered on top is a per-process handle cache of loaded
:class:`ctypes.CDLL` objects, guarded against fork inheritance the same
way :mod:`repro.runtime.plancache` guards its locks (``register_at_fork``
plus a pid check), so the multiprocess backend's workers never share a
parent's dlopen handles or double-count its counters.

Knobs (environment):

* ``REPRO_NATIVE_CC`` -- pin the compiler path.  Setting it to a
  missing/broken path *disables* autodetection (that is the point: CI's
  hidden-compiler leg hides the compiler this way).
* ``REPRO_NATIVE_CACHE`` -- cache directory (default
  ``.repro-native-cache/`` under the current directory, git-ignored).

Failures surface as :class:`NativeBuildError`; the bench callers decide
whether that means a hard error or a skipped row.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import shutil
import subprocess
from pathlib import Path

from ...obs import ambient

__all__ = [
    "NativeBuildError",
    "find_compiler",
    "compiler_id",
    "cache_dir",
    "descriptor_hash",
    "build_cached",
    "load_library",
    "clear_handle_cache",
    "CFLAGS_SHARED",
    "CFLAGS_EXE",
]


class NativeBuildError(RuntimeError):
    """A native artifact could not be built (no compiler, compiler
    failure, or unloadable output)."""


#: Pinned flag sets -- part of every descriptor hash.  ``_POSIX_C_SOURCE``
#: because strict ``-std=c99`` hides ``clock_gettime``/``CLOCK_MONOTONIC``,
#: which the timing harnesses use.
CFLAGS_SHARED = (
    "-O2", "-fPIC", "-shared", "-std=c99",
    "-D_POSIX_C_SOURCE=199309L", "-fno-plt",
)
CFLAGS_EXE = ("-O2", "-std=c99", "-D_POSIX_C_SOURCE=199309L")

_ENV_CC = "REPRO_NATIVE_CC"
_ENV_CACHE = "REPRO_NATIVE_CACHE"

# ---------------------------------------------------------------------------
# Compiler discovery
# ---------------------------------------------------------------------------

#: ``path -> version line`` memo; reset per process (fork guard below).
_compiler_version_memo: dict[str, str | None] = {}


def find_compiler() -> str | None:
    """Path of the C compiler to use, or ``None``.

    ``REPRO_NATIVE_CC`` pins it when set (a nonexistent pin means "no
    compiler" -- deliberate, so tests and CI can hide a present cc);
    otherwise the first of ``cc``/``gcc``/``clang`` on PATH wins.
    """
    pinned = os.environ.get(_ENV_CC)
    if pinned is not None:
        path = shutil.which(pinned) or (pinned if os.path.exists(pinned) else None)
        return path
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def compiler_id(cc: str | None = None) -> str:
    """Stable identity of the compiler for cache keys and bench
    metadata: ``<basename> <first --version line>``, or ``"none"``."""
    if cc is None:
        cc = find_compiler()
    if cc is None:
        return "none"
    if cc not in _compiler_version_memo:
        _pid_guard()
        try:
            out = subprocess.run(
                [cc, "--version"], capture_output=True, text=True, timeout=30
            )
            line = (out.stdout or out.stderr).splitlines()[0].strip() if (
                out.stdout or out.stderr
            ) else ""
            _compiler_version_memo[cc] = line or None
        except (OSError, subprocess.SubprocessError):
            _compiler_version_memo[cc] = None
    version = _compiler_version_memo[cc]
    if version is None:
        return "none"
    return f"{os.path.basename(cc)}: {version}"


# ---------------------------------------------------------------------------
# Cache layout
# ---------------------------------------------------------------------------

def cache_dir() -> Path:
    """The on-disk artifact cache root (created lazily)."""
    root = os.environ.get(_ENV_CACHE)
    return Path(root) if root else Path.cwd() / ".repro-native-cache"


def descriptor_hash(descriptor: dict) -> str:
    """SHA-256 of the canonical-JSON descriptor (the cache key)."""
    blob = json.dumps(descriptor, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def _artifact_paths(key: str, kind: str) -> tuple[Path, Path]:
    suffix = ".so" if kind == "shared" else ".bin"
    root = cache_dir()
    return root / f"{key}{suffix}", root / f"{key}.c"


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def build_cached(source: str, descriptor: dict, *, kind: str = "shared") -> Path:
    """Return the compiled artifact for ``source``, building at most once.

    ``descriptor`` identifies the *semantics* of the source (plan
    parameters, harness name, ...); the full cache key additionally
    folds in the exact source text, the flag set, the artifact kind, and
    the compiler id, so none of those can alias.

    Raises :class:`NativeBuildError` when no compiler is available or
    compilation fails; never leaves a partial artifact behind (compile
    to a private temp name, then atomic :func:`os.replace`).
    """
    if kind not in ("shared", "exe"):
        raise ValueError(f"unknown artifact kind {kind!r}")
    cc = find_compiler()
    if cc is None:
        raise NativeBuildError(
            "no C compiler: set REPRO_NATIVE_CC or install cc/gcc/clang"
        )
    flags = CFLAGS_SHARED if kind == "shared" else CFLAGS_EXE
    key = descriptor_hash({
        "descriptor": descriptor,
        "kind": kind,
        "flags": flags,
        "compiler": compiler_id(cc),
        "source_sha": hashlib.sha256(source.encode()).hexdigest(),
    })
    artifact, source_path = _artifact_paths(key, kind)
    obs = ambient()
    if artifact.exists():
        obs.inc("native.disk_hit")
        return artifact

    root = cache_dir()
    root.mkdir(parents=True, exist_ok=True)
    # Temp names keep their real suffixes (cc decides language by
    # suffix) while staying unique per builder pid.
    tmp = artifact.with_name(f"{key}.tmp-{os.getpid()}{artifact.suffix}")
    tmp_src = source_path.with_name(f"{key}.tmp-{os.getpid()}.c")
    with obs.span("native_compile", kind=kind, key=key):
        tmp_src.write_text(source)
        try:
            proc = subprocess.run(
                [cc, *flags, "-o", str(tmp), str(tmp_src)],
                capture_output=True, text=True, timeout=300,
            )
        except (OSError, subprocess.SubprocessError) as exc:
            tmp_src.unlink(missing_ok=True)
            raise NativeBuildError(f"compiler invocation failed: {exc}") from exc
        if proc.returncode != 0 or not tmp.exists():
            tmp_src.unlink(missing_ok=True)
            tmp.unlink(missing_ok=True)
            raise NativeBuildError(
                f"{os.path.basename(cc)} failed (exit {proc.returncode}):\n"
                f"{proc.stderr.strip()[:2000]}"
            )
        # Source installed first (debuggability: the .c for every .so),
        # artifact last -- an artifact implies its source is present.
        os.replace(tmp_src, source_path)
        os.replace(tmp, artifact)
    obs.inc("native.compile")
    return artifact


# ---------------------------------------------------------------------------
# Handle cache (dlopen'd libraries), fork/spawn-safe
# ---------------------------------------------------------------------------

_handles: dict[Path, ctypes.CDLL] = {}
_owner_pid = os.getpid()


def _pid_guard() -> None:
    global _owner_pid
    if os.getpid() != _owner_pid:
        _reset_inherited_state()


def _reset_inherited_state() -> None:
    """Fresh handle/memo state for a new process (fork hygiene, same
    discipline as :mod:`repro.runtime.plancache`)."""
    global _owner_pid
    _owner_pid = os.getpid()
    _handles.clear()
    _compiler_version_memo.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_inherited_state)


def clear_handle_cache() -> None:
    """Drop every loaded-library handle and compiler memo (tests and the
    corrupt-artifact recovery path).  The .so files on disk stay."""
    _handles.clear()
    _compiler_version_memo.clear()


def load_library(
    source: str, descriptor: dict, *, required_symbols: tuple[str, ...] = ()
) -> ctypes.CDLL:
    """Build (or reuse) the shared library for ``source`` and dlopen it.

    The in-process handle cache makes repeat loads free; a cached .so
    that fails to dlopen or lacks ``required_symbols`` (truncated or
    corrupted file, stale partial install) is deleted and rebuilt once.
    """
    _pid_guard()
    artifact = build_cached(source, descriptor, kind="shared")
    handle = _handles.get(artifact)
    if handle is not None:
        ambient().inc("native.handle_hit")
        return handle
    try:
        handle = _load_checked(artifact, required_symbols)
    except OSError:
        # Corrupt/truncated artifact: reject, rebuild, retry once.
        ambient().inc("native.rebuild_corrupt")
        artifact.unlink(missing_ok=True)
        artifact = build_cached(source, descriptor, kind="shared")
        try:
            handle = _load_checked(artifact, required_symbols)
        except OSError as exc:
            raise NativeBuildError(
                f"rebuilt artifact still unloadable: {artifact}: {exc}"
            ) from exc
    _handles[artifact] = handle
    return handle


def _load_checked(artifact: Path, required_symbols: tuple[str, ...]) -> ctypes.CDLL:
    handle = ctypes.CDLL(str(artifact))
    for name in required_symbols:
        if not hasattr(handle, name):
            raise OSError(f"missing symbol {name!r} in {artifact}")
    return handle
