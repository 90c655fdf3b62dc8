"""Emit the runtime's compiled kernel library as C.

:func:`emit_runtime_kernels` produces one ``-fPIC``-able C99
translation unit with ``extern`` entry points and no dependencies beyond
libc: the indexed fill behind :func:`repro.runtime.exec.execute_fill`
and the pack/unpack (gather/scatter) loops behind the executors and the
resilient exchange.  :mod:`repro.runtime.native.build` compiles and
caches it; :mod:`repro.runtime.native` loads it.  The Figure 8 node-code
emitters -- the Table 2 experiment -- live in :mod:`repro.bench.nodecode`.
"""

from __future__ import annotations

__all__ = [
    "EMITTER_VERSION",
    "KERNELS_ABI",
    "emit_runtime_kernels",
]

#: Version of the emitted C.  Part of every native-cache descriptor hash
#: (:mod:`repro.runtime.native.build`), so changing any emitter output
#: MUST bump this -- stale cached .so files would otherwise keep serving
#: the old code.
EMITTER_VERSION = 2

#: ``long`` matches NumPy's int64 on every LP64 platform the repo
#: targets; the builder rejects others.
_RUNTIME_KERNELS_C = r"""
/* Runtime kernels: indexed fill + pack/unpack.  Emitted by
 * repro.runtime.emit_c (EMITTER_VERSION pins the cache key). */

/* Fancy-indexed store over a materialized address vector (every
 * execute_fill). */
void repro_fill_indexed(double *A, const long *idx, long n, double value)
{
    long t;
    for (t = 0; t < n; t++)
        A[idx[t]] = value;
}

/* Pack: gather section elements into a contiguous send buffer. */
void repro_gather_f64(double *dst, const double *src, const long *idx,
                      long n)
{
    long t;
    for (t = 0; t < n; t++)
        dst[t] = src[idx[t]];
}

/* Unpack: scatter a contiguous receive buffer into local memory. */
void repro_scatter_f64(double *dst, const long *idx, const double *src,
                       long n)
{
    long t;
    for (t = 0; t < n; t++)
        dst[idx[t]] = src[t];
}

/* ABI probe: the loader checks this to reject stale/corrupt builds. */
long repro_kernels_abi(void) { return @ABI@; }
"""

#: The ABI stamp baked into the generic library and checked at load
#: time; bumped with EMITTER_VERSION.
KERNELS_ABI = 2


def emit_runtime_kernels() -> str:
    """The runtime kernel library: the indexed fill and the pack/unpack
    gather/scatter -- one ``-fPIC``-able translation unit."""
    return _RUNTIME_KERNELS_C.replace("@ABI@", str(KERNELS_ABI))
