"""One BLAS thread per process.

Exact-summation SR makes many small dense BLAS calls (the n_var x n_var S
build and the Hermitian solve). At these sizes a second OpenBLAS thread
costs more in hand-off than it saves, so the package sets every OpenBLAS
mapped into the process to one thread when it is imported. numpy and
scipy each bundle their own OpenBLAS (an ILP64 build with the suffix 64_
and an LP64 build), and both are set.

A BLAS thread variable set by the user wins: OpenBLAS already applied it
when it loaded, so nothing is changed then. Without /proc or without
OpenBLAS this does nothing.

The libraries are looked up once per process, when the package is imported
(after it has imported numpy and scipy); an OpenBLAS loaded later is not
seen. Thread counts are read afresh on every `thread_counts` call.
"""

import ctypes
import functools
import os
import types

_USER_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_SYMBOLS = (   # (setter, getter) for scipy's bundled builds and plain OpenBLAS
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.cache
def openblas_libraries() -> types.MappingProxyType:
    """{file name: (setter, getter)} for each OpenBLAS mapped into this
    process at the first call, found through /proc/self/maps; never loads a
    library. Later calls return the same read-only mapping."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return types.MappingProxyType({})
    out = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        for set_sym, get_sym in _SYMBOLS:
            if hasattr(lib, set_sym) and hasattr(lib, get_sym):
                setter, getter = getattr(lib, set_sym), getattr(lib, get_sym)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                out[os.path.basename(path)] = (setter, getter)
                break
    return types.MappingProxyType(out)


def thread_counts() -> dict:
    """{file name: current thread count} of each OpenBLAS found."""
    return {name: get() for name, (_, get) in openblas_libraries().items()}


def pin_single_thread() -> None:
    """One thread for every loaded OpenBLAS, unless the user chose a count."""
    if any(os.environ.get(var) for var in _USER_THREAD_VARS):
        return
    for setter, _ in openblas_libraries().values():
        setter(1)
