"""OpenBLAS's thread count, read and set at run time through ctypes.

The library is the one numpy loaded, found in /proc/self/maps. With any
other BLAS, or where that file is unreadable, threads() returns None and
set_threads and one_thread change nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools

import numpy  # noqa: F401  (loads the BLAS that _api looks for)

# (get, set) symbol pairs: scipy-openblas's 64-bit build, then plain OpenBLAS.
_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
            ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads"))


@functools.cache
def _api():
    """The loaded OpenBLAS's (get, set) thread-count functions, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def threads() -> int | None:
    """OpenBLAS's current thread count, or None with an unknown BLAS."""
    api = _api()
    return None if api is None else api[0]()


def set_threads(n: int) -> None:
    """Set OpenBLAS's thread count; nothing with an unknown BLAS."""
    api = _api()
    if api is not None:
        api[1](n)


@contextlib.contextmanager
def one_thread():
    """Run the block at one BLAS thread, then restore the previous count."""
    before = threads()
    set_threads(1)
    try:
        yield
    finally:
        if before is not None:
            set_threads(before)
