"""OpenBLAS's build string and thread count, read and set through ctypes.

The library is the one numpy loaded, found in /proc/self/maps. With any
other BLAS, or where that file is unreadable, config() and threads() return
None and set_threads and one_thread change nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools

import numpy  # noqa: F401  (loads the BLAS that _api looks for)

# (get, set, config) symbols: scipy-openblas's 64-bit build, then plain OpenBLAS.
_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_",
             "scipy_openblas_get_config64_"),
            ("openblas_get_num_threads64_", "openblas_set_num_threads64_",
             "openblas_get_config64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads", "openblas_get_config"))


@functools.cache
def _api():
    """The loaded OpenBLAS's (get, set) thread-count and config functions, or None."""
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
        for names in _SYMBOLS:
            if all(hasattr(lib, name) for name in names):
                get, set_, config_ = (getattr(lib, name) for name in names)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                config_.argtypes, config_.restype = [], ctypes.c_char_p
                return get, set_, config_
    return None


def threads() -> int | None:
    """OpenBLAS's current thread count, or None with an unknown BLAS."""
    api = _api()
    return None if api is None else api[0]()


def config() -> str | None:
    """OpenBLAS's build string, which names its version and the CPU kernels
    it picked at run time, or None with an unknown BLAS."""
    api = _api()
    return None if api is None else api[2]().decode()


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
