"""Whole-file writes: a reader that finds the path sees a complete file."""

from __future__ import annotations

import contextlib
import os
import threading


@contextlib.contextmanager
def atomic_write(path):
    """Yield a binary file whose contents replace path when the block ends.

    The data goes to `<path>.<pid>.<thread>.tmp` in the same directory,
    which is renamed onto path only after the block and the close succeed.
    On any failure the temp file is removed and path keeps its old contents.
    An error opening the temp file names path, not the temp file.
    """
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        fh = open(tmp, "wb")
    except OSError as e:
        e.filename = os.fspath(path)  # the error names the caller's path
        raise
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_text(path, text: str) -> None:
    """Replace path with text, UTF-8 encoded, through atomic_write."""
    with atomic_write(path) as fh:
        fh.write(text.encode("utf-8"))
