"""Exception types shared across the package, and the finite-value check
that raises NumericsFault.

File-system errors are not wrapped: a path that cannot be opened or
created raises the standard OSError subclass (FileNotFoundError,
IsADirectoryError, NotADirectoryError, ...), which the CLI reports as one
error line naming the path."""

import numpy as np


class CapsAudioError(Exception):
    """Base class for all package errors."""


class ParseError(CapsAudioError):
    """Malformed input file (WAV header, manifest row, config line)."""


class UnsupportedFormat(CapsAudioError):
    """Valid container but a codec/encoding we do not decode."""


class InputTooShort(CapsAudioError):
    """Signal or sequence shorter than the minimum the operation needs."""


class ShapeError(CapsAudioError):
    """Operand shapes are inconsistent."""


class InsufficientData(CapsAudioError):
    """Dataset too small for the requested operation."""


class ConfigError(CapsAudioError):
    """Invalid or unknown configuration value."""


class DegenerateBatch(CapsAudioError):
    """Batch statistics requested over fewer than two values."""


class FormatError(CapsAudioError):
    """Binary artifact (cache, checkpoint) violates its format contract."""


class NumericsFault(CapsAudioError):
    """A forward op produced NaN or Inf."""


def check_finite(op: str, *arrays) -> None:
    """Raise NumericsFault naming op unless every value of arrays is finite."""
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise NumericsFault(f"op '{op}' produced non-finite values")


class DivergenceFault(CapsAudioError):
    """Training loss became non-finite."""

    def __init__(self, message: str, epoch: int | None = None, step: int | None = None):
        super().__init__(message)
        self.epoch = epoch
        self.step = step
