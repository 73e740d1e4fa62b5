"""Binary checkpoint format.

Layout (all little-endian):
  magic 'CPSN' | u32 version | u32 config_len | config UTF-8 |
  u32 n_blocks | blocks

Each block: u16 name_len | name UTF-8 | u8 ndim | u32 dim... | f64 payload.
Block names are unique.
Blocks cover trainable parameters, non-trainable state (prefix 'state.') and
the fitted feature scaler ('scaler.min' / 'scaler.max'). Parameter and state
names follow layers.Module: the dotted attribute path of each Tensor
(parameter) or ndarray (state) attribute, in assignment order, e.g.
'lstm1.fwd.Wx' and 'state.bn.running_mean'. Round-trips are bit-exact.

A trained model's checkpoint (train.TrainedModel.save) holds what inference
reads: batch norm, both BiLSTMs, 'caps.W' or the baseline head ('head.',
and 'att.' for model=att), the batch norm state and the scaler. It is not
a training state: it holds no Adam moments and no decoder, whose loss only
training reads. Checkpoints written before the decoder was left out hold
'decoder.' blocks; they load, and those blocks are ignored.

Both directions stream block by block and copy each payload once.
save_checkpoint writes a block's header and then the array's own buffer.
load_checkpoint reads the header fields in order from the open file and
reads each payload straight into a fresh array of the declared shape; it
checks every declared length against the bytes left in the file before it
allocates, so a forged header raises FormatError instead of asking for
memory the file cannot fill.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .atomic import atomic_write
from .config import RunConfig, config_from_text, config_to_text
from .errors import ConfigError, FormatError

MAGIC = b"CPSN"
VERSION = 1


def _pack_block(name: str, arr: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The block header for arr, and arr as a C-ordered '<f8' array whose
    buffer is the payload (arr itself when it already is one)."""
    arr = np.asarray(arr, dtype="<f8", order="C")
    nb = name.encode("utf-8")
    head = struct.pack(f"<H{len(nb)}sB{arr.ndim}I", len(nb), nb, arr.ndim, *arr.shape)
    return head, arr


def save_checkpoint(path, cfg: RunConfig, blocks: dict[str, np.ndarray]) -> None:
    """Write atomically: a failed save leaves any old file at path intact."""
    config_bytes = config_to_text(cfg).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(MAGIC + struct.pack("<II", VERSION, len(config_bytes)) + config_bytes
                 + struct.pack("<I", len(blocks)))
        for name, arr in blocks.items():
            head, payload = _pack_block(name, arr)
            fh.write(head)
            fh.write(payload)


def load_checkpoint(path) -> tuple[RunConfig, dict[str, np.ndarray]]:
    """The config and the blocks of the checkpoint at path.

    Every block is its own aligned, C-contiguous, writeable array that owns
    its data. Raises OSError if path cannot be opened and FormatError if
    the file breaks the format, an invalid embedded config included.
    """
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size

        def claim(n: int, what: str) -> None:
            nonlocal left
            if n > left:
                raise FormatError(f"{path}: truncated or corrupt checkpoint: "
                                  f"{what} needs {n} bytes, {left} left")
            left -= n

        def read(n: int, what: str) -> bytes:
            claim(n, what)
            data = fh.read(n)
            if len(data) != n:
                raise FormatError(f"{path}: checkpoint shrank while reading {what}")
            return data

        def unpack(fmt: str, what: str) -> tuple:
            return struct.unpack(fmt, read(struct.calcsize(fmt), what))

        if left < 12 or read(4, "magic") != MAGIC:
            raise FormatError(f"{path}: not a checkpoint (bad magic)")
        version, config_len = unpack("<II", "version")
        if version != VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        try:
            cfg = config_from_text(read(config_len, "config").decode("utf-8"))
            (n_blocks,) = unpack("<I", "block count")
            blocks: dict[str, np.ndarray] = {}
            for _ in range(n_blocks):
                (name_len,) = unpack("<H", "block name length")
                name = read(name_len, "block name").decode("utf-8")
                if name in blocks:
                    raise FormatError(f"{path}: duplicate block {name!r}")
                (ndim,) = unpack("<B", f"block {name!r}")
                shape = unpack(f"<{ndim}I", f"block {name!r} shape")
                nbytes = 8 * math.prod(shape)
                claim(nbytes, f"block {name!r} payload")
                arr = np.empty(shape, dtype="<f8")
                if fh.readinto(arr) != nbytes:
                    raise FormatError(f"{path}: checkpoint shrank while reading "
                                      f"block {name!r}")
                blocks[name] = arr
        except (UnicodeDecodeError, ConfigError) as e:
            raise FormatError(f"{path}: corrupt checkpoint: {e}") from None
        if left:
            raise FormatError(f"{path}: {left} trailing bytes")
    return cfg, blocks
