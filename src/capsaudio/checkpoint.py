"""Binary checkpoint format.

Layout (all little-endian):
  magic 'CPSN' | u32 version | u32 config_len | config UTF-8 |
  u32 n_blocks | blocks

Each block: u16 name_len | name UTF-8 | u8 ndim | u32 dim... | f64 payload.
Blocks cover trainable parameters, non-trainable state (prefix 'state.') and
the fitted feature scaler ('scaler.min' / 'scaler.max'). Parameter and state
names follow layers.Module: the dotted attribute path of each Tensor
(parameter) or ndarray (state) attribute, in assignment order, e.g.
'lstm1.fwd.Wx' and 'state.bn.running_mean'. Round-trips are bit-exact.
"""

from __future__ import annotations

import struct

import numpy as np

from .config import RunConfig, config_from_text, config_to_text
from .errors import FormatError

MAGIC = b"CPSN"
VERSION = 1


def _pack_block(name: str, arr: np.ndarray) -> bytes:
    arr = np.asarray(arr, dtype="<f8")  # tobytes() serializes in C order
    nb = name.encode("utf-8")
    head = struct.pack("<H", len(nb)) + nb + struct.pack("<B", arr.ndim)
    head += b"".join(struct.pack("<I", d) for d in arr.shape)
    return head + arr.tobytes()


def save_checkpoint(path, cfg: RunConfig, blocks: dict[str, np.ndarray]) -> None:
    config_bytes = config_to_text(cfg).encode("utf-8")
    out = [MAGIC, struct.pack("<II", VERSION, len(config_bytes)), config_bytes,
           struct.pack("<I", len(blocks))]
    for name, arr in blocks.items():
        out.append(_pack_block(name, arr))
    with open(path, "wb") as fh:
        fh.write(b"".join(out))


def load_checkpoint(path) -> tuple[RunConfig, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[:4] != MAGIC:
        raise FormatError(f"{path}: not a checkpoint (bad magic)")
    version, config_len = struct.unpack_from("<II", raw, 4)
    if version != VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    pos = 12
    try:
        cfg = config_from_text(raw[pos : pos + config_len].decode("utf-8"))
        pos += config_len
        (n_blocks,) = struct.unpack_from("<I", raw, pos)
        pos += 4
        blocks: dict[str, np.ndarray] = {}
        for _ in range(n_blocks):
            (name_len,) = struct.unpack_from("<H", raw, pos)
            pos += 2
            name = raw[pos : pos + name_len].decode("utf-8")
            pos += name_len
            (ndim,) = struct.unpack_from("<B", raw, pos)
            pos += 1
            shape = struct.unpack_from(f"<{ndim}I", raw, pos) if ndim else ()
            pos += 4 * ndim
            count = int(np.prod(shape)) if shape else 1
            arr = np.frombuffer(raw, dtype="<f8", count=count, offset=pos)
            pos += 8 * count
            blocks[name] = arr.reshape(shape).copy()
    except (struct.error, UnicodeDecodeError, ValueError) as e:
        raise FormatError(f"{path}: truncated or corrupt checkpoint: {e}") from None
    if pos != len(raw):
        raise FormatError(f"{path}: {len(raw) - pos} trailing bytes")
    return cfg, blocks
