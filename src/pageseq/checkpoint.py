"""Binary checkpoint format and best-validation checkpointing.

File layout (all integers little-endian):

    magic    8 bytes  b"PSEQCKPT"
    version  u32      currently 1
    meta     u32 length + UTF-8 JSON (epoch, score, model metadata)
    count    u32      number of named parameters, then per parameter:
        name   u16 length + UTF-8 bytes
        width  u8     4 (float32) or 8 (float64)
        ndim   u8
        dims   u32 per dimension
        data   raw little-endian scalars, row-major
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"PSEQCKPT"
VERSION = 1
_WIDTH_DTYPE = {4: "<f4", 8: "<f8"}


class CheckpointIOError(IOError):
    """Raised when a checkpoint cannot be read or written."""


def save_checkpoint(path, params: dict, meta: dict | None = None):
    """Writes a temporary file next to ``path``, then renames it over
    ``path``, so a crash mid-save leaves the previous file intact."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            _write(fh, params, meta)
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointIOError(f"cannot write checkpoint {path}: {exc}") from exc
    finally:
        if tmp.exists():
            tmp.unlink()


def _write(fh, params, meta):
    fh.write(MAGIC)
    fh.write(struct.pack("<I", VERSION))
    meta_bytes = json.dumps(meta or {}, sort_keys=True).encode("utf-8")
    fh.write(struct.pack("<I", len(meta_bytes)))
    fh.write(meta_bytes)
    fh.write(struct.pack("<I", len(params)))
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name])
        width = arr.dtype.itemsize
        if width not in _WIDTH_DTYPE:
            raise ValueError(f"unsupported parameter dtype {arr.dtype}")
        nb = name.encode("utf-8")
        fh.write(struct.pack("<H", len(nb)))
        fh.write(nb)
        fh.write(struct.pack("<BB", width, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.astype(_WIDTH_DTYPE[width]).tobytes(order="C"))


def load_checkpoint(path):
    """Returns (params dict, meta dict).

    Every read is bounds-checked: a truncated or corrupt file raises
    :class:`CheckpointIOError` naming the file, never a lower-level error.
    """
    try:
        blob = memoryview(Path(path).read_bytes())
    except OSError as exc:
        raise CheckpointIOError(f"cannot read checkpoint {path}: {exc}") from exc
    off = 0

    def take(n, what):
        nonlocal off
        if n > len(blob) - off:
            raise CheckpointIOError(f"{path}: truncated in {what} at byte {off}")
        off += n
        return blob[off - n : off]

    def unpack(fmt, what):
        return struct.unpack(fmt, take(struct.calcsize(fmt), what))

    def text(n, what):
        try:
            return str(take(n, what), "utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointIOError(f"{path}: {what} is not UTF-8") from exc

    if take(len(MAGIC), "magic") != MAGIC:
        raise CheckpointIOError(f"{path}: bad magic bytes")
    (version,) = unpack("<I", "version")
    if version != VERSION:
        raise CheckpointIOError(f"{path}: unsupported version {version}")
    (mlen,) = unpack("<I", "meta length")
    try:
        meta = json.loads(text(mlen, "meta"))
    except json.JSONDecodeError as exc:
        raise CheckpointIOError(f"{path}: meta is not valid JSON") from exc
    if not isinstance(meta, dict):
        raise CheckpointIOError(f"{path}: meta is not a JSON object")
    (count,) = unpack("<I", "parameter count")
    params = {}
    for _ in range(count):
        (nlen,) = unpack("<H", "parameter name length")
        name = text(nlen, "parameter name")
        if name in params:
            raise CheckpointIOError(f"{path}: parameter {name!r} appears twice")
        width, ndim = unpack("<BB", f"header of {name!r}")
        if width not in _WIDTH_DTYPE:
            raise CheckpointIOError(f"{path}: parameter {name!r} has "
                                    f"unsupported width {width}")
        shape = unpack(f"<{ndim}I", f"shape of {name!r}")
        data = take(math.prod(shape) * width, f"data of {name!r}")
        params[name] = np.frombuffer(data, dtype=_WIDTH_DTYPE[width]) \
            .reshape(shape).copy()
    if off != len(blob):
        raise CheckpointIOError(f"{path}: {len(blob) - off} unexpected bytes "
                                "after the last parameter")
    return params, meta


def params_digest(params: dict) -> str:
    """SHA-256 hex digest of named arrays: each name, dtype, shape and
    value, in name order."""
    h = hashlib.sha256()
    for name in sorted(params):
        value = np.ascontiguousarray(params[name])
        h.update(f"{name}:{value.dtype.str}:{value.shape}".encode("utf-8"))
        h.update(value.tobytes())
    return h.hexdigest()


class BestCheckpointKeeper:
    """Persists a snapshot only on strict validation-metric improvement.

    Each file's meta is ``meta`` (what ``pageseq eval`` needs to rebuild
    the model), updated with the meta of the :meth:`update` call and the
    score as ``val_macro_f1``.  A parameter set with a non-finite entry
    is never saved: :meth:`update` raises ``ValueError`` instead.
    """

    def __init__(self, path, meta: dict | None = None):
        self.path = path
        self.meta = dict(meta or {})
        self.best_score = -math.inf

    def update(self, score: float, params: dict, meta: dict | None = None) -> bool:
        if not math.isfinite(score):
            raise ValueError(f"validation metric must be finite, got {score}")
        if score <= self.best_score:
            return False
        bad = [name for name, value in params.items()
               if not np.isfinite(value).all()]
        if bad:
            raise ValueError(f"{self.path}: not saved, {len(bad)} parameters "
                             f"are not finite, {bad[0]!r} first")
        meta = {**self.meta, **(meta or {}), "val_macro_f1": score}
        save_checkpoint(self.path, params, meta)
        self.best_score = score
        return True
