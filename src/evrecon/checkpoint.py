"""Binary tensor container ("SPKT") for checkpoints and debug dumps.

Layout: magic "SPKT", format version u32, tensor count u32, then per
tensor: name length u32 + UTF-8 name, rank u32, dims u64 each, dtype tag
(f32=1, f64=2), raw little-endian data.

JSON metadata (e.g. a network spec) rides along as a reserved entry named
"__meta_json__" holding the UTF-8 bytes as an f32 vector.
"""

import json
import math
import struct

import numpy as np

from .errors import ParseError

MAGIC = b"SPKT"
VERSION = 1
META_KEY = "__meta_json__"

_DTYPE_TAGS = {1: np.dtype("<f4"), 2: np.dtype("<f8")}


def save_tensors(path, tensors, meta=None):
    """Write a dict of name -> ndarray; `meta` is an optional JSON-able blob."""
    entries = dict(tensors)
    if meta is not None:
        raw = json.dumps(meta).encode("utf-8")
        entries[META_KEY] = np.frombuffer(raw, dtype=np.uint8).astype(np.float32)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(entries)))
        for name, arr in entries.items():
            arr = np.asarray(arr)
            tag = 1 if arr.dtype == np.float32 else 2
            arr = arr.astype(_DTYPE_TAGS[tag], copy=False)
            raw_name = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw_name)))
            fh.write(raw_name)
            fh.write(struct.pack("<I", arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<Q", d))
            fh.write(struct.pack("<B", tag))
            fh.write(arr.tobytes())


def load_tensors(path):
    """Read a container; returns (tensors dict, meta or None).

    Every read goes through one bounds check, so a cut-off or corrupt
    file raises ParseError naming the file and the field it ends in.
    """
    with open(path, "rb") as fh:
        data = memoryview(fh.read())
    if data[:len(MAGIC)] != MAGIC:
        raise ParseError(f"{path}: not an SPKT container")
    pos = len(MAGIC)

    def take(size, what):
        nonlocal pos
        if size > len(data) - pos:
            raise ParseError(f"{path}: file ends inside {what}")
        pos += size
        return data[pos - size:pos]

    def unpack(fmt, what):
        return struct.unpack(fmt, take(struct.calcsize(fmt), what))

    version, count = unpack("<II", "the header")
    if version != VERSION:
        raise ParseError(f"{path}: unsupported container version {version}")
    tensors = {}
    for i in range(count):
        (name_len,) = unpack("<I", f"the name length of tensor {i}")
        try:
            name = bytes(take(name_len, f"the name of tensor {i}")).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: tensor {i} has a malformed name ({exc})") from None
        (rank,) = unpack("<I", f"the header of tensor '{name}'")
        dims = unpack(f"<{rank}Q", f"the header of tensor '{name}'")
        (tag,) = unpack("<B", f"the header of tensor '{name}'")
        if tag not in _DTYPE_TAGS:
            raise ParseError(f"{path}: unknown dtype tag {tag}")
        dtype = _DTYPE_TAGS[tag]
        raw = take(math.prod(dims) * dtype.itemsize, f"the data of tensor '{name}'")
        if name in tensors:
            raise ParseError(f"{path}: tensor '{name}' appears twice")
        try:
            tensors[name] = np.frombuffer(raw, dtype=dtype).reshape(dims).copy()
        except ValueError as exc:  # a zero-size payload with dims numpy cannot hold
            raise ParseError(f"{path}: tensor '{name}' has dims {dims} ({exc})") from None
    meta = None
    if META_KEY in tensors:
        values = tensors.pop(META_KEY)
        if not np.all((values >= 0) & (values <= 255) & (values == np.round(values))):
            raise ParseError(f"{path}: tensor '{META_KEY}' holds a value that is not a byte")
        raw = values.astype(np.uint8).tobytes()
        try:
            meta = json.loads(raw.decode("utf-8"))
        except ValueError as exc:
            raise ParseError(f"{path}: malformed metadata ({exc})") from None
    return tensors, meta
