"""Atomic file writes, and the one layout of the .pods, .podb and .podm files:
a 4-byte magic, the u32 ARTIFACT_VERSION, the format's u32 header fields,
then a little-endian payload.  Only write_artifact and read_artifact know it
or hash an artifact, each from the very bytes it writes or parses, and
read_artifact names the file in every format error of a read.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile

import numpy as np

from .errors import SnapshotFormatError

ARTIFACT_VERSION = 1


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename into place;
    a temp file that cannot be created is reported under path."""
    path = str(path)
    d = os.path.dirname(path) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode())


def write_artifact(path, magic: bytes, fields, arrays) -> str:
    """Write magic, ARTIFACT_VERSION and the u32 fields, then each array once,
    in C order, little-endian in its own dtype; return the bytes' sha256."""
    head = magic + struct.pack(f"<{len(fields) + 1}I", ARTIFACT_VERSION, *fields)
    data = bytearray(len(head) + sum(a.nbytes for a in arrays))
    data[:len(head)] = head
    pos = len(head)
    for a in arrays:
        np.frombuffer(data, a.dtype.newbyteorder("<"), a.size, pos).reshape(a.shape)[...] = a
        pos += a.nbytes
    atomic_write_bytes(path, data)
    return hashlib.sha256(data).hexdigest()


def read_artifact(path, magic: bytes, n_fields: int, parse):
    """(parse(fields, payload), sha256) from one read of path: parse gets the
    n_fields u32 header fields and a view of the bytes after them, and the
    digest is the whole file's.  A short header, another magic or another
    version is a SnapshotFormatError, and so is each one parse raises; every
    one names path."""
    with open(path, "rb") as fh:
        data = fh.read()
    size = 4 * (n_fields + 2)
    try:
        if len(data) < size:
            raise SnapshotFormatError(f"truncated header: {len(data)} bytes, need {size}")
        if data[:4] != magic:
            raise SnapshotFormatError(f"bad magic {data[:4]!r}, expected {magic!r}")
        version, *fields = struct.unpack(f"<{n_fields + 1}I", data[4:size])
        if version != ARTIFACT_VERSION:
            raise SnapshotFormatError(f"unsupported {magic.decode()} version {version}")
        obj = parse(fields, memoryview(data)[size:])
    except SnapshotFormatError as exc:
        raise SnapshotFormatError(f"{path}: {exc}") from exc
    return obj, hashlib.sha256(data).hexdigest()
