"""Binary sidecar formats, checksums and atomic file writes.

Embedding sidecars: magic ``EMB1``, u32 dim, u64 row count, then
rows*dim little-endian float32 values.  Score sidecars: magic ``SCR1``,
u64 count, then count little-endian float32 values.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import zlib
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import FormatError, IntegrityError

EMB_MAGIC = b"EMB1"
SCORE_MAGIC = b"SCR1"


def crc32c(data: bytes | bytearray | memoryview) -> int:
    """CRC-32 (zlib's, init and final xor 0xFFFFFFFF) of a byte buffer.
    Pool formats 1 and 2 recorded CRC32C; the name stays so that every
    checksum goes through this one module global."""
    return zlib.crc32(data)


def crc32c_hex(data: bytes | bytearray | memoryview) -> str:
    return f"{crc32c(data):08x}"


def read_bytes(path, *, context: str | None = None, checksum: str | None = None) -> bytes:
    """A file's bytes; IntegrityError if it is missing or unequal to ``checksum``."""
    if checksum is not None and not os.path.isfile(path):
        raise IntegrityError(f"{context or path}: missing file")
    with open(path, "rb") as fh:
        blob = fh.read()
    got = None if checksum is None else crc32c_hex(blob)
    if got != checksum:
        raise IntegrityError(f"{context or path}: checksum mismatch: expected {checksum}, got {got}")
    return blob


def read_text(path, error: type[Exception] = FormatError) -> str:
    """A UTF-8 text file's contents; bytes that are not UTF-8 raise ``error``
    naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8: {exc}") from None


def read_json(path, error: type[Exception] = FormatError):
    """The JSON value a UTF-8 file holds; anything else raises ``error``."""
    try:
        return json.loads(read_text(path, error))
    except json.JSONDecodeError as exc:
        raise error(f"{path}: not valid JSON: {exc}") from exc


LONGEST_PID = 9_999_999  # 7 digits: Linux pid_max is at most 4,194,304


def temp_name(name: str, pid: int) -> str:
    """Name of the temporary file ``write_atomic`` writes ``name`` through."""
    return f".{name}.{pid}.tmp"


def write_atomic(path, data: bytes | Iterable[bytes]) -> None:
    """Write ``data`` (bytes, or byte chunks in order) to ``path`` whole or not
    at all: it goes to a temporary file in the same directory, which then
    replaces ``path``.  On any error the temporary file is removed and an
    existing ``path`` keeps its old bytes; an OSError names ``path``."""
    path = Path(path)
    tmp = path.with_name(temp_name(path.name, os.getpid()))
    try:
        with open(tmp, "wb") as fh:
            if isinstance(data, (bytes, bytearray, memoryview)):
                fh.write(data)
            else:
                fh.writelines(data)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):  # so that the error raised names ``path``
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.strerror:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


# ---------------------------------------------------------------------------
# embedding sidecars


def encode_embeddings(data: np.ndarray) -> bytes:
    """Serialize a (rows, dim) float32 matrix into EMB1 bytes."""
    if data.ndim != 2:
        raise ValueError(f"expected 2-d matrix, got shape {data.shape}")
    rows, dim = data.shape
    payload = np.ascontiguousarray(data, dtype="<f4").tobytes()
    return EMB_MAGIC + struct.pack("<IQ", dim, rows) + payload


def decode_embeddings(blob: bytes, *, context: str) -> np.ndarray:
    """Parse EMB1 bytes back into a read-only (rows, dim) float32 matrix."""
    if len(blob) < 16 or blob[:4] != EMB_MAGIC:
        raise FormatError(f"{context}: not an EMB1 embedding sidecar")
    dim, rows = struct.unpack_from("<IQ", blob, 4)
    expected = 16 + rows * dim * 4
    if len(blob) != expected:
        raise IntegrityError(
            f"{context}: expected {expected} bytes for {rows}x{dim}, got {len(blob)}"
        )
    mat = np.frombuffer(blob, dtype="<f4", offset=16).reshape(rows, dim)
    return mat


def read_embeddings(path, *, context: str | None = None,
                    checksum: str | None = None) -> np.ndarray:
    blob = read_bytes(path, context=context, checksum=checksum)
    return decode_embeddings(blob, context=context or str(path))


def write_embeddings(path, data: np.ndarray) -> None:
    write_atomic(path, encode_embeddings(data))


# ---------------------------------------------------------------------------
# score sidecars


def encode_scores(values: np.ndarray) -> bytes:
    values = np.ascontiguousarray(values, dtype="<f4")
    if values.ndim != 1:
        raise ValueError(f"expected 1-d score array, got shape {values.shape}")
    return SCORE_MAGIC + struct.pack("<Q", values.size) + values.tobytes()


def decode_scores(blob: bytes, *, context: str) -> np.ndarray:
    if len(blob) < 12 or blob[:4] != SCORE_MAGIC:
        raise FormatError(f"{context}: not an SCR1 score sidecar")
    (count,) = struct.unpack_from("<Q", blob, 4)
    expected = 12 + count * 4
    if len(blob) != expected:
        raise IntegrityError(
            f"{context}: expected {expected} bytes for {count} scores, got {len(blob)}"
        )
    return np.frombuffer(blob, dtype="<f4", offset=12)


def read_scores(path, *, context: str | None = None) -> np.ndarray:
    blob = read_bytes(path, context=context)
    return decode_scores(blob, context=context or str(path))


def write_scores(path, values: np.ndarray) -> None:
    write_atomic(path, encode_scores(values))
