"""Binary sidecar formats and CRC32C checksumming.

Embedding sidecars: magic ``EMB1``, u32 dim, u64 row count, then
rows*dim little-endian float32 values.  Score sidecars: magic ``SCR1``,
u64 count, then count little-endian float32 values.

CRC32C (Castagnoli) is implemented here because no binding is available:
rows of the input are checksummed column-by-column with numpy, then folded
together with precomputed GF(2) shift operators (the same combine trick
zlib uses for crc32_combine).
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import FormatError, IntegrityError

EMB_MAGIC = b"EMB1"
SCORE_MAGIC = b"SCR1"

_POLY = 0x82F63B78  # reflected Castagnoli polynomial


def _build_table() -> np.ndarray:
    tbl = np.empty(256, dtype=np.uint32)
    for i in range(256):
        c = i
        for _ in range(8):
            c = (c >> 1) ^ (_POLY if c & 1 else 0)
        tbl[i] = c
    return tbl


_TABLE = _build_table()
_TABLE_LIST = [int(x) for x in _TABLE]


def _update_scalar(reg: int, data: bytes) -> int:
    tbl = _TABLE_LIST
    for b in data:
        reg = tbl[(reg ^ b) & 0xFF] ^ (reg >> 8)
    return reg


def _gf2_times(mat: list[int], vec: int) -> int:
    out = 0
    i = 0
    while vec:
        if vec & 1:
            out ^= mat[i]
        vec >>= 1
        i += 1
    return out


def _gf2_square(mat: list[int]) -> list[int]:
    return [_gf2_times(mat, mat[i]) for i in range(32)]


def _zero_shift_matrix(nbytes: int) -> list[int]:
    # advance-by-one-zero-byte operator, then square log2(nbytes) times
    mat = [_TABLE_LIST[(1 << i) & 0xFF] ^ ((1 << i) >> 8) for i in range(32)]
    assert nbytes & (nbytes - 1) == 0
    steps = nbytes.bit_length() - 1
    for _ in range(steps):
        mat = _gf2_square(mat)
    return mat


_FOLD_TABLES: dict[int, tuple[list[int], list[int], list[int], list[int]]] = {}


def _fold_tables(nbytes: int) -> tuple[list[int], list[int], list[int], list[int]]:
    cached = _FOLD_TABLES.get(nbytes)
    if cached is None:
        mat = _zero_shift_matrix(nbytes)
        cached = tuple(
            [_gf2_times(mat, v << (8 * p)) for v in range(256)] for p in range(4)
        )
        _FOLD_TABLES[nbytes] = cached
    return cached


def _row_crcs(block: np.ndarray) -> np.ndarray:
    """update(0, row) for every row of a (rows, width) uint8 block."""
    cols = np.ascontiguousarray(block.T)
    reg = np.zeros(block.shape[0], dtype=np.uint32)
    tbl = _TABLE
    for p in range(cols.shape[0]):
        reg = tbl[(reg ^ cols[p]) & 0xFF] ^ (reg >> 8)
    return reg


def crc32c(data: bytes | bytearray | memoryview | np.ndarray) -> int:
    """CRC32C of a byte buffer (init and final xor 0xFFFFFFFF)."""
    if isinstance(data, np.ndarray):
        buf = np.ascontiguousarray(data).view(np.uint8).ravel()
    else:
        buf = np.frombuffer(data, dtype=np.uint8)
    n = buf.size
    if n < 1024:
        return _update_scalar(0xFFFFFFFF, buf.tobytes()) ^ 0xFFFFFFFF
    # column width ~sqrt(n) balances the vectorized column loop vs the fold loop
    width = 1 << min(14, max(8, (n.bit_length() + 1) // 2))
    rows = n // width
    row_crcs = _row_crcs(buf[: rows * width].reshape(rows, width)).tolist()
    t0, t1, t2, t3 = _fold_tables(width)
    reg = 0xFFFFFFFF
    for c in row_crcs:
        reg = (
            t0[reg & 0xFF]
            ^ t1[(reg >> 8) & 0xFF]
            ^ t2[(reg >> 16) & 0xFF]
            ^ t3[reg >> 24]
            ^ c
        )
    reg = _update_scalar(reg, buf[rows * width :].tobytes())
    return reg ^ 0xFFFFFFFF


def crc32c_hex(data: bytes | bytearray | memoryview | np.ndarray) -> str:
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
    with open(path, "wb") as fh:
        fh.write(encode_embeddings(data))


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
    with open(path, "wb") as fh:
        fh.write(encode_scores(values))
