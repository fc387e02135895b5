import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capforge import fileio
from capforge.errors import FormatError, IntegrityError
from helpers import CRC32_POLY, CRC32C_POLY, scalar_crc


def _random_bytes(n: int, seed: int) -> bytes:
    return np.random.default_rng(seed).integers(0, 256, size=n, dtype=np.uint8).tobytes()


def test_crc32c_check_value():
    # the standard CRC-32 check vector; CRC32C's, which pool format 2 used, is 0xE3069283
    assert fileio.crc32c(b"123456789") == 0xCBF43926
    assert fileio.crc32c(b"") == 0
    assert fileio.crc32c_hex(b"123456789") == "cbf43926"
    assert scalar_crc(b"123456789", CRC32C_POLY) == 0xE3069283


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 5000), seed=st.integers(0, 2**32 - 1))
def test_crc32c_matches_scalar_oracle(n, seed):
    buf = _random_bytes(n, seed)
    assert fileio.crc32c(buf) == scalar_crc(buf, CRC32_POLY)


@settings(max_examples=50, deadline=None)
@given(
    rows=st.integers(1, 300),
    cols=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_crc32c_accepts_byte_buffers(rows, cols, seed):
    """A bytearray or a memoryview has the CRC of its bytes."""
    mat = np.random.default_rng(seed).standard_normal((rows, cols)).astype(np.float32)
    blob = mat.tobytes()
    expected = fileio.crc32c(blob)
    assert fileio.crc32c(bytearray(blob)) == fileio.crc32c(memoryview(blob)) == expected


def test_crc32c_scratch_memory_is_bounded():
    buf = _random_bytes(16 << 20, 3)
    tracemalloc.start()
    try:
        fileio.crc32c(buf)
        fileio.crc32c(memoryview(buf)[1:])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, f"{peak / 2**20:.1f} MiB"


def test_write_atomic_failure_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old bytes\n")

    def chunks():
        yield b"new "
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        fileio.write_atomic(path, chunks())
    assert path.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
    fileio.write_atomic(path, [b"new ", b"bytes"])
    assert path.read_bytes() == b"new bytes"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


@pytest.mark.parametrize("target, error", [
    ("missing/out.bin", FileNotFoundError),
    ("subdir", IsADirectoryError),
    # the temporary's name is 13 or more bytes longer, so neither making
    # nor removing it works, and the error must still name the target
    pytest.param("n" * 250, OSError, id="temporary_name_too_long"),
])
def test_write_atomic_error_names_the_target(tmp_path, target, error):
    (tmp_path / "subdir").mkdir()
    path = tmp_path / target
    with pytest.raises(error) as info:
        fileio.write_atomic(path, b"data")
    assert info.value.filename == str(path)
    assert [p.name for p in tmp_path.iterdir()] == ["subdir"]


def test_embeddings_roundtrip(tmp_path):
    mat = np.random.default_rng(1).standard_normal((17, 5)).astype(np.float32)
    path = tmp_path / "x.f32"
    fileio.write_embeddings(path, mat)
    back = fileio.read_embeddings(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, mat)
    assert back.tobytes() == mat.tobytes()


def test_embeddings_bad_magic(tmp_path):
    path = tmp_path / "x.f32"
    path.write_bytes(b"NOPE" + b"\0" * 20)
    with pytest.raises(FormatError):
        fileio.read_embeddings(path)


def test_embeddings_truncated(tmp_path):
    mat = np.ones((4, 3), dtype=np.float32)
    blob = fileio.encode_embeddings(mat)
    path = tmp_path / "x.f32"
    path.write_bytes(blob[:-5])
    with pytest.raises(IntegrityError):
        fileio.read_embeddings(path)


def test_scores_roundtrip(tmp_path):
    values = np.linspace(-1, 1, 33, dtype=np.float32)
    path = tmp_path / "s.scores.f32"
    fileio.write_scores(path, values)
    assert np.array_equal(fileio.read_scores(path), values)


def test_scores_errors(tmp_path):
    path = tmp_path / "s.scores.f32"
    path.write_bytes(b"XXXX" + b"\0" * 8)
    with pytest.raises(FormatError):
        fileio.read_scores(path)
    blob = fileio.encode_scores(np.zeros(5, dtype=np.float32))
    path.write_bytes(blob[:-1])
    with pytest.raises(IntegrityError):
        fileio.read_scores(path)
