import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capforge import fileio
from capforge.errors import FormatError, IntegrityError

W = fileio._ROW_BYTES
CHUNK = W * fileio._CHUNK_ROWS
EDGE_LENGTHS = sorted(
    {1023, 1024, 1025}
    | {k * W + d for k in (1, 2, 3, 7) for d in (-1, 0, 1)}
    | {m * CHUNK + d for m in (1, 2) for d in (-1, 0, 1)}
)


def _oracle(data: bytes) -> int:
    return fileio._update_scalar(0xFFFFFFFF, data) ^ 0xFFFFFFFF


def _random_bytes(n: int, seed: int) -> bytes:
    return np.random.default_rng(seed).integers(0, 256, size=n, dtype=np.uint8).tobytes()


def test_crc32c_check_value():
    # standard CRC32C check vector
    assert fileio.crc32c(b"123456789") == 0xE3069283
    assert fileio.crc32c(b"") == 0


def test_crc32c_vectorized_matches_scalar():
    rng = np.random.default_rng(0)
    for n in [1, 7, 1023, 1024, 1025, 5000, 65537, 250_000]:
        buf = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
        assert fileio.crc32c(buf) == _oracle(buf), n


@settings(max_examples=200, deadline=None)
@given(
    n=st.one_of(st.integers(0, 5000), st.sampled_from(EDGE_LENGTHS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_crc32c_matches_scalar_oracle(n, seed):
    buf = _random_bytes(n, seed)
    assert fileio.crc32c(buf) == _oracle(buf)


@settings(max_examples=50, deadline=None)
@given(
    rows=st.integers(1, 300),
    cols=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_crc32c_accepts_arrays(rows, cols, seed):
    """An array, a strided view of it or a buffer has the CRC of its C-order bytes."""
    mat = np.random.default_rng(seed).standard_normal((rows, cols)).astype(np.float32)
    for view in (mat, mat[:, ::2], mat[::3], mat.T, np.asfortranarray(mat), mat[:, 1:]):
        assert fileio.crc32c(view) == _oracle(view.tobytes())
    blob = mat.tobytes()
    assert fileio.crc32c(bytearray(blob)) == fileio.crc32c(memoryview(blob)) == _oracle(blob)


@settings(max_examples=100, deadline=None)
@given(p=st.integers(0, W - 1), v=st.integers(1, 255))
def test_position_table_entry_is_the_crc_of_a_one_byte_row(p, v):
    row = bytearray(W)
    row[p] = v
    assert int(fileio._position_table(W)[p, v]) == fileio._update_scalar(0, bytes(row))


@settings(max_examples=100, deadline=None)
@given(reg=st.integers(0, 2**32 - 1), width=st.sampled_from([4, 5, 256, W]))
def test_fold_step_advances_the_register_over_a_zero_row(reg, width):
    t0, t1, t2, t3 = fileio._shift_tables(width)
    folded = t0[reg & 0xFF] ^ t1[(reg >> 8) & 0xFF] ^ t2[(reg >> 16) & 0xFF] ^ t3[reg >> 24]
    assert folded == fileio._update_scalar(reg, bytes(width))


def test_crc32c_scratch_memory_is_bounded():
    buf = _random_bytes(16 << 20, 3)
    fileio.crc32c(buf[:CHUNK])  # tables are built once per process, not per call
    tracemalloc.start()
    try:
        fileio.crc32c(buf)
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
