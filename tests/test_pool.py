import hashlib
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capforge import fileio
from capforge.cli import cli_main
from capforge.curation import (
    ClusterParams, CuratedSet, StrategySpec, apply_strategy, in1k_cluster_mask,
)
from capforge.errors import CapforgeError, DataError, FormatError, IntegrityError
from capforge.pool import (
    ShardColumns,
    check_captions,
    decode_shard,
    encode_shard,
    materialize,
    open_pool,
    shard_layout,
    validate_pool,
    write_pool,
)
from capforge.scoring import ScoreTables, score_pool
from helpers import (
    BROKEN_POOLS, RESHAPED_SIDECARS, CaptionVariant, Record, break_pool, broken_pool_inputs,
    build_plain_pool, handle_captions, materialize_by_records, read_records, record_captions,
    record_columns, replace_pool_file, unit_rows, write_broken_pool, write_nan_raw_pool,
    write_records, write_reshaped_pool,
)


def _records(n, variants=(("blip2", 0.75),)):
    return [
        Record(
            id=i,
            raw_caption=f"caption number {i}",
            synthetic_variants=[CaptionVariant(s, t, f"alt {s} {i}") for s, t in variants],
        )
        for i in range(n)
    ]


def test_empty_pool(tmp_path):
    manifest = write_records([], {"image": np.zeros((0, 4), dtype=np.float32)}, tmp_path)
    assert manifest.num_records == 0
    assert manifest.num_shards == 0
    handle = open_pool(tmp_path)
    assert handle.num_records == 0
    assert validate_pool(handle).ok
    assert handle.rows([]).tolist() == []
    with pytest.raises(DataError, match="^curated entry references unknown record id 3$"):
        handle.rows([3])


def test_ceiling_division_sharding(tmp_path):
    rng = np.random.default_rng(0)
    write_records(
        _records(3),
        {"image": unit_rows(rng, 3, 4), "raw": unit_rows(rng, 3, 4),
         "syn.blip2.0.75": unit_rows(rng, 3, 4)},
        tmp_path,
        records_per_shard=2,
    )
    handle = open_pool(tmp_path)
    assert handle.manifest.num_shards == 2
    assert shard_layout(handle.num_records, handle.manifest.records_per_shard) == [2, 1]


def test_shard_layout_pure_function():
    assert shard_layout(0, 10) == []
    assert shard_layout(10, 10) == [10]
    assert shard_layout(11, 10) == [10, 1]
    assert shard_layout(25, 10) == [10, 10, 5]


def test_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    records = _records(100, variants=(("blip2", 0.75), ("coca", 1.5)))
    records[3].raw_caption = "unicode caption Ünal – café"
    embs = {
        "image": unit_rows(rng, 100, 6),
        "raw": unit_rows(rng, 100, 6),
        "syn.blip2.0.75": unit_rows(rng, 100, 6),
        "syn.coca.1.50": unit_rows(rng, 100, 6),
    }
    write_records(records, embs, tmp_path, records_per_shard=30)
    handle = open_pool(tmp_path)
    assert read_records(tmp_path) == records
    assert handle_captions(handle) == record_captions(records)
    for source, mat in embs.items():
        assert handle.embeddings(source).tobytes() == mat.tobytes()


def test_line_separators_inside_captions_round_trip(tmp_path):
    records = _records(3)
    records[0].raw_caption = "next\x85line"
    records[1].raw_caption = "form\x0cfeed"
    records[2].synthetic_variants[0] = CaptionVariant("blip2", 0.75, "line\u2028sep\u2029par")
    rng = np.random.default_rng(0)
    embs = {s: unit_rows(rng, 3, 4) for s in ("image", "raw", "syn.blip2.0.75")}
    write_records(records, embs, tmp_path)
    handle = open_pool(tmp_path)
    assert read_records(tmp_path) == records
    assert handle_captions(handle) == record_captions(records)
    assert validate_pool(handle).ok


def test_open_rejects_unknown_version(tmp_path):
    build_plain_pool(tmp_path, 4)
    manifest_path = tmp_path / "manifest.json"
    obj = json.loads(manifest_path.read_text())
    obj["format_version"] = 999
    manifest_path.write_text(json.dumps(obj))
    with pytest.raises(FormatError, match="999"):
        open_pool(tmp_path)


def test_open_missing_manifest(tmp_path):
    with pytest.raises(FormatError):
        open_pool(tmp_path)


def test_open_truncated_sidecar_names_shard_and_source(tmp_path):
    build_plain_pool(tmp_path, 10, records_per_shard=4)
    victim = tmp_path / "shard-00001.image.f32"
    victim.write_bytes(victim.read_bytes()[:-8])
    handle = open_pool(tmp_path)
    with pytest.raises(IntegrityError, match="shard-00001.image.f32"):
        handle.embeddings("image")


def test_open_checksum_mismatch(tmp_path):
    build_plain_pool(tmp_path, 10, records_per_shard=4)
    victim = tmp_path / "shard-00000.cap"
    blob = bytearray(victim.read_bytes())
    blob[5] ^= 0xFF
    victim.write_bytes(bytes(blob))
    handle = open_pool(tmp_path)
    with pytest.raises(IntegrityError, match="shard-00000.cap"):
        handle.records()


@pytest.mark.parametrize("edit, match", [
    ("drop", "lacks checksum for shard-00001.raw.f32"),
    ("stray", "stray file notes.txt"),
])
def test_open_rejects_checksum_names_off_the_layout(tmp_path, edit, match):
    build_plain_pool(tmp_path, 10, records_per_shard=4)
    manifest_path = tmp_path / "manifest.json"
    obj = json.loads(manifest_path.read_text())
    if edit == "drop":
        del obj["checksums"]["shard-00001.raw.f32"]
    else:
        (tmp_path / "notes.txt").write_bytes(b"x")
        obj["checksums"]["notes.txt"] = fileio.crc32c_hex(b"x")
    manifest_path.write_text(json.dumps(obj))
    with pytest.raises(IntegrityError, match=match):
        open_pool(tmp_path)


def test_missing_pool_file_is_an_integrity_error(tmp_path):
    build_plain_pool(tmp_path, 10, records_per_shard=4)
    (tmp_path / "shard-00002.cap").unlink()
    with pytest.raises(IntegrityError, match="shard-00002.cap: missing file"):
        open_pool(tmp_path).records()


def test_each_pool_file_is_checksummed_on_its_first_read_only(tmp_path, monkeypatch):
    manifest = build_plain_pool(tmp_path, 10, records_per_shard=4)
    crcs = []
    crc32c = fileio.crc32c

    def counted(data):
        crcs.append(f"{crc32c(data):08x}")
        return int(crcs[-1], 16)

    def checked():
        found = sorted(crcs)
        crcs.clear()
        return found

    monkeypatch.setattr(fileio, "crc32c", counted)
    handle = open_pool(tmp_path)
    assert checked() == []
    assert validate_pool(handle).ok
    assert checked() == sorted(manifest.checksums.values())

    # files no call reads (the blip2 sidecars) are never checked
    handle = open_pool(tmp_path)
    for _ in range(2):
        handle.records()
        score_pool(handle, "raw", write_sidecar=False)
    read = [crc for name, crc in manifest.checksums.items() if "blip2" not in name]
    assert checked() == sorted(read)


def test_write_pool_length_mismatch(tmp_path):
    rng = np.random.default_rng(0)
    with pytest.raises(DataError, match="vectors for"):
        write_records(
            _records(3),
            {"image": unit_rows(rng, 2, 4), "raw": unit_rows(rng, 3, 4)},
            tmp_path,
        )


def test_write_pool_nonfinite(tmp_path):
    mat = np.ones((3, 4), dtype=np.float32)
    mat[1, 2] = np.nan
    with pytest.raises(DataError, match="non-finite"):
        write_records(_records(3), {"image": mat}, tmp_path)


def test_write_pool_requires_image(tmp_path):
    with pytest.raises(DataError, match="image"):
        write_records(_records(1), {"raw": np.ones((1, 4), dtype=np.float32)}, tmp_path)


def test_write_pool_refuses_a_non_empty_directory(tmp_path):
    image = {s: np.ones((3, 4), dtype=np.float32) for s in ("image", "syn.blip2.0.75")}
    write_records(_records(3), image, tmp_path / "pool")
    before = sorted(p.name for p in (tmp_path / "pool").iterdir())
    with pytest.raises(DataError, match="not empty"):
        write_records(_records(2), {s: m[:2] for s, m in image.items()}, tmp_path / "pool")
    assert sorted(p.name for p in (tmp_path / "pool").iterdir()) == before
    (tmp_path / "empty").mkdir()
    write_records(_records(3), image, tmp_path / "empty")  # an empty directory is fine


def test_validate_clean(tmp_path):
    build_plain_pool(tmp_path, 20, records_per_shard=7)
    assert validate_pool(open_pool(tmp_path)).ok


def test_validate_duplicate_id(tmp_path, capsys):
    """A 5-record pool whose shard-00001.cap repeats id 1 is one finding
    naming the id, and `mix --strategy raw_all` refuses it rather than
    keeping 4 of its 5 records."""
    write_broken_pool(tmp_path / "pool", "repeated_id")
    report = validate_pool(open_pool(tmp_path / "pool"))
    assert [(f.kind, f.file, f.message) for f in report.findings] == [
        ("duplicate_id", None, "id 1 appears more than once")]
    with pytest.raises(IntegrityError, match="^id 1 appears more than once$"):
        open_pool(tmp_path / "pool").records()
    capsys.readouterr()
    assert cli_main(["mix", "--strategy", "raw_all", "--pool", str(tmp_path / "pool"),
                     "--out", str(tmp_path / "c.jsonl")]) == 2
    assert capsys.readouterr().err == "error: id 1 appears more than once\n"
    assert not (tmp_path / "c.jsonl").exists()


def test_validate_reports_a_variant_label_listed_twice_as_its_shard(tmp_path, capsys):
    """Pool row 3 lists "syn.b.1.00" twice: the shard read refuses it, so
    `syn_all` cannot silently take the first of the two variants."""
    write_broken_pool(tmp_path / "pool", "repeated_label")
    message = "shard-00001.cap: row 1 lists a variant label twice"
    report = validate_pool(open_pool(tmp_path / "pool"))
    assert [(f.kind, f.file, f.message) for f in report.findings] == [
        ("shard_error", "shard-00001.cap", message)]
    with pytest.raises(FormatError, match=f"^{message}$"):
        open_pool(tmp_path / "pool").variant_index("syn.b.1.00")
    capsys.readouterr()
    assert cli_main(["mix", "--strategy", "syn_all", "--syn-source", "syn.b.1.00", "--pool",
                     str(tmp_path / "pool"), "--out", str(tmp_path / "c.jsonl")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "c.jsonl").exists()


_SOURCES = [("blip2", 0.75), ("coca", 1.0), ("ghost", 0.5)]
_CAPTIONS = st.text(st.sampled_from(["a", " ", "\x85", "\u2028", '"', "\\", "é"]), max_size=5)


@settings(max_examples=60, deadline=None)
@given(
    pool=st.lists(
        st.tuples(
            st.integers(-(2**63), 2**63 - 1),
            _CAPTIONS,
            st.lists(st.tuples(st.sampled_from(_SOURCES), _CAPTIONS), max_size=3,
                     unique_by=lambda variant: variant[0]),
        ),
        max_size=30,
        unique_by=lambda record: record[0],
    ),
    records_per_shard=st.integers(1, 7),
)
def test_caption_table_reads_every_record(pool, records_per_shard):
    records = [
        Record(id=rec_id, raw_caption=raw, synthetic_variants=[
            CaptionVariant(src, temp, text) for (src, temp), text in variants])
        for rec_id, raw, variants in pool
    ]
    with tempfile.TemporaryDirectory() as path:
        sources = ["image", *(f"syn.{src}.{temp:.2f}" for src, temp in _SOURCES)]
        write_records(records, {s: np.ones((len(records), 2), np.float32) for s in sources}, path,
                      records_per_shard=records_per_shard)
        handle = open_pool(path)
        table = handle.records()
        assert len(table) == len(records)
        expected = record_captions(records)
        for row, (rec_id, captions) in enumerate(expected):
            assert handle.ids()[row] == rec_id
            for cap, caption in enumerate(captions, -1):
                assert handle.caption(row, cap) == caption
            # -2, and every variant position from the record's own count to the
            # pool's width W inclusive
            for cap in [-2, *range(len(captions) - 1, table.labels.shape[1] + 1)]:
                message = (f"^curated entry references variant {cap} of record {rec_id} "
                           f"which has {len(captions) - 1} variants$")
                with pytest.raises(DataError, match=message):
                    handle.caption(row, cap)
                with pytest.raises(DataError, match=message):
                    handle.caption_ids(np.array([row]), np.array([cap]))
            labels = [label for label, _ in captions[1:]]
            for src, temp in _SOURCES:
                label = f"syn.{src}.{temp:.2f}"
                want = labels.index(label) if label in labels else -1
                assert handle.variant_index(label)[row] == want
        first_seen = [label for _, captions in expected for label, _ in captions[1:]]
        assert handle.variant_labels() == list(dict.fromkeys(first_seen))
        # one call over every (row, cap) pair: captions numbered in shard order
        rows = np.array([row for row, (_, captions) in enumerate(expected) for _ in captions],
                        np.int64)
        caps = np.array([cap for _, captions in expected for cap in range(-1, len(captions) - 1)],
                        np.int64)
        source_ids, numbers = handle.caption_ids(rows, caps)
        assert numbers.tolist() == list(range(len(rows)))
        assert [(table.sources[source], table.text[table.offsets[i] : table.offsets[i + 1]]
                 .decode()) for source, i in zip(source_ids.tolist(), numbers.tolist())] == [
            handle.caption(row, cap) for row, cap in zip(rows.tolist(), caps.tolist())]


def test_a_caption_label_no_record_lists_has_no_variants(tmp_path):
    """The manifest lists "syn.a.1.00" but no record carries a variant
    (W = 0): every record's position is -1, and no variant is listed."""
    columns, _ = record_columns([Record(i, f"raw {i}") for i in range(3)])
    rng = np.random.default_rng(0)
    write_pool(columns, ["syn.a.1.00"], {s: unit_rows(rng, 3, 4) for s in ("image", "syn.a.1.00")},
               tmp_path / "pool")
    handle = open_pool(tmp_path / "pool")
    assert handle.records().labels.shape == (3, 0)
    assert handle.variant_index("syn.a.1.00").tolist() == [-1, -1, -1]
    assert handle.variant_index("raw").tolist() == [-1, -1, -1]
    assert handle.variant_labels() == []
    with pytest.raises(DataError, match="^curated entry references variant 0 of record 2 "
                                        "which has 0 variants$"):
        handle.caption_ids(np.array([0, 2]), np.array([-1, 0]))


# three records with two, one and no variants: (ids, prov, labels, texts)
_SHARD = ([5, 6, 7], [-1, 2, -1], [[0, 1], [1, -1], [-1, -1]],
          ["r5", "a5", "b5", "r6", "b6", "r7"])
_SHARD_RECORDS = [
    Record(5, "r5", [CaptionVariant("a", 1.0, "a5"), CaptionVariant("b", 1.0, "b5")]),
    Record(6, "r6", [CaptionVariant("b", 1.0, "b6")], prov=2),
    Record(7, "r7"),
]


def _encode(ids=_SHARD[0], prov=_SHARD[1], labels=_SHARD[2], texts=_SHARD[3], offsets=None):
    data = [t.encode("utf-8") if isinstance(t, str) else t for t in texts]
    if offsets is None:
        offsets = np.cumsum([0, *map(len, data)])
    return encode_shard(ShardColumns(
        np.array(ids, np.int64), np.array(prov, np.int64), np.array(labels, np.int16),
        np.array(offsets, np.uint64), b"".join(data)))


_SHARD_EMBEDDINGS = {s: np.ones((3, 2), np.float32) for s in ("image", "syn.a.1.00", "syn.b.1.00")}


def test_write_pool_writes_the_shard_layout(tmp_path):
    write_records(_SHARD_RECORDS, _SHARD_EMBEDDINGS, tmp_path)
    assert (tmp_path / "shard-00000.cap").read_bytes() == _encode()
    assert json.loads((tmp_path / "manifest.json").read_text())["caption_labels"] == [
        "syn.a.1.00", "syn.b.1.00"]
    assert read_records(tmp_path) == _SHARD_RECORDS
    ids, labels, offsets, text = decode_shard(_encode(), context="s", num_labels=2)
    assert ids.tolist() == _SHARD[0]
    assert labels.tolist() == _SHARD[2]
    assert [text[a:b].decode() for a, b in zip(offsets, offsets[1:])] == _SHARD[3]


_OFFSETS = [0, 2, 4, 6, 8, 10, 12]


@pytest.mark.parametrize("edit, error, match", [
    pytest.param(lambda: b"CAP1" + _encode()[4:], FormatError, "not a CAP2 caption shard",
                 id="bad_magic"),
    pytest.param(lambda: _encode()[:60], IntegrityError, "60 bytes, its header implies at least 76",
                 id="shorter_than_its_header"),
    pytest.param(lambda: _encode()[:-1], FormatError, "caption offsets do not rise from 0",
                 id="offsets_past_the_buffer"),
    pytest.param(lambda: _encode() + b"x", FormatError, "caption offsets do not rise from 0",
                 id="offsets_short_of_the_buffer"),
    pytest.param(lambda: _encode(offsets=[1, *_OFFSETS[1:]]), FormatError,
                 "caption offsets do not rise from 0", id="offsets_not_from_zero"),
    pytest.param(lambda: _encode(offsets=[0, 4, 2, *_OFFSETS[3:]]), FormatError,
                 "caption offsets do not rise from 0", id="offsets_decrease"),
    pytest.param(lambda: _encode(labels=[[0, 2], [1, -1], [-1, -1]]), FormatError,
                 r"label 2 outside \[-1, 2\)", id="label_past_the_list"),
    pytest.param(lambda: _encode(labels=[[0, 1], [1, -2], [-1, -1]]), FormatError,
                 r"label -2 outside \[-1, 2\)", id="label_below_minus_one"),
    pytest.param(lambda: _encode(labels=[[0, 1], [-1, 1], [-1, -1]]), FormatError,
                 "row 1 pads before a variant", id="pad_before_a_variant"),
    pytest.param(lambda: _encode(labels=[[1, 1], [1, -1], [-1, -1]]), FormatError,
                 "row 0 lists a variant label twice", id="label_twice_in_a_row"),
    pytest.param(lambda: _encode(texts=["r5", "a5", b"\xff5", "r6", "b6", "r7"]), FormatError,
                 "a caption is not UTF-8", id="invalid_utf8"),
    pytest.param(lambda: _encode(texts=["r5", "a5", b"\xc3", b"\xa95", "b6", "r7"]), FormatError,
                 "a caption is not UTF-8", id="character_split_between_captions"),
])
def test_shard_decoder_check_is_an_error_and_a_finding(tmp_path, edit, error, match):
    blob = edit()
    with pytest.raises(error, match=f"^shard-00000.cap: {match}"):
        decode_shard(blob, context="shard-00000.cap", num_labels=2)
    write_records(_SHARD_RECORDS, _SHARD_EMBEDDINGS, tmp_path)
    replace_pool_file(tmp_path, "shard-00000.cap", blob)
    with pytest.raises(error, match=match):
        open_pool(tmp_path).records()
    findings = validate_pool(open_pool(tmp_path)).by_kind("shard_error")
    assert [f.file for f in findings] == ["shard-00000.cap"]
    assert match.replace("\\", "") in findings[0].message


@settings(max_examples=200, deadline=None)
@given(
    cut=st.one_of(st.none(), st.integers(0, 120)),
    flips=st.lists(st.tuples(st.integers(0, 119), st.integers(1, 255)), max_size=4),
)
def test_shard_decoder_raises_only_format_or_integrity_errors(cut, flips):
    blob = bytearray(_encode())
    for at, mask in flips:
        if at < len(blob):
            blob[at] ^= mask
    try:
        decode_shard(bytes(blob[:cut]), context="shard-00007.cap", num_labels=2)
    except (FormatError, IntegrityError) as exc:
        assert str(exc).startswith("shard-00007.cap: ")


@settings(max_examples=500, deadline=None)
@given(
    pieces=st.lists(st.one_of(
        st.text(max_size=3).map(lambda t: t.encode("utf-8")),
        st.binary(max_size=3),
        st.sampled_from([b"\xc3", b"\xa9", b"\xe2\x82", b"\xac", b"\xed\xa0\x80", b"\xf4\x90"]),
    ), max_size=8),
    data=st.data(),
)
def test_shard_utf8_check_accepts_what_a_per_caption_decode_accepts(pieces, data):
    text = b"".join(pieces)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(text)), max_size=6)))
    offsets = [0, *cuts, len(text)]
    captions = [text[a:b] for a, b in zip(offsets, offsets[1:])]
    blob = encode_shard(ShardColumns(
        np.arange(len(captions), dtype=np.int64), np.full(len(captions), -1, np.int64),
        np.zeros((len(captions), 0), np.int16), np.array(offsets, np.uint64), text))
    try:
        for caption in captions:
            caption.decode("utf-8")
    except UnicodeDecodeError:
        with pytest.raises(FormatError, match="^s: a caption is not UTF-8"):
            decode_shard(blob, context="s", num_labels=0)
    else:
        _, _, got, buffer = decode_shard(blob, context="s", num_labels=0)
        assert (got.tolist(), buffer) == (offsets, text)


def test_write_pool_refuses_more_labels_than_a_shard_indexes(tmp_path):
    many = [CaptionVariant(f"s{i}", 1.0, "") for i in range(2**15)]
    with pytest.raises(DataError, match="lists 32768 caption labels, more than 32767$"):
        write_records([Record(0, "r", many)], {"image": np.ones((1, 2), np.float32)},
                      tmp_path / "pool")
    assert not (tmp_path / "pool").exists()


@pytest.mark.parametrize("name", ["a/b", "a\x00b", "\ud800"])
def test_write_pool_refuses_a_source_that_cannot_name_a_file(tmp_path, name):
    image = np.ones((1, 2), np.float32)
    with pytest.raises(DataError, match="source name"):
        write_records(_records(1), {"image": image, name: image}, tmp_path / "pool")
    assert not (tmp_path / "pool").exists()


def test_write_pool_refuses_a_source_too_long_for_its_last_shard_file(tmp_path):
    """"shard-00000.{source}.f32" takes 16 bytes beside the source, and a
    pool of 100,001 shards has a 6-digit last shard.  (The longest source any
    pool takes is shorter: see the score sidecar test below.)"""
    image = np.ones((1, 2), np.float32)
    blip2 = {"syn.blip2.0.75": image}
    write_records(_records(1), {"image": image, **blip2, "s" * 231: image}, tmp_path / "fits")
    assert (tmp_path / "fits" / f"shard-00000.{'s' * 231}.f32").exists()
    with pytest.raises(DataError, match="source name too long: .* takes 256 bytes"):
        write_records(_records(1), {"image": image, **blip2, "s" * 240: image}, tmp_path / "pool")
    assert not (tmp_path / "pool").exists()
    records = [Record(i, "r") for i in range(100_001)]
    image = np.ones((100_001, 2), np.float32)
    with pytest.raises(DataError, match="source name too long: .* takes 256 bytes"):
        write_records(records, {"image": image, "s" * 239: image}, tmp_path / "pool",
                      records_per_shard=1)
    assert not (tmp_path / "pool").exists()


def test_write_pool_refuses_a_source_too_long_for_its_score_sidecar(tmp_path, capsys):
    """`score` writes "{source}.scores.f32" through ".{name}.{pid}.tmp", 24
    bytes beside the source with a 7-digit pid: 231 bytes is the most."""
    image = np.ones((1, 2), np.float32)
    blip2 = {"syn.blip2.0.75": image}
    with pytest.raises(DataError, match=r"source name too long: .*\.9999999\.tmp' takes 256"):
        write_records(_records(1), {"image": image, **blip2, "s" * 232: image}, tmp_path / "pool")
    assert not (tmp_path / "pool").exists()
    write_records(_records(1), {"image": image, **blip2, "s" * 231: image}, tmp_path / "fits")
    capsys.readouterr()
    assert cli_main(["score", "--pool", str(tmp_path / "fits"), "--source", "s" * 231]) == 0
    assert (tmp_path / "fits" / f"{'s' * 231}.scores.f32").exists()


# two records without variants, and the edit that makes one column unfit
_COLUMNS = ShardColumns(np.array([1, 2]), np.array([-1, 3]), np.zeros((2, 0), np.int64),
                        np.array([0, 1, 2]), b"ab")


@pytest.mark.parametrize("edit, match", [
    pytest.param({"ids": np.array([1.7, 2.2])}, "column ids must be 1-d integers, got float64",
                 id="float_ids"),
    pytest.param({"prov": np.array([-1.0, 3.9])}, "column prov must be 1-d integers, got float64",
                 id="float_prov"),
    pytest.param({"labels": np.zeros((2, 0))}, "column labels must be 2-d integers, got float64",
                 id="float_labels"),
    pytest.param({"offsets": np.array([0.0, 1.0, 2.0])}, "column offsets must be 1-d integers",
                 id="float_offsets"),
    pytest.param({"ids": np.array([[1, 2]])}, r"column ids must be 1-d integers, got int64 of "
                 r"shape \(1, 2\)", id="ids_2d"),
    pytest.param({"labels": np.array([0, 0])}, "column labels must be 2-d integers",
                 id="labels_1d"),
    pytest.param({"ids": [1, "2"]}, "column ids must be 1-d integers, got <U21",
                 id="string_ids"),
    pytest.param({"ids": np.array([1, 2**63], np.uint64)},
                 "columns ids and prov must fit int64", id="ids_past_int64"),
    pytest.param({"prov": np.array([-1])}, "columns ids, prov and labels must hold one row per "
                 "record, got 2, 1 and 2 rows", id="prov_short"),
    pytest.param({"labels": np.zeros((3, 0), np.int64)}, "columns ids, prov and labels must "
                 "hold one row per record, got 2, 2 and 3 rows", id="labels_long"),
    pytest.param({"offsets": np.array([0, 2])}, "captions: caption offsets do not rise from "
                 "0 to the 2-byte text buffer's end", id="offsets_short"),
    pytest.param({"text": "ab"}, "column text must be bytes, got str", id="str_text"),
    pytest.param({"text": bytearray(b"ab")}, "column text must be bytes, got bytearray",
                 id="bytearray_text"),
])
def test_write_pool_refuses_columns_it_would_cast_lossily(tmp_path, edit, match):
    """A column numpy would cast to its shard type with a loss (a float id
    truncated, an id past int64 wrapped) or of the wrong shape or length is
    one DataError, before the directory is made."""
    image = {"image": unit_rows(np.random.default_rng(0), 2, 4)}
    with pytest.raises(DataError, match=f"^{match}") as info:
        write_pool(_COLUMNS._replace(**edit), [], image, tmp_path / "pool")
    assert len(str(info.value).splitlines()) == 1
    assert not (tmp_path / "pool").exists()
    write_pool(_COLUMNS, [], image, tmp_path / "pool")
    assert [(r.id, r.prov) for r in read_records(tmp_path / "pool")] == [(1, None), (2, 3)]


def _file_digests(pool_dir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in Path(pool_dir).iterdir()}


@pytest.mark.parametrize("mix", ["concat", "empty"])
def test_materialize_writes_the_files_the_record_path_writes(tmp_path, mix):
    """Gathered columns give every file, byte for byte, that one Record per
    curated entry gave, on a two-captioner pool with non-ASCII and empty
    captions, for a mix that repeats ids and for an empty one."""
    texts = ["café Ünal", "", "东京 🚀 night", "plain words", "naïve – test", "x"]
    sources = [("blip2", 0.75), ("coca", 1.0)]
    records = [Record(3 * i + 1, texts[i % 6], [
        CaptionVariant(src, temp, texts[(i + k + 1) % 6] * (i % 3))
        for k, (src, temp) in enumerate(sources[:: 1 if i % 4 else -1])]) for i in range(40)]
    rng = np.random.default_rng(5)
    write_records(records, {s: unit_rows(rng, 40, 4) for s in (
        "image", "raw", "syn.blip2.0.75", "syn.coca.1.00")}, tmp_path / "pool",
        records_per_shard=7)
    handle = open_pool(tmp_path / "pool")
    if mix == "empty":
        curated = CuratedSet([], StrategySpec("raw_all"))
    else:
        spec = StrategySpec("concat_top_plus_syn_rest_filtered", p=40, syn_source="blip2")
        curated = apply_strategy(handle, spec, ScoreTables(handle))
        ids = curated.ids().tolist()
        assert len(set(ids)) < len(ids)
    materialize(handle, curated, tmp_path / "out")
    materialize_by_records(handle, curated, tmp_path / "oracle")
    assert _file_digests(tmp_path / "out") == _file_digests(tmp_path / "oracle")
    assert validate_pool(open_pool(tmp_path / "out")).ok


_TEXT = st.text(st.sampled_from(["a", " ", "é", "东", "🚀"]), max_size=4)
_LABELS = [f"syn.s{i}.1.00" for i in range(4)]


def _break_columns(violation, labels, offsets, text, data):
    """Break one ``check_captions`` rule in place where the columns allow it;
    returns whether it did."""
    counts = (labels >= 0).sum(axis=1)
    if violation == "label":
        rows = np.flatnonzero(counts)
        if rows.size:
            labels[data.draw(st.sampled_from(rows.tolist())), 0] = data.draw(
                st.sampled_from([4, 100, -2]))
        return bool(rows.size)
    if violation == "pad":
        rows = np.flatnonzero((counts > 0) & (counts < labels.shape[1]))
        if rows.size:
            row = data.draw(st.sampled_from(rows.tolist()))
            labels[row] = np.roll(labels[row], 1)
        return bool(rows.size)
    if violation == "twice":
        rows = np.flatnonzero(counts > 1)
        if rows.size:
            row = data.draw(st.sampled_from(rows.tolist()))
            labels[row, 1] = labels[row, 0]
        return bool(rows.size)
    if violation == "falling":
        if len(offsets) > 2:
            offsets[data.draw(st.integers(1, len(offsets) - 2))] = offsets[-1] + 1
        return len(offsets) > 2
    if violation == "split":  # a caption boundary moved inside a character
        inside = np.flatnonzero((np.frombuffer(text, np.uint8) & 0xC0) == 0x80)
        for i in range(1, len(offsets) - 1):
            near = inside[(inside >= offsets[i - 1]) & (inside <= offsets[i + 1])]
            if near.size:
                offsets[i] = near[0]
                return True
    return False


@settings(max_examples=200, deadline=None)
@given(
    records=st.lists(st.tuples(_TEXT, st.lists(st.tuples(st.integers(0, 3), _TEXT), max_size=3,
                                               unique_by=lambda variant: variant[0])),
                     max_size=12),
    extra_width=st.integers(0, 2),
    records_per_shard=st.integers(1, 5),
    violation=st.sampled_from([None, "label", "pad", "twice", "falling", "split"]),
    data=st.data(),
)
def test_write_pool_stores_slices_of_its_columns_and_refuses_what_the_check_refuses(
        records, extra_width, records_per_shard, violation, data):
    """Every shard holds its rows' slice of each column, offsets re-based to
    0, at the pool's width; with at most one ``check_captions`` rule broken,
    ``write_pool`` raises exactly when the check does, with its message, and
    leaves no directory."""
    n = len(records)
    ids = np.array(data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n, unique=True)),
                   np.int64)
    prov = np.array(data.draw(st.lists(st.integers(-1, 50), min_size=n, max_size=n)), np.int64)
    width = max((len(variants) for _, variants in records), default=0) + extra_width
    labels = np.full((n, width), -1, np.int64)
    captions = []
    for row, (raw, variants) in enumerate(records):
        labels[row, : len(variants)] = [label for label, _ in variants]
        captions += [raw.encode(), *(text.encode() for _, text in variants)]
    offsets, text = np.cumsum([0, *map(len, captions)]), b"".join(captions)
    broken = _break_columns(violation, labels, offsets, text, data)
    try:
        check_captions(labels, offsets, text, context="captions", num_labels=4, error=DataError)
        refusal = None
    except DataError as exc:
        refusal = str(exc)
    assert (refusal is not None) == broken
    columns = ShardColumns(ids, prov, labels, offsets, text)
    embeddings = {s: np.ones((n, 2), np.float32) for s in ["image", *_LABELS]}
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "pool"
        if refusal is not None:
            with pytest.raises(DataError, match=f"^{re.escape(refusal)}$"):
                write_pool(columns, _LABELS, embeddings, path, records_per_shard=records_per_shard)
            assert not path.exists()
            return
        write_pool(columns, _LABELS, embeddings, path, records_per_shard=records_per_shard)
        handle = open_pool(path)
        table = handle.records()
        assert table.ids.tolist() == ids.tolist()
        assert handle_captions(handle) == [
            (int(ids[row]), [("raw", raw), *((_LABELS[label], t) for label, t in variants)])
            for row, (raw, variants) in enumerate(records)]
        assert [r.prov for r in read_records(path)] == [None if p == -1 else p for p in prov]
        first = np.cumsum([0, *(1 + len(variants) for _, variants in records)])
        for k in range(handle.manifest.num_shards):
            a, b = k * records_per_shard, min(n, (k + 1) * records_per_shard)
            got_ids, got_labels, got_offsets, got_text = handle.shard_columns(k)
            bounds = offsets[first[a] : first[b] + 1]
            assert got_ids.tolist() == ids[a:b].tolist()
            assert got_labels.dtype == np.int16 and got_labels.tolist() == labels[a:b].tolist()
            assert got_offsets.tolist() == (bounds - bounds[0]).tolist()
            assert got_text == text[bounds[0] : bounds[-1]]


def test_prov_minus_one_is_refused_before_the_directory_is_made(tmp_path):
    """A shard stores a missing prov as -1, so -1 itself cannot be kept, and
    materializing a record whose id is -1 fails in one line."""
    rng = np.random.default_rng(0)
    write_records([Record(-1, "r-1"), Record(4, "r4")],
                  {s: unit_rows(rng, 2, 3) for s in ("image", "raw")}, tmp_path / "pool")
    handle = open_pool(tmp_path / "pool")
    with pytest.raises(DataError, match="^record 0: prov -1 cannot be stored") as info:
        materialize(handle, CuratedSet([(-1, -1), (4, -1)], StrategySpec("raw_all")),
                    tmp_path / "out")
    assert len(str(info.value).splitlines()) == 1
    assert not (tmp_path / "out").exists()
    materialize(handle, CuratedSet([(4, -1)], StrategySpec("raw_all")), tmp_path / "out")
    assert [r.prov for r in read_records(tmp_path / "out")] == [4]


_MANY = [f"s{i}" for i in range(2**15)]


@pytest.mark.parametrize("key, value, match", [
    pytest.param("num_records", 1.7, "'num_records' must be a non-negative integer, got 1.7",
                 id="num_records_float"),
    pytest.param("num_shards", True, "'num_shards' must be a non-negative integer, got True",
                 id="num_shards_bool"),
    pytest.param("records_per_shard", "5", "'records_per_shard' must be a non-negative "
                 "integer, got '5'", id="records_per_shard_string"),
    pytest.param("records_per_shard", 0, "manifest.json: manifest field 'records_per_shard' "
                 "must be >= 1, got 0", id="records_per_shard_zero"),
    pytest.param("records_per_shard", 5, "manifest.json: manifest field 'num_shards' must be 1 "
                 "for 5 records at 5 per shard, got 2", id="num_shards_inconsistent"),
    pytest.param("embedding_dim", -8, "'embedding_dim' must be a non-negative integer, got -8",
                 id="embedding_dim_negative"),
    pytest.param("embedding_sources", "image", "'embedding_sources' must be a list of "
                 "distinct strings, got 'image'", id="embedding_sources_string"),
    pytest.param("embedding_sources", ["image", "image"], "'embedding_sources' must be a list "
                 "of distinct strings", id="embedding_sources_repeated"),
    pytest.param("embedding_sources", ["raw", "syn.blip2.0.75"], "manifest field "
                 "'embedding_sources' must list 'image', got \\['raw', 'syn.blip2.0.75'\\]",
                 id="embedding_sources_without_image"),
    pytest.param("caption_labels", [1], "'caption_labels' must be a list of distinct strings, "
                 "got \\[1\\]", id="caption_labels_number"),
    pytest.param("caption_labels", ["s", "s"], "'caption_labels' must be a list of distinct",
                 id="caption_labels_repeated"),
    pytest.param("caption_labels", _MANY, "32768 caption labels, more than 32767",
                 id="caption_labels_too_many"),
    pytest.param("generator_seed", 0.5, "'generator_seed' must be a non-negative integer or "
                 "null, got 0.5", id="generator_seed_float"),
    pytest.param("checksums", {"a": 1}, "'checksums' must be an object of strings",
                 id="checksums_number"),
    pytest.param("checksums", None, "manifest lacks field 'checksums'", id="checksums_missing"),
    pytest.param("format_version", 1, "format_version 1 \\(JSONL shards\\) is no longer read; "
                 "regenerate the pool", id="format_version_1"),
    pytest.param("format_version", 2, "format_version 2 \\(CRC32C checksums\\) is no longer "
                 "read; regenerate the pool", id="format_version_2"),
    pytest.param("format_version", 2.0, "unsupported format_version 2.0",
                 id="format_version_float"),
])
def test_manifest_field_of_the_wrong_type_exits_2_with_one_line(
        tmp_path, capsys, key, value, match):
    build_plain_pool(tmp_path, 5, records_per_shard=3)
    manifest_path = tmp_path / "manifest.json"
    obj = json.loads(manifest_path.read_text())
    if value is None:
        del obj[key]
    else:
        obj[key] = value
    manifest_path.write_text(json.dumps(obj))
    with pytest.raises(FormatError, match=match):
        open_pool(tmp_path)
    capsys.readouterr()
    assert cli_main(["validate", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err


def test_validate_reports_variant_source_without_embeddings(tmp_path, capsys):
    """A manifest whose caption label "syn.b.1.00" has no embeddings opens
    nowhere, so `validate` exits 2 with the one line naming the label."""
    write_broken_pool(tmp_path, "label_without_embeddings")
    message = BROKEN_POOLS["label_without_embeddings"].read_error
    with pytest.raises(FormatError, match=f"/{re.escape(message)}$"):
        open_pool(tmp_path)
    capsys.readouterr()
    assert cli_main(["validate", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.endswith(f"{message}\n"), err


def test_malformed_shard_line_is_a_format_error_and_a_finding(tmp_path):
    build_plain_pool(tmp_path, 10, records_per_shard=4)
    victim = tmp_path / "shard-00001.cap"
    replace_pool_file(tmp_path, victim.name, victim.read_bytes()[:-7])  # a record cut short
    with pytest.raises(FormatError, match="shard-00001.cap: caption offsets"):
        open_pool(tmp_path).records()
    findings = validate_pool(open_pool(tmp_path)).by_kind("shard_error")
    assert [f.file for f in findings] == ["shard-00001.cap"]
    assert "caption offsets" in findings[0].message


def test_validate_reports_a_repeated_id_after_a_skipped_shard(tmp_path):
    """The ids of the shards that read are checked once a shard is skipped:
    shard-00002.cap's ids become 5, held in shard-00001.cap too, and 2, held
    only in the unread shard-00000.cap, so only 5 is reported."""
    records = [Record(i, f"raw {i}", [CaptionVariant("b", 1.0, f"syn {i}")]) for i in range(10)]
    rng = np.random.default_rng(0)
    write_records(records, {s: unit_rows(rng, 10, 4) for s in ("image", "raw", "syn.b.1.00")},
                  tmp_path, records_per_shard=4)
    victim = tmp_path / "shard-00000.cap"
    replace_pool_file(tmp_path, victim.name, victim.read_bytes()[:-3])
    _, labels, offsets, text = decode_shard((tmp_path / "shard-00002.cap").read_bytes(),
                                            context="shard-00002.cap", num_labels=1)
    replace_pool_file(tmp_path, "shard-00002.cap", encode_shard(ShardColumns(
        np.array([5, 2]), np.full(2, -1), labels, offsets, text)))
    report = validate_pool(open_pool(tmp_path))
    assert [(f.kind, f.file) for f in report.findings] == [("shard_error", "shard-00000.cap"),
                                                           ("duplicate_id", None)]
    assert report.findings[1].message == "id 5 appears more than once"


def test_a_non_finite_sidecar_is_one_finding_naming_it(tmp_path):
    write_nan_raw_pool(tmp_path)
    report = validate_pool(open_pool(tmp_path))
    assert [(f.kind, f.file) for f in report.findings] == [("sidecar_error", "shard-00000.raw.f32")]
    assert report.findings[0].message == "shard-00000.raw.f32: non-finite entry at pool row 2"


def test_validate_zero_norm_row(tmp_path):
    """An all-zero sidecar row is refused at the read, like a NaN: one
    finding naming the sidecar and the pool row."""
    write_broken_pool(tmp_path, "zero_row")
    report = validate_pool(open_pool(tmp_path))
    assert [(f.kind, f.file, f.message) for f in report.findings] == [
        ("sidecar_error", "shard-00001.raw.f32",
         "shard-00001.raw.f32: zero-norm embedding at pool row 3")]
    with pytest.raises(IntegrityError, match="^shard-00001.raw.f32: zero-norm embedding at "
                       "pool row 3$"):
        open_pool(tmp_path).embeddings("raw")


def test_validate_dim_mismatch(tmp_path):
    build_plain_pool(tmp_path, 5, dim=4, records_per_shard=10)
    # rewrite one sidecar at a different dimension, fixing its checksum
    victim = "shard-00000.raw.f32"
    replace_pool_file(tmp_path, victim, fileio.encode_embeddings(np.ones((5, 3), np.float32)))
    report = validate_pool(open_pool(tmp_path))
    assert [(f.kind, f.file) for f in report.findings] == [("sidecar_error", victim)]
    assert "5x3 embeddings, manifest.json implies 5x4" in report.findings[0].message


@pytest.mark.parametrize("case", sorted(RESHAPED_SIDECARS))
def test_a_sidecar_of_another_shape_is_one_finding_and_an_error_naming_it(tmp_path, case):
    victim = write_reshaped_pool(tmp_path, case)
    source = victim.split(".")[1]
    report = validate_pool(open_pool(tmp_path))
    assert [(f.kind, f.file) for f in report.findings] == [("sidecar_error", victim)]
    with pytest.raises(IntegrityError, match=f"^{victim}: .* embeddings, manifest.json implies "):
        open_pool(tmp_path).embeddings(source)
    if source == "image":  # the pool's image sidecar is blamed, not the references
        with pytest.raises(IntegrityError, match=f"^{victim}: "):
            in1k_cluster_mask(open_pool(tmp_path), unit_rows(np.random.default_rng(1), 2, 4),
                              ClusterParams(k=2))


def _curated(entries, name="raw_all", p=None):
    return CuratedSet(entries=entries, spec=StrategySpec(name=name, p=p))


def test_materialize_identity_raw_view(tmp_path):
    pool_dir = tmp_path / "pool"
    out_dir = tmp_path / "out"
    build_plain_pool(pool_dir, 12, records_per_shard=5)
    handle = open_pool(pool_dir)
    curated = _curated([(i, -1) for i in handle.ids().tolist()])
    manifest = materialize(handle, curated, out_dir)
    assert manifest.num_records == 12
    out = open_pool(out_dir)
    assert [r.raw_caption for r in read_records(out_dir)] == [
        r.raw_caption for r in read_records(pool_dir)
    ]
    assert [r.prov for r in read_records(out_dir)] == [r.id for r in read_records(pool_dir)]
    assert out.embeddings("raw").tobytes() == handle.embeddings("raw").tobytes()
    assert out.embeddings("image").tobytes() == handle.embeddings("image").tobytes()
    assert validate_pool(out).ok


def test_materialize_concat_duplicates_share_provenance(tmp_path):
    pool_dir = tmp_path / "pool"
    out_dir = tmp_path / "out"
    build_plain_pool(pool_dir, 4)
    handle = open_pool(pool_dir)
    curated = _curated([(2, -1), (2, 0)], name="concat_top_plus_syn_rest_filtered", p=50)
    manifest = materialize(handle, curated, out_dir)
    assert manifest.num_records == 2
    out = open_pool(out_dir)
    recs = read_records(out_dir)
    assert [r.id for r in recs] == [0, 1]
    assert [r.prov for r in recs] == [2, 2]
    # raw choice sorts before the variant choice
    assert recs[0].raw_caption == read_records(pool_dir)[2].raw_caption
    assert recs[1].raw_caption == read_records(pool_dir)[2].synthetic_variants[0].text
    assert np.array_equal(out.embeddings("raw")[0], handle.embeddings("raw")[2])
    assert np.array_equal(
        out.embeddings("raw")[1], handle.embeddings("syn.blip2.0.75")[2]
    )
    assert validate_pool(out).ok


def test_materialize_subset_count(tmp_path):
    pool_dir = tmp_path / "pool"
    build_plain_pool(pool_dir, 10)
    handle = open_pool(pool_dir)
    curated = _curated([(1, -1), (5, 0), (9, -1)])
    manifest = materialize(handle, curated, tmp_path / "out")
    assert manifest.num_records == 3


def test_materialize_dangling_reference(tmp_path):
    pool_dir = tmp_path / "pool"
    build_plain_pool(pool_dir, 3)
    handle = open_pool(pool_dir)
    with pytest.raises(DataError, match="unknown record id"):
        materialize(handle, _curated([(99, -1)]), tmp_path / "out")
    with pytest.raises(DataError, match="variant"):
        materialize(handle, _curated([(1, 5)]), tmp_path / "out2")


def test_score_sidecar_roundtrip(tmp_path):
    build_plain_pool(tmp_path, 8)
    handle = open_pool(tmp_path)
    from capforge.pool import ScoreTable

    table = ScoreTable("raw", np.linspace(-1, 1, 8, dtype=np.float32))
    handle.write_score_table(table)
    assert handle.has_scores("raw")
    back = handle.read_score_table("raw")
    assert np.array_equal(back.scores, table.scores)


# ---------------------------------------------------------------------------
# pool invariants: write_pool refuses each, and so does every read


@pytest.mark.parametrize("case", sorted(BROKEN_POOLS))
def test_write_pool_refuses_a_pool_breaking_an_invariant(tmp_path, case):
    with pytest.raises(DataError, match=f"^{re.escape(BROKEN_POOLS[case].write_error)}$"):
        write_pool(*broken_pool_inputs(case), tmp_path / "pool", records_per_shard=2)
    assert not (tmp_path / "pool").exists()


# case -> the commands that read the file it rewrites (`validate` too where
# the pool does not open; else its one finding is checked above)
_READERS = {
    "repeated_id": ("filter", "mix", "metrics", "report"),
    "repeated_label": ("filter", "mix", "metrics", "report"),
    "label_without_embeddings": ("score", "filter", "mix", "metrics", "report", "validate"),
    "raw_label": ("score", "filter", "mix", "metrics", "report", "validate"),
    "zero_row": ("score", "filter", "mix", "metrics", "report"),
}


@pytest.mark.parametrize("case, command", [
    (case, command) for case, commands in _READERS.items() for command in commands])
def test_a_pool_breaking_an_invariant_exits_2_with_one_line_from_every_reader(
        tmp_path, capsys, case, command):
    pool, out = tmp_path / "pool", tmp_path / "out"
    write_broken_pool(pool, case)
    strategy = "raw_top" if case == "zero_row" else "raw_all"  # raw_all reads no sidecar
    (tmp_path / "s.json").write_text(json.dumps([{"name": strategy, "p": 50}]))
    (tmp_path / "c.jsonl").write_text("".join(json.dumps(obj) + "\n" for obj in [
        {"strategy": "raw_all", "tau_used": None, "entries": 2, "spec": {"name": "raw_all"}},
        {"id": 0, "cap": "raw"}, {"id": 4, "cap": 1}]))
    args = {
        "score": ["--source", "raw"],
        "filter": ["--p", "50", "--out", str(out)],
        "mix": ["--strategy", strategy, "--p", "50", "--out", str(out)],
        "metrics": ["--curated", str(tmp_path / "c.jsonl"), "--out", str(out)],
        "report": ["--strategies", str(tmp_path / "s.json"), "--out-dir", str(out)],
    }
    capsys.readouterr()
    if command == "validate":
        assert cli_main(["validate", str(pool)]) == 2
    else:
        assert cli_main([command, "--pool", str(pool), *args[command]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"{BROKEN_POOLS[case].read_error}\n"), err
    assert len(err.splitlines()) == 1, err
    assert not out.exists() and not (pool / "raw.scores.f32").exists()


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(st.integers(-20, 20), min_size=2, max_size=9, unique=True),
    records_per_shard=st.integers(1, 4),
    violation=st.sampled_from([None, "id", "label", "source", "raw", "zero", "nan", "inf"]),
    data=st.data(),
)
def test_validate_passes_exactly_when_the_reads_pass(ids, records_per_shard, violation, data):
    """At most one invariant broken by rewriting one file of a valid pool:
    ``validate_pool`` is ok exactly when ``records()`` and every source's
    ``embeddings()`` read (a manifest that does not open fails both)."""
    records = [Record(rec_id, f"raw {rec_id}", [CaptionVariant("a", 1.0, "a"),
                                                CaptionVariant("b", 1.0, "b")])
               for rec_id in ids]
    sources = ["image", "raw", "syn.a.1.00", "syn.b.1.00"]
    row = data.draw(st.integers(0, len(ids) - 1))
    what = data.draw({"id": st.sampled_from([i for i in ids if i != ids[row]]),
                      "label": st.none(), "source": st.sampled_from(sources[2:]),
                      "raw": st.sampled_from(sources[2:])}
                     .get(violation, st.sampled_from(sources)))
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory() as path:
        write_records(records, {s: unit_rows(rng, len(ids), 3) for s in sources}, path,
                      records_per_shard=records_per_shard)
        if violation is not None:
            break_pool(path, violation, *divmod(row, records_per_shard), what)

        def reads_pass() -> bool:
            try:
                handle = open_pool(path)
                handle.records()
                for source in handle.manifest.embedding_sources:
                    handle.embeddings(source)
            except CapforgeError:
                return False
            return True

        def validate_passes() -> bool:
            try:
                return validate_pool(open_pool(path)).ok
            except CapforgeError:
                return False

        assert validate_passes() == reads_pass() == (violation is None)
