import json

import numpy as np
import pytest

from capforge import fileio
from capforge.curation import CuratedSet, StrategySpec
from capforge.errors import DataError, FormatError, IntegrityError
from capforge.pool import (
    CaptionVariant,
    Record,
    materialize,
    open_pool,
    shard_layout,
    validate_pool,
    write_pool,
)
from capforge.scoring import score_pool
from helpers import build_plain_pool, unit_rows


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
    manifest = write_pool([], {"image": np.zeros((0, 4), dtype=np.float32)}, tmp_path)
    assert manifest.num_records == 0
    assert manifest.num_shards == 0
    handle = open_pool(tmp_path)
    assert handle.num_records == 0
    assert validate_pool(handle).ok


def test_ceiling_division_sharding(tmp_path):
    rng = np.random.default_rng(0)
    write_pool(
        _records(3),
        {"image": unit_rows(rng, 3, 4), "raw": unit_rows(rng, 3, 4)},
        tmp_path,
        records_per_shard=2,
    )
    handle = open_pool(tmp_path)
    assert handle.manifest.num_shards == 2
    assert handle.shard_sizes() == [2, 1]


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
    write_pool(records, embs, tmp_path, records_per_shard=30)
    handle = open_pool(tmp_path)
    back = handle.records()
    assert back == records
    for source, mat in embs.items():
        assert handle.embeddings(source).tobytes() == mat.tobytes()


def test_line_separators_inside_captions_round_trip(tmp_path):
    records = _records(3)
    records[0].raw_caption = "next\x85line"
    records[1].raw_caption = "form\x0cfeed"
    records[2].synthetic_variants[0] = CaptionVariant("blip2", 0.75, "line\u2028sep\u2029par")
    rng = np.random.default_rng(0)
    embs = {s: unit_rows(rng, 3, 4) for s in ("image", "raw", "syn.blip2.0.75")}
    write_pool(records, embs, tmp_path)
    handle = open_pool(tmp_path)
    assert handle.records() == records
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
    victim = tmp_path / "shard-00000.jsonl"
    blob = bytearray(victim.read_bytes())
    blob[5] ^= 0xFF
    victim.write_bytes(bytes(blob))
    handle = open_pool(tmp_path)
    with pytest.raises(IntegrityError, match="shard-00000.jsonl"):
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
    (tmp_path / "shard-00002.jsonl").unlink()
    with pytest.raises(IntegrityError, match="shard-00002.jsonl: missing file"):
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
        write_pool(
            _records(3),
            {"image": unit_rows(rng, 2, 4), "raw": unit_rows(rng, 3, 4)},
            tmp_path,
        )


def test_write_pool_nonfinite(tmp_path):
    mat = np.ones((3, 4), dtype=np.float32)
    mat[1, 2] = np.nan
    with pytest.raises(DataError, match="non-finite"):
        write_pool(_records(3), {"image": mat}, tmp_path)


def test_write_pool_requires_image(tmp_path):
    with pytest.raises(DataError, match="image"):
        write_pool(_records(1), {"raw": np.ones((1, 4), dtype=np.float32)}, tmp_path)


def test_validate_clean(tmp_path):
    build_plain_pool(tmp_path, 20, records_per_shard=7)
    assert validate_pool(open_pool(tmp_path)).ok


def test_validate_duplicate_id(tmp_path):
    rng = np.random.default_rng(0)
    records = _records(6, variants=())  # no variant lacking embeddings
    records[4].id = records[1].id  # one duplicated id
    write_pool(
        records,
        {"image": unit_rows(rng, 6, 4), "raw": unit_rows(rng, 6, 4)},
        tmp_path,
    )
    report = validate_pool(open_pool(tmp_path))
    assert len(report.by_kind("duplicate_id")) == 1
    assert len(report.findings) == 1


def test_validate_reports_variant_source_without_embeddings(tmp_path):
    rng = np.random.default_rng(0)
    records = _records(4, variants=(("blip2", 0.75), ("ghost", 1.0)))
    embs = {s: unit_rows(rng, 4, 4) for s in ("image", "raw", "syn.blip2.0.75")}
    write_pool(records, embs, tmp_path)
    report = validate_pool(open_pool(tmp_path))
    assert [(f.kind, f.record_index) for f in report.findings] == [("variant_source", 0)]
    assert "syn.ghost.1.00" in report.findings[0].message


def test_malformed_shard_line_is_a_format_error_and_a_finding(tmp_path):
    build_plain_pool(tmp_path, 10, records_per_shard=4)
    victim = tmp_path / "shard-00001.jsonl"
    lines = victim.read_bytes().split(b"\n")
    lines[1] = lines[1][:-7]  # a record cut short
    blob = b"\n".join(lines)
    victim.write_bytes(blob)
    manifest_path = tmp_path / "manifest.json"
    obj = json.loads(manifest_path.read_text())
    obj["checksums"][victim.name] = fileio.crc32c_hex(blob)
    manifest_path.write_text(json.dumps(obj))
    with pytest.raises(FormatError, match="shard-00001.jsonl line 2"):
        open_pool(tmp_path).records()
    findings = validate_pool(open_pool(tmp_path)).by_kind("shard_error")
    assert [f.file for f in findings] == ["shard-00001.jsonl"]
    assert "line 2" in findings[0].message


def test_validate_zero_norm_row(tmp_path):
    rng = np.random.default_rng(0)
    image = unit_rows(rng, 10, 4)
    image[7] = 0.0
    write_pool(_records(10), {"image": image, "raw": unit_rows(rng, 10, 4)}, tmp_path)
    report = validate_pool(open_pool(tmp_path))
    findings = report.by_kind("zero_norm")
    assert len(findings) == 1
    assert findings[0].record_index == 7


def test_validate_dim_mismatch(tmp_path):
    build_plain_pool(tmp_path, 5, dim=4, records_per_shard=10)
    # rewrite one sidecar at a different dimension, fixing its checksum
    victim = "shard-00000.raw.f32"
    blob = fileio.encode_embeddings(np.ones((5, 3), dtype=np.float32))
    (tmp_path / victim).write_bytes(blob)
    manifest_path = tmp_path / "manifest.json"
    obj = json.loads(manifest_path.read_text())
    obj["checksums"][victim] = fileio.crc32c_hex(blob)
    manifest_path.write_text(json.dumps(obj))
    report = validate_pool(open_pool(tmp_path))
    assert any(f.kind == "dim_mismatch" for f in report.findings)


def _curated(entries, name="raw_all", p=None):
    return CuratedSet(entries=entries, spec=StrategySpec(name=name, p=p))


def test_materialize_identity_raw_view(tmp_path):
    pool_dir = tmp_path / "pool"
    out_dir = tmp_path / "out"
    build_plain_pool(pool_dir, 12, records_per_shard=5)
    handle = open_pool(pool_dir)
    curated = _curated([(r.id, -1) for r in handle.records()])
    manifest = materialize(handle, curated, out_dir)
    assert manifest.num_records == 12
    out = open_pool(out_dir)
    assert [r.raw_caption for r in out.records()] == [
        r.raw_caption for r in handle.records()
    ]
    assert [r.prov for r in out.records()] == [r.id for r in handle.records()]
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
    recs = out.records()
    assert [r.id for r in recs] == [0, 1]
    assert [r.prov for r in recs] == [2, 2]
    # raw choice sorts before the variant choice
    assert recs[0].raw_caption == handle.record(2).raw_caption
    assert recs[1].raw_caption == handle.record(2).synthetic_variants[0].text
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
