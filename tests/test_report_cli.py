import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capforge
from capforge import fileio
from capforge.cli import cli_main
from capforge.curation import CuratedSet, StrategySpec, apply_strategy, read_curated
from capforge.errors import DataError
from capforge.pool import materialize, open_pool
from capforge.poolgen import GenConfig, SynSource, generate_pool
from capforge.report import (
    MetricConfig,
    REPORT_COLUMNS,
    build_quality_report,
    caption_features,
    run_report,
    run_sweep,
)
from capforge.scoring import ScoreTables, score_pool
from capforge.textmetrics import CaptionFeatures
from capforge.errors import ConfigError
from helpers import (
    BROKEN_POOLS, RESHAPED_SIDECARS, CaptionVariant, Record, oracle_quality_report,
    read_records, replace_pool_file, set_sidecar_entry, unit_rows, write_broken_pool,
    write_nan_raw_pool, write_records, write_reshaped_pool,
)


@pytest.fixture(scope="module")
def small_pool(tmp_path_factory):
    path = tmp_path_factory.mktemp("report") / "pool"
    generate_pool(GenConfig(num_records=1200, seed=21, records_per_shard=400), path)
    return path


@pytest.fixture(scope="module")
def truncated_line_pool(tmp_path_factory):
    """Pool whose second shard has its last record cut short, under a matching
    checksum."""
    path = tmp_path_factory.mktemp("report") / "pool3"
    generate_pool(GenConfig(num_records=40, seed=5, records_per_shard=20), path)
    replace_pool_file(path, "shard-00001.cap", (path / "shard-00001.cap").read_bytes()[:-7])
    return path


@pytest.fixture(scope="module")
def bad_label_pool(tmp_path_factory):
    """Pool whose first shard gives record 0 a variant label past the
    manifest's list, under a matching checksum."""
    path = tmp_path_factory.mktemp("report") / "pool5"
    generate_pool(GenConfig(num_records=40, seed=5, records_per_shard=20), path)
    labels_at = 16 + 16 * 20  # after the header and the ids and prov columns
    blob = (path / "shard-00000.cap").read_bytes()
    replace_pool_file(path, "shard-00000.cap",
                      blob[:labels_at] + b"\x07\x00" + blob[labels_at + 2 :])
    return path


@pytest.fixture(scope="module")
def truncated_curated(tmp_path_factory):
    """A 2k-pool mix output cut to half its lines; the header still counts all."""
    path = tmp_path_factory.mktemp("report")
    generate_pool(GenConfig(num_records=2000, seed=7, records_per_shard=500), path / "pool")
    curated = path / "c.jsonl"
    assert cli_main(["mix", "--strategy", "raw_top_plus_syn_rest_filtered", "--p", "30",
                     "--syn-source", "blip2", "--pool", str(path / "pool"),
                     "--out", str(curated)]) == 0
    lines = curated.read_text().splitlines(keepends=True)
    curated.write_text("".join(lines[: len(lines) // 2]))
    return path


@pytest.fixture(scope="module")
def corrupt_scores_pool(tmp_path_factory):
    """Pool whose raw score sidecar holds ten 3.4e38 scores (rows 22-31)."""
    path = tmp_path_factory.mktemp("report") / "pool4"
    generate_pool(GenConfig(num_records=60, seed=5, records_per_shard=30), path)
    score_pool(open_pool(path), "raw")
    sidecar = path / "raw.scores.f32"
    blob = bytearray(sidecar.read_bytes())
    blob[100:140] = b"\x7f" * 40
    sidecar.write_bytes(bytes(blob))
    return path


@pytest.fixture(scope="module")
def edited_pools(tmp_path_factory):
    """5-record ``write_pool`` pools: "gap", where record 2 lacks the blip2
    variant the others hold, and "7" and "3", whose manifests miscount
    their records under intact checksums."""
    root = tmp_path_factory.mktemp("edited")
    rng = np.random.default_rng(0)
    records = [Record(i, f"raw {i}", [CaptionVariant("blip2", 0.75, f"syn {i}")] * (i != 2))
               for i in range(5)]
    embs = {s: unit_rows(rng, 5, 4) for s in ("image", "raw", "syn.blip2.0.75")}
    for name in ("gap", "7", "3"):
        write_records(records, embs, root / name)
    for count in (7, 3):
        manifest = json.loads((root / f"{count}" / "manifest.json").read_text())
        manifest["num_records"] = count
        (root / f"{count}" / "manifest.json").write_text(json.dumps(manifest))
    return {name: root / name for name in ("gap", "7", "3")}


@pytest.fixture(scope="module")
def reshaped_pools(tmp_path_factory):
    """A pool per ``RESHAPED_SIDECARS`` case, and "refs.f32": four dim-4 references."""
    root = tmp_path_factory.mktemp("reshaped")
    for case in RESHAPED_SIDECARS:
        write_reshaped_pool(root / case, case)
    fileio.write_embeddings(root / "refs.f32", unit_rows(np.random.default_rng(1), 4, 4))
    return {case: root / case for case in [*RESHAPED_SIDECARS, "refs.f32"]}


@pytest.fixture(scope="module")
def non_finite_pools(tmp_path_factory):
    """A pool per ``_NON_FINITE`` case, and "refs.f32": four references of the
    generated pool's dim."""
    root = tmp_path_factory.mktemp("non_finite")
    write_nan_raw_pool(root / "raw_nan_score")
    generate_pool(GenConfig(num_records=40, seed=5, records_per_shard=20), root / "image_inf_in1k")
    set_sidecar_entry(root / "image_inf_in1k", "shard-00001.image.f32", 5, np.inf)
    dim = open_pool(root / "image_inf_in1k").embedding_dim
    fileio.write_embeddings(root / "refs.f32", unit_rows(np.random.default_rng(1), 4, dim))
    return {case: root / case for case in [*_NON_FINITE, "refs.f32"]}


@pytest.fixture(scope="module")
def broken_pools(tmp_path_factory):
    """A pool per ``BROKEN_POOLS`` case."""
    root = tmp_path_factory.mktemp("broken")
    for case in BROKEN_POOLS:
        write_broken_pool(root / case, case)
    return {case: root / case for case in BROKEN_POOLS}


@pytest.fixture(scope="module")
def two_captioner_pool(tmp_path_factory):
    path = tmp_path_factory.mktemp("report") / "pool2"
    syn = [SynSource("blip2", 0.75, 0.7), SynSource("coca", 1.0, 0.5)]
    generate_pool(GenConfig(num_records=200, seed=3, records_per_shard=100,
                            syn_sources=syn), path)
    return path


def _specs():
    return [
        StrategySpec("raw_all"),
        StrategySpec("raw_top", p=30),
        StrategySpec("raw_top_plus_syn_rest_filtered", p=30, syn_source="blip2"),
    ]


def test_report_mean_cosine_matches_score_table(small_pool):
    rows = run_report(small_pool, [StrategySpec("raw_all")], MetricConfig(seed=0))
    handle = open_pool(small_pool)
    scores = score_pool(handle, "raw", write_sidecar=False).scores
    assert rows[0].mean_cosine == pytest.approx(
        float(np.mean(scores.astype(np.float64))), abs=1e-12
    )
    assert rows[0].entries == 1200
    assert rows[0].sample_size == 1200


def test_report_filtered_mix_mean_at_least_tau(small_pool):
    rows = run_report(
        small_pool,
        [StrategySpec("raw_top_plus_syn_rest_filtered", p=30, syn_source="blip2")],
        MetricConfig(seed=0),
    )
    row = rows[0]
    assert row.tau_used is not None
    assert row.mean_cosine >= row.tau_used


def test_report_files_deterministic_and_value_identical(small_pool, tmp_path):
    config = MetricConfig(seed=3)
    run_report(small_pool, _specs(), config, out_dir=tmp_path / "r1")
    run_report(small_pool, _specs(), config, out_dir=tmp_path / "r2")
    j1 = (tmp_path / "r1" / "report.json").read_bytes()
    j2 = (tmp_path / "r2" / "report.json").read_bytes()
    assert j1 == j2
    c1 = (tmp_path / "r1" / "report.csv").read_bytes()
    assert c1 == (tmp_path / "r2" / "report.csv").read_bytes()
    assert b"\r" not in c1  # LF endings

    rows = json.loads(j1)
    with open(tmp_path / "r1" / "report.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        csv_rows = list(reader)
    assert len(rows) == len(csv_rows) == 3
    for jrow, crow in zip(rows, csv_rows):
        for col in REPORT_COLUMNS:
            jval = jrow[col]
            cell = crow[col]
            if jval is None:
                assert cell == ""
            elif isinstance(jval, str):
                assert cell == jval
            else:
                assert float(cell) == jval


# NFC and NFD "café", "İ" (lowercases to "i" and a combining dot), "ß"
_WORDS = ["dog", "red", "a", "dog", "x1", "café", "cafe\u0301", "İ", "ß", "", "-"]
_CAPTION = st.lists(st.sampled_from(_WORDS), max_size=7).map(" ".join)
_VARIANTS = [("blip2", 0.75), ("coca", 1.0)]


def _float_bits(row: dict) -> dict:
    return {k: v.hex() if isinstance(v, float) else v for k, v in row.items()}


@settings(max_examples=60, deadline=None)
@given(
    records=st.lists(
        st.tuples(_CAPTION, st.lists(st.tuples(st.sampled_from(_VARIANTS), _CAPTION),
                                     max_size=2, unique_by=lambda variant: variant[0])),
        min_size=1, max_size=16,
    ),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_quality_report_matches_caption_by_caption_oracle(records, seed, data):
    """Rows from per-text features equal the caption-by-caption oracle to the
    bit, with one features object shared by every row of the pool."""
    pool_records = [
        Record(id=3 * i + 1, raw_caption=raw, synthetic_variants=[
            CaptionVariant(src, temp, text) for (src, temp), text in variants])
        for i, (raw, variants) in enumerate(records)
    ]
    rng = np.random.default_rng(seed)
    labels = ["image", "raw", "syn.blip2.0.75", "syn.coca.1.00"]
    with tempfile.TemporaryDirectory() as path:
        write_records(pool_records, {s: unit_rows(rng, len(records), 4) for s in labels}, path,
                      records_per_shard=5)
        handle = open_pool(path)
        tables = ScoreTables(handle)
        vocab, lexicon = {"dog", "red", "i", "x1"}, {"dog", "caf", "ss", "a"}
        table = handle.records()
        features = CaptionFeatures(table.text, table.offsets, vocab, lexicon)
        choices = [(r.id, cap) for r in pool_records
                   for cap in range(-1, len(r.synthetic_variants))]
        for _ in range(data.draw(st.integers(1, 3))):
            entries = data.draw(st.lists(st.sampled_from(choices), max_size=40))
            if data.draw(st.booleans()):  # a choice its record lacks
                rec = data.draw(st.sampled_from(pool_records))
                entries.append((rec.id, data.draw(st.sampled_from(
                    [-2, len(rec.synthetic_variants), 5]))))
            curated = CuratedSet(entries=entries, spec=StrategySpec("raw_all"), tau_used=0.25)
            count = len(curated)
            sample_size = data.draw(st.sampled_from([0, 1, max(count - 1, 0), count, count + 3]))
            kwargs = dict(sample_size=sample_size, seed=data.draw(st.integers(0, 2**64 - 1)))
            try:
                want = oracle_quality_report(handle, curated, tables.__getitem__, vocab=vocab,
                                             lexicon=lexicon, **kwargs)
            except DataError as exc:
                with pytest.raises(DataError) as got:
                    build_quality_report(handle, curated, tables, features, **kwargs)
                assert str(got.value) == str(exc)
                continue
            row = build_quality_report(handle, curated, tables, features, **kwargs)
            assert _float_bits(row.to_dict()) == _float_bits(want.to_dict())


@pytest.mark.parametrize("sample_size", [2000, 100_000])
def test_quality_report_matches_oracle_on_a_generated_pool(gen_pool, sample_size):
    """Thousands of grounded fractions: a pairwise sum would differ in the last bits."""
    tables = ScoreTables(gen_pool)
    config = MetricConfig(seed=11, sample_size=sample_size)
    features = caption_features(gen_pool, config)
    for spec in [StrategySpec("raw_all"), StrategySpec("syn_best_variant_all"),
                 StrategySpec("concat_top_plus_syn_rest_filtered", p=30,
                              syn_source="syn.blip2.1.50")]:
        curated = apply_strategy(gen_pool, spec, tables)
        kwargs = dict(sample_size=sample_size, seed=config.seed)
        row = build_quality_report(gen_pool, curated, tables, features, **kwargs)
        want = oracle_quality_report(gen_pool, curated, tables.__getitem__, vocab=features.vocab,
                                     lexicon=features.lexicon, **kwargs)
        assert _float_bits(row.to_dict()) == _float_bits(want.to_dict())


def test_report_csv_header_is_the_documented_column_order(small_pool, tmp_path):
    run_report(small_pool, [], MetricConfig(), out_dir=tmp_path)
    assert (tmp_path / "report.csv").read_text() == (
        "strategy,entries,tau_used,mean_cosine,mean_clip_s,mean_word_count,"
        "mean_grounding_ratio,unique_trigrams,unique_nouns,sample_size,sample_seed\n")


def test_report_empty_strategy_list(small_pool, tmp_path):
    run_report(small_pool, [], MetricConfig(), out_dir=tmp_path)
    assert json.loads((tmp_path / "report.json").read_text()) == []
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines == [",".join(REPORT_COLUMNS)]


def test_mix_materialize_report_roundtrip(small_pool, tmp_path):
    handle = open_pool(small_pool)
    spec = StrategySpec("raw_top_plus_syn_rest_filtered", p=30, syn_source="blip2")
    tables = ScoreTables(handle)
    curated = apply_strategy(handle, spec, tables)
    row = build_quality_report(
        handle,
        curated,
        tables,
        CaptionFeatures(handle.records().text, handle.records().offsets, {"dog"}, {"dog"}),
        sample_size=10,
        seed=0,
    )
    materialize(handle, curated, tmp_path / "mat")
    back = run_report(tmp_path / "mat", [StrategySpec("raw_all")], MetricConfig())
    assert back[0].entries == len(curated)
    assert back[0].mean_cosine == pytest.approx(row.mean_cosine, abs=1e-6)


def test_sweep_single_scale_reduces_to_report(small_pool, tmp_path):
    template = GenConfig(num_records=1, seed=21, records_per_shard=400)
    specs = [StrategySpec("raw_all"), StrategySpec("raw_top", p=30)]
    config = MetricConfig(seed=5)
    result = run_sweep(template, [1200], specs, config, out_dir=tmp_path)
    pool_dir = tmp_path / "pools" / "1200"
    rows = run_report(pool_dir, specs, config)
    assert len(result.rows) == 2
    for (scale, name, sweep_row), report_row in zip(result.rows, rows):
        assert scale == 1200
        assert name == report_row.strategy
        assert sweep_row.to_dict() == report_row.to_dict()
    csv_lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert csv_lines[0] == "pool_scale," + ",".join(REPORT_COLUMNS)
    assert len(csv_lines) == 3


def test_sweep_validation(tmp_path):
    template = GenConfig(num_records=1, seed=0)
    with pytest.raises(ConfigError):
        run_sweep(template, [], [], MetricConfig(), tmp_path)
    with pytest.raises(ConfigError):
        run_sweep(template, [100, 100], [], MetricConfig(), tmp_path)
    with pytest.raises(ConfigError):
        run_sweep(template, [200, 100], [], MetricConfig(), tmp_path)
    with pytest.raises(ConfigError):
        run_sweep(template, [10**9], [], MetricConfig(), tmp_path)


# ---------------------------------------------------------------------------
# CLI


def _write_config(tmp_path, n=300, seed=17, rps=100):
    path = tmp_path / "gen.json"
    path.write_text(
        json.dumps({"num_records": n, "seed": seed, "records_per_shard": rps})
    )
    return str(path)


def test_cli_gen_then_validate(tmp_path):
    config = _write_config(tmp_path)
    pool = str(tmp_path / "pool")
    assert cli_main(["gen", "--config", config, "--out", pool]) == 0
    assert cli_main(["validate", pool]) == 0


def test_cli_validate_corrupt_pool(tmp_path):
    config = _write_config(tmp_path)
    pool = tmp_path / "pool"
    cli_main(["gen", "--config", config, "--out", str(pool)])
    victim = pool / "shard-00000.cap"
    victim.write_bytes(victim.read_bytes() + b"garbage")
    assert cli_main(["validate", str(pool)]) == 2


def test_cli_validate_names_each_corrupt_file(tmp_path, capsys):
    config = _write_config(tmp_path)
    pool = tmp_path / "pool"
    cli_main(["gen", "--config", config, "--out", str(pool)])
    shard = pool / "shard-00001.cap"
    shard.write_bytes(b"x" + shard.read_bytes()[1:])
    sidecar = pool / "shard-00002.syn.blip2.0.75.f32"
    sidecar.write_bytes(sidecar.read_bytes()[:-4])
    capsys.readouterr()
    assert cli_main(["validate", str(pool)]) == 2
    err = capsys.readouterr().err
    assert "shard-00001.cap: checksum mismatch" in err
    assert "shard-00002.syn.blip2.0.75.f32: checksum mismatch" in err


def test_cli_score_reads_only_the_sidecars_it_scores(tmp_path, capsys):
    config = _write_config(tmp_path)
    pool = tmp_path / "pool"
    cli_main(["gen", "--config", config, "--out", str(pool)])
    raw_scores = pool / "raw.scores.f32"
    assert cli_main(["score", "--pool", str(pool), "--source", "raw"]) == 0
    expected = raw_scores.read_bytes()
    raw_scores.unlink()
    sidecar = pool / "shard-00001.syn.blip2.0.75.f32"
    blob = bytearray(sidecar.read_bytes())
    blob[-1] ^= 0xFF
    sidecar.write_bytes(bytes(blob))
    assert cli_main(["score", "--pool", str(pool), "--source", "raw"]) == 0
    assert raw_scores.read_bytes() == expected
    capsys.readouterr()
    assert cli_main(["score", "--pool", str(pool), "--source", "blip2"]) == 2
    assert "shard-00001.syn.blip2.0.75.f32: checksum mismatch" in capsys.readouterr().err


def test_cli_score_writes_sidecar(tmp_path):
    config = _write_config(tmp_path)
    pool = tmp_path / "pool"
    cli_main(["gen", "--config", config, "--out", str(pool)])
    assert cli_main(["score", "--pool", str(pool), "--source", "raw"]) == 0
    assert (pool / "raw.scores.f32").exists()
    assert cli_main(["score", "--pool", str(pool), "--source", "blip2"]) == 0
    assert (pool / "syn.blip2.0.75.scores.f32").exists()


def test_cli_mix_header_carries_tau(tmp_path):
    config = _write_config(tmp_path)
    pool = str(tmp_path / "pool")
    out = tmp_path / "c.jsonl"
    cli_main(["gen", "--config", config, "--out", pool])
    code = cli_main(
        [
            "mix",
            "--strategy",
            "raw_top_plus_syn_rest_filtered",
            "--p",
            "30",
            "--syn-source",
            "blip2",
            "--pool",
            pool,
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.exists()
    header = json.loads(out.read_text().splitlines()[0])
    assert header["strategy"] == "raw_top_plus_syn_rest_filtered"
    assert header["tau_used"] is not None
    curated = read_curated(out)
    assert len(curated) == header["entries"]


def test_cli_filter_p_out_of_range(tmp_path):
    config = _write_config(tmp_path)
    pool = str(tmp_path / "pool")
    cli_main(["gen", "--config", config, "--out", pool])
    for p in ("150", "0"):
        code = cli_main(
            ["filter", "--pool", pool, "--p", p, "--out", str(tmp_path / "f.jsonl")]
        )
        assert code == 1, p


@pytest.mark.parametrize("tau", ["nan", "inf", "-inf"])
def test_cli_filter_rejects_a_tau_that_is_not_finite(small_pool, tmp_path, capsys, tau):
    out = tmp_path / "f.jsonl"
    capsys.readouterr()
    assert cli_main(["filter", "--pool", str(small_pool), f"--tau={tau}", "--out", str(out)]) == 1
    assert "tau must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["a/b", "a\x00b", "\ud800"])
def test_cli_gen_refuses_a_source_name_that_cannot_name_a_file(tmp_path, capsys, name):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"num_records": 3, "seed": 1, "syn_sources": [
        {"source_name": name, "temperature": 0.5, "diversity_factor": 0.5}]}))
    capsys.readouterr()
    assert cli_main(["gen", "--config", str(path), "--out", str(tmp_path / "pool")]) == 1
    err = capsys.readouterr().err
    assert "cannot name a file" in err or "not encodable as UTF-8" in err
    assert len(err.splitlines()) == 1, err
    assert not (tmp_path / "pool").exists()


def _gen_one_source(tmp_path, name, out="pool"):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"num_records": 3, "seed": 1, "syn_sources": [
        {"source_name": name, "temperature": 0.75, "diversity_factor": 0.5}]}))
    return cli_main(["gen", "--config", str(path), "--out", str(tmp_path / out)])


def test_cli_gen_refuses_a_source_name_too_long_for_a_file(tmp_path, capsys):
    capsys.readouterr()
    assert _gen_one_source(tmp_path, "a" * 300) == 1
    err = capsys.readouterr().err
    assert "source name too long" in err and len(err.splitlines()) == 1, err
    assert not (tmp_path / "pool").exists()


@pytest.mark.parametrize("name", ["a" * 216, "\u00e9" * 108])
def test_cli_gen_accepts_the_longest_source_name(tmp_path, capsys, name):
    """".syn.{name}.0.75.alpha.scores.f32.{pid}.tmp" takes 39 bytes beside the
    name with a 7-digit pid, so 216 UTF-8 bytes is the most, and one more is
    refused."""
    assert _gen_one_source(tmp_path, name) == 0
    pool = tmp_path / "pool"
    label = f"syn.{name}.0.75"
    assert (pool / f"{label}.alpha.scores.f32").exists()
    assert cli_main(["score", "--pool", str(pool), "--source", label]) == 0
    capsys.readouterr()
    assert _gen_one_source(tmp_path, name + "a", out="longer") == 1
    assert "source name too long" in capsys.readouterr().err
    assert not (tmp_path / "longer").exists()


@pytest.mark.parametrize("names, requested, label", [
    (["a.b"], "a.b", "syn.a.b.0.50"),
    (["a", "a.b"], "a", "syn.a.0.50"),
    (["a", "a.b"], "a.b", "syn.a.b.0.50"),
])
def test_cli_score_finds_a_captioner_whose_name_holds_dots(
        tmp_path, capsys, names, requested, label):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"num_records": 5, "seed": 1, "syn_sources": [
        {"source_name": n, "temperature": 0.5, "diversity_factor": 0.5} for n in names]}))
    pool = tmp_path / "pool"
    assert cli_main(["gen", "--config", str(path), "--out", str(pool)]) == 0
    capsys.readouterr()
    assert cli_main(["score", "--pool", str(pool), "--source", requested]) == 0
    assert f"for {label}:" in capsys.readouterr().out
    assert (pool / f"{label}.scores.f32").exists()


def test_cli_filter_and_mix_break_ties_by_id(tmp_path):
    # ids run opposite to row order and every score ties
    pool = tmp_path / "pool"
    records = [Record(id=90 - 10 * row, raw_caption=f"r{row}") for row in range(10)]
    same = np.tile(np.eye(4, dtype=np.float32)[0], (10, 1))
    write_records(records, {"image": same, "raw": same}, pool, records_per_shard=4)
    ids_out, mix_out = tmp_path / "ids.jsonl", tmp_path / "c.jsonl"
    assert cli_main(["filter", "--pool", str(pool), "--p", "30", "--out", str(ids_out)]) == 0
    assert cli_main(["mix", "--strategy", "raw_top", "--p", "30", "--pool", str(pool),
                     "--out", str(mix_out)]) == 0
    filtered = [json.loads(line)["id"] for line in ids_out.read_text().splitlines()[1:]]
    mixed = [json.loads(line)["id"] for line in mix_out.read_text().splitlines()[1:]]
    assert sorted(filtered) == mixed == [0, 10, 20]


def test_cli_filter_threshold(tmp_path):
    config = _write_config(tmp_path)
    pool = str(tmp_path / "pool")
    out = tmp_path / "f.jsonl"
    cli_main(["gen", "--config", config, "--out", pool])
    assert cli_main(
        ["filter", "--pool", pool, "--tau", "0.28", "--source", "blip2", "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["kind"] == "threshold"
    assert header["count"] == len(lines) - 1


def test_cli_filter_tau_is_inclusive_in_exact_arithmetic(small_pool, tmp_path, capsys):
    """At tau one float64 step above a pool score, `filter --tau` keeps only
    the records scoring above it, though tau rounds to that score in float32;
    a tau past float32's range writes nothing to stderr."""
    scores = ScoreTables(open_pool(small_pool))["raw"].scores
    score = np.sort(scores)[len(scores) // 2]
    tau = float(np.nextafter(np.float64(score), 1.0))
    out = tmp_path / "f.jsonl"
    for value, kept in ((tau, scores > score), (1e300, np.zeros_like(scores, bool))):
        capsys.readouterr()
        assert cli_main(["filter", "--pool", str(small_pool), "--tau", repr(value),
                         "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert lines[0]["tau"] == value and lines[0]["count"] == int(kept.sum())
        ids = open_pool(small_pool).ids()
        assert [line["id"] for line in lines[1:]] == ids[kept].tolist()


def test_cli_usage_errors():
    assert cli_main(["frobnicate"]) == 1
    assert cli_main([]) == 1
    assert cli_main(["mix", "--strategy", "nope"]) == 1
    assert cli_main(["filter", "--pool", "x", "--out", "y"]) == 1  # no p/tau


def test_cli_open_missing_pool_is_data_error(tmp_path):
    assert cli_main(["validate", str(tmp_path / "nope")]) == 2


def test_cli_metrics_and_report(tmp_path):
    config = _write_config(tmp_path)
    pool = str(tmp_path / "pool")
    cli_main(["gen", "--config", config, "--out", pool])
    curated = tmp_path / "c.jsonl"
    cli_main(
        ["mix", "--strategy", "raw_top", "--p", "50", "--pool", pool, "--out", str(curated)]
    )
    metrics = tmp_path / "m.json"
    assert cli_main(
        ["metrics", "--pool", pool, "--curated", str(curated), "--out", str(metrics)]
    ) == 0
    row = json.loads(metrics.read_text())
    assert row["strategy"] == "raw_top"
    assert row["entries"] == 150

    strategies = tmp_path / "s.json"
    strategies.write_text(json.dumps([{"name": "raw_all"}, {"name": "raw_top", "p": 30}]))
    out_dir = tmp_path / "rep"
    assert cli_main(
        ["report", "--pool", pool, "--strategies", str(strategies), "--out-dir", str(out_dir)]
    ) == 0
    assert (out_dir / "report.json").exists()
    assert (out_dir / "report.csv").exists()


def test_cli_sweep(tmp_path):
    config = _write_config(tmp_path, n=1)
    strategies = tmp_path / "s.json"
    strategies.write_text(json.dumps([{"name": "raw_all"}]))
    out_dir = tmp_path / "sweep"
    assert cli_main(
        [
            "sweep",
            "--config",
            config,
            "--scales",
            "100,200",
            "--strategies",
            str(strategies),
            "--out-dir",
            str(out_dir),
        ]
    ) == 0
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3


def test_cli_workers_env(tmp_path, monkeypatch, capsys):
    config = _write_config(tmp_path)
    monkeypatch.setenv("CAPFORGE_WORKERS", "4")
    assert cli_main(["gen", "--config", config, "--out", str(tmp_path / "p1")]) == 0
    monkeypatch.setenv("CAPFORGE_WORKERS", "banana")
    assert cli_main(["gen", "--config", config, "--out", str(tmp_path / "p2")]) == 1
    for env in ["0", "-3"]:  # the rule --workers follows
        monkeypatch.setenv("CAPFORGE_WORKERS", env)
        capsys.readouterr()
        assert cli_main(["gen", "--config", config, "--out", str(tmp_path / "p2")]) == 1
        assert capsys.readouterr().err == "config error: CAPFORGE_WORKERS must be >= 1\n"
        assert not (tmp_path / "p2").exists()
    assert cli_main(["gen", "--config", config, "--out", str(tmp_path / "p2"),
                     "--workers", "2"]) == 0


@pytest.mark.parametrize("reader, code", [
    ("config", 1), ("strategies", 1), ("manifest", 2), ("vocab", 2), ("lexicon", 2),
])
def test_cli_input_that_is_not_utf8_is_one_line(small_pool, tmp_path, capsys, reader, code):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff" + json.dumps({"num_records": 4, "seed": 1}).encode())
    strategies = tmp_path / "s.json"
    strategies.write_text(json.dumps([{"name": "raw_all"}]))
    report = ["report", "--pool", str(small_pool), "--out-dir", str(tmp_path / "r"),
              "--strategies", str(bad if reader == "strategies" else strategies)]
    if reader == "config":
        args = ["gen", "--config", str(bad), "--out", str(tmp_path / "pool")]
    elif reader == "manifest":
        (tmp_path / "pool").mkdir()
        bad.rename(tmp_path / "pool" / "manifest.json")
        args = ["validate", str(tmp_path / "pool")]
    else:
        args = report + ([f"--{reader}", str(bad)] if reader != "strategies" else [])
    assert cli_main(args) == code
    err = capsys.readouterr().err
    assert "not UTF-8" in err and err.count("\n") == 1, err


def test_cli_gen_seed_override(tmp_path):
    config = _write_config(tmp_path, seed=1)
    p1 = tmp_path / "p1"
    p2 = tmp_path / "p2"
    cli_main(["gen", "--config", config, "--out", str(p1), "--seed", "99"])
    base = json.loads((p1 / "manifest.json").read_text())
    assert base["generator_seed"] == 99
    cli_main(["gen", "--config", config, "--out", str(p2)])
    assert json.loads((p2 / "manifest.json").read_text())["generator_seed"] == 1


def test_cli_in1k_mix(tmp_path):
    config = _write_config(tmp_path)
    pool = str(tmp_path / "pool")
    cli_main(["gen", "--config", config, "--out", pool])
    handle = open_pool(pool)
    refs = handle.embeddings("image")[:5]
    from capforge import fileio

    refs_path = tmp_path / "refs.f32"
    fileio.write_embeddings(refs_path, refs)
    out = tmp_path / "c.jsonl"
    code = cli_main(
        [
            "mix",
            "--strategy",
            "raw_top",
            "--p",
            "50",
            "--pool",
            pool,
            "--in1k-refs",
            str(refs_path),
            "--cluster-k",
            "8",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    curated = read_curated(out)
    assert curated.spec.in1k_intersect
    assert len(curated) <= 150


def _subprocess_env() -> dict:
    """This process's environment with capforge's source on PYTHONPATH and
    OPENBLAS_NUM_THREADS unset (importing capforge here set it)."""
    src = str(Path(capforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    return env


def _run_with_openblas_threads(threads, *args):
    """Run ``python *args`` with OPENBLAS_NUM_THREADS set to ``threads``, or
    unset when it is None; returns the finished process."""
    env = _subprocess_env()
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("threads, want", [(None, "1"), ("2", "2")])
def test_importing_capforge_defaults_openblas_to_one_thread(threads, want):
    proc = _run_with_openblas_threads(
        threads, "-c", "import capforge, os; print(os.environ['OPENBLAS_NUM_THREADS'])")
    assert proc.stdout == f"{want}\n"


def test_in1k_report_bytes_do_not_depend_on_openblas_threads(tmp_path):
    pool = tmp_path / "pool"
    assert cli_main(["gen", "--config", _write_config(tmp_path), "--out", str(pool)]) == 0
    refs = tmp_path / "refs.emb"
    fileio.write_embeddings(refs, open_pool(pool).embeddings("image")[[0, 9, 30]])
    strategies = tmp_path / "strategies.json"
    strategies.write_text(json.dumps([
        {"name": "raw_top", "p": 50, "in1k_intersect": True,
         "cluster_params": {"k": 24, "max_iters": 10, "seed": 4}}]))
    outputs = []
    for threads in (None, "2"):
        out = tmp_path / f"r{threads}"
        _run_with_openblas_threads(
            threads, "-m", "capforge.cli", "report", "--pool", str(pool),
            "--strategies", str(strategies), "--in1k-refs", str(refs), "--out-dir", str(out))
        outputs.append([(out / name).read_bytes() for name in ("report.json", "report.csv")])
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][0])[0]["entries"] > 0


def test_cli_mix_and_report_share_the_cluster_k_default_on_a_small_pool(tmp_path):
    """Without --cluster-k or cluster_params, both commands cluster a 40-record
    pool into 40 clusters (the default 64 clamped), and keep the same records."""
    pool = tmp_path / "pool"
    assert cli_main(["gen", "--config", _write_config(tmp_path, n=40, rps=20),
                     "--out", str(pool)]) == 0
    refs = tmp_path / "refs.emb"
    fileio.write_embeddings(refs, open_pool(pool).embeddings("image")[[0, 9, 30]])
    out = tmp_path / "c.jsonl"
    assert cli_main(["mix", "--pool", str(pool), "--strategy", "raw_all",
                     "--in1k-refs", str(refs), "--out", str(out)]) == 0
    assert read_curated(out).spec.cluster_params.k == 40
    strategies = tmp_path / "strategies.json"
    strategies.write_text(json.dumps([{"name": "raw_all", "in1k_intersect": True}]))
    assert cli_main(["report", "--pool", str(pool), "--strategies", str(strategies),
                     "--in1k-refs", str(refs), "--out-dir", str(tmp_path / "r")]) == 0
    row = json.loads((tmp_path / "r" / "report.json").read_text())[0]
    assert row["entries"] == len(read_curated(out)) == 3


@pytest.mark.parametrize("command, value, problem", [
    ("mix", np.nan, "reference row 0 is not finite"),
    ("mix", 0.0, "reference row 0 has zero norm"),
    ("report", np.nan, "reference row 0 is not finite"),
])
def test_cli_in1k_rejects_non_finite_and_zero_references(
    small_pool, tmp_path, capsys, command, value, problem
):
    refs = tmp_path / "refs.emb"
    fileio.write_embeddings(refs, np.full((4, open_pool(small_pool).embedding_dim), value,
                                          dtype=np.float32))
    out = tmp_path / "out"
    if command == "mix":
        args = ["mix", "--strategy", "raw_all", "--cluster-k", "8", "--out", str(out)]
    else:
        strategies = tmp_path / "strategies.json"
        strategies.write_text(json.dumps([{"name": "raw_all", "in1k_intersect": True,
                                           "cluster_params": {"k": 8}}]))
        args = ["report", "--strategies", str(strategies), "--out-dir", str(out)]
    capsys.readouterr()
    assert cli_main(args + ["--pool", str(small_pool), "--in1k-refs", str(refs)]) == 2
    assert capsys.readouterr().err == f"error: {problem}\n"
    assert not out.exists()


def test_cli_gen_and_sweep_refuse_a_used_directory(tmp_path, capsys):
    config = _write_config(tmp_path, n=40, rps=20)
    pool = tmp_path / "pool"
    assert cli_main(["gen", "--config", config, "--out", str(pool)]) == 0
    assert cli_main(["score", "--pool", str(pool), "--source", "raw"]) == 0
    capsys.readouterr()
    assert cli_main(["gen", "--config", config, "--out", str(pool)]) == 2
    assert "not empty" in capsys.readouterr().err
    strategies = tmp_path / "strategies.json"
    strategies.write_text(json.dumps([{"name": "raw_all"}]))
    sweep = ["sweep", "--config", config, "--scales", "20,40", "--strategies",
             str(strategies), "--out-dir", str(tmp_path / "sweep")]
    assert cli_main(sweep) == 0
    capsys.readouterr()
    assert cli_main(sweep) == 2
    assert "not empty" in capsys.readouterr().err


def test_cli_metrics_sample_size_zero_is_honoured(small_pool, tmp_path):
    pool = str(small_pool)
    curated = tmp_path / "c.jsonl"
    cli_main(["mix", "--strategy", "raw_all", "--pool", pool, "--out", str(curated)])
    metrics = tmp_path / "m.json"
    args = ["metrics", "--pool", pool, "--curated", str(curated), "--out", str(metrics)]
    assert cli_main(args + ["--sample-size", "0"]) == 0
    row = json.loads(metrics.read_text())
    assert row["sample_size"] == 0
    assert row["unique_trigrams"] == 0
    assert cli_main(args + ["--sample-size", "-1"]) == 1


@pytest.mark.parametrize("command", ["metrics", "report"])
def test_cli_metrics_and_report_reject_a_negative_seed(small_pool, tmp_path, capsys, command):
    curated, strategies = tmp_path / "c.jsonl", tmp_path / "s.json"
    strategies.write_text(json.dumps([{"name": "raw_all"}]))
    assert cli_main(["mix", "--strategy", "raw_all", "--pool", str(small_pool),
                     "--out", str(curated)]) == 0
    args = {"metrics": ["--curated", str(curated), "--out", str(tmp_path / "m.json")],
            "report": ["--strategies", str(strategies), "--out-dir", str(tmp_path / "r")]}
    capsys.readouterr()
    assert cli_main([command, "--pool", str(small_pool), "--seed", "-3", *args[command]]) == 1
    assert capsys.readouterr().err == "config error: seed must be an unsigned 64-bit integer\n"


@pytest.mark.parametrize("tau", ['"abc"', "true", "NaN", "Infinity", "[0.5]", "1e999"])
def test_cli_metrics_rejects_a_tau_used_that_is_no_finite_number(
    small_pool, tmp_path, capsys, tau
):
    curated = tmp_path / "c.jsonl"
    curated.write_text(
        '{"strategy":"raw_all","tau_used":%s,"entries":1,"spec":{"name":"raw_all"}}\n'
        '{"id":1,"cap":"raw"}\n' % tau)
    out = tmp_path / "m.json"
    capsys.readouterr()
    assert cli_main(["metrics", "--pool", str(small_pool), "--curated", str(curated),
                     "--out", str(out)]) == 2
    assert "not a curated file" in capsys.readouterr().err
    assert not out.exists()


def test_cli_metrics_names_the_missing_variant(two_captioner_pool, tmp_path, capsys):
    rec = read_records(two_captioner_pool)[4]
    curated = tmp_path / "c.jsonl"
    lines = [{"strategy": "raw_all", "tau_used": None, "entries": 3,
              "spec": {"name": "raw_all"}},
             {"id": 1, "cap": "raw"}, {"id": rec.id, "cap": 5}, {"id": rec.id, "cap": 9}]
    curated.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
    capsys.readouterr()
    assert cli_main(["metrics", "--pool", str(two_captioner_pool), "--curated", str(curated),
                     "--out", str(tmp_path / "m.json")]) == 2
    assert capsys.readouterr().err == (
        f"error: curated entry references variant 5 of record {rec.id} "
        f"which has {len(rec.synthetic_variants)} variants\n")


_STRATEGY_FILES = {
    "p_not_a_number": [{"name": "raw_top", "p": "abc"}],
    "cluster_params_not_an_object": [
        {"name": "raw_all", "in1k_intersect": True, "cluster_params": 5}
    ],
    "cluster_k_not_an_integer": [
        {"name": "raw_all", "in1k_intersect": True, "cluster_params": {"k": "x"}}
    ],
    "cluster_k_float": [{"name": "raw_all", "cluster_params": {"k": 2.7}}],
    "cluster_k_bool": [{"name": "raw_all", "cluster_params": {"k": True}}],
    "cluster_max_iters_float": [{"name": "raw_all", "cluster_params": {"k": 2, "max_iters": 3.9}}],
    "cluster_seed_string": [{"name": "raw_all", "cluster_params": {"k": 2, "seed": "4"}}],
    "p_numeric_string": [{"name": "raw_top", "p": "30"}],
    "p_bool": [{"name": "raw_top", "p": True}],
    "cluster_seed_negative": [{"name": "raw_all", "cluster_params": {"k": 2, "seed": -1}}],
    "cluster_tol_nan": [{"name": "raw_all", "cluster_params": {"k": 2, "tol": float("nan")}}],
    "cluster_k_zero": [{"name": "raw_all", "cluster_params": {"k": 0}}],
    "cluster_max_iters_zero": [{"name": "raw_all", "cluster_params": {"k": 2, "max_iters": 0}}],
    "cluster_unknown_field": [{"name": "raw_all", "cluster_params": {"k": 2, "K": 3}}],
    "cluster_without_k": [{"name": "raw_all", "cluster_params": {"seed": 3}}],
    "spec_not_an_object": ["raw_all"],
    "spec_without_name": [{"p": 30}],
    "spec_unknown_field": [{"name": "raw_all", "P": 30}],
    "spec_name_number": [{"name": 5}],
    "spec_syn_source_number": [{"name": "syn_all", "syn_source": 5}],
    "strategies_not_a_list": {"name": "raw_all"},
    "p_past_float": [{"name": "raw_top", "p": 10**400}],
}
_CURATED_ENTRIES = {
    "curated_unknown_id": {"id": 99999999, "cap": "raw"},
    "curated_variant_past_end": {"id": 0, "cap": 7},
    "curated_variant_negative": {"id": 0, "cap": -2},
    "curated_id_past_int64": {"id": 2**70, "cap": "raw"},
    "curated_id_float": {"id": 1.9, "cap": "raw"},
    "curated_cap_float": {"id": 2, "cap": 0.7},
    "curated_cap_bool": {"id": 2, "cap": True},
}


def _syn_config(**changes) -> dict:
    """A generator config whose one synthetic source has `changes`."""
    source = {"source_name": "blip2", "temperature": 0.75, "diversity_factor": 0.7}
    return {"num_records": 10, "seed": 1, "syn_sources": [{**source, **changes}]}


_GEN_CONFIGS = {
    "gen_seed_string": {"num_records": 10, "seed": "x"},
    "gen_records_float": {"num_records": 10.0, "seed": 1},
    "gen_syn_sources_not_a_list": {"num_records": 10, "seed": 1, "syn_sources": 5},
    "gen_config_not_an_object": [10, 1],
    "gen_seed_past_uint64": {"num_records": 10, "seed": 2**64},
    "gen_embedding_dim_one": {"num_records": 10, "seed": 1, "embedding_dim": 1},
    "gen_records_per_shard_zero": {"num_records": 10, "seed": 1, "records_per_shard": 0},
    "gen_concept_vocab_one": {"num_records": 10, "seed": 1, "concept_vocab_size": 1},
    "gen_zipf_exponent_zero": {"num_records": 10, "seed": 1, "zipf_exponent": 0},
    "gen_syn_source_not_an_object": {"num_records": 10, "seed": 1, "syn_sources": [5]},
    "gen_syn_source_missing_field": {"num_records": 10, "seed": 1, "syn_sources": [
        {"source_name": "x", "temperature": 1}]},
    "gen_source_name_empty": _syn_config(source_name=""),
    "gen_source_name_number": _syn_config(source_name=7),
    "gen_temperature_negative": _syn_config(temperature=-1),
    "gen_diversity_factor_zero": _syn_config(diversity_factor=0),
    "gen_temperature_past_float": _syn_config(temperature=10**400),
}
_MISCOUNTED = [f"manifest_{count}_{command}" for count in (7, 3)
               for command in ("mix", "report", "score")]
# (pool case, command): a sidecar of another shape than the manifest implies
_RESHAPED = {f"{case}_{command}": (case, command) for case, command in [
    ("raw_4_rows", "score"), ("raw_4_rows", "filter"), ("raw_4_rows", "mix"),
    ("raw_dim_3", "score"), ("second_image_dim_3", "in1k")]}
# (pool case, command) of ``BROKEN_POOLS``: a pool that breaks an invariant
_BROKEN = {f"{case}_{command}": (case, command) for case, command in [
    ("repeated_id", "mix"), ("repeated_label", "syn_all"), ("label_without_embeddings", "score"),
    ("zero_row", "filter")]}
# pool case -> the one error line: a sidecar entry that is NaN or infinite
_NON_FINITE = {
    "raw_nan_score": "shard-00000.raw.f32: non-finite entry at pool row 2",
    "image_inf_in1k": "shard-00001.image.f32: non-finite entry at pool row 25",
}


@pytest.mark.parametrize(
    "case, code",
    [(name, 1) for name in _STRATEGY_FILES]
    + [(name, 1) for name in _GEN_CONFIGS]
    + [("curated_not_json", 2), ("curated_missing", 2)]
    + [(name, 2) for name in _CURATED_ENTRIES]
    + [("shard_line_truncated_mix", 2), ("shard_line_truncated_filter", 2)]
    + [("validate_workers_zero", 1)]
    + [("scores_corrupt_mix", 2), ("scores_corrupt_filter", 2), ("scores_corrupt_metrics", 2)]
    + [("shard_bad_label_mix", 2), ("curated_truncated", 2), ("curated_count_not_integer", 2)]
    + [("sweep_scales_not_integers", 1), ("sweep_scale_zero", 1)]
    + [("syn_all_variant_missing", 2)] + [(name, 2) for name in _MISCOUNTED]
    + [(name, 2) for name in _RESHAPED] + [(name, 2) for name in _NON_FINITE]
    + [(name, 2) for name in _BROKEN],
)
def test_cli_malformed_input_exits_without_traceback(
    small_pool, two_captioner_pool, truncated_line_pool, corrupt_scores_pool, bad_label_pool,
    truncated_curated, edited_pools, reshaped_pools, non_finite_pools, broken_pools, tmp_path,
    case, code,
):
    if case.startswith("sweep_"):
        config, strategies = tmp_path / "g.json", tmp_path / "s.json"
        config.write_text(json.dumps({"num_records": 10, "seed": 1}))
        strategies.write_text(json.dumps([{"name": "raw_all"}]))
        scales = "a,b" if case == "sweep_scales_not_integers" else "0,10"
        args = ["sweep", "--config", str(config), "--scales", scales, "--strategies",
                str(strategies), "--out-dir", str(tmp_path / "sweep")]
    elif case == "syn_all_variant_missing":
        args = ["mix", "--strategy", "syn_all", "--syn-source", "blip2",
                "--pool", str(edited_pools["gap"]), "--out", str(tmp_path / "c.jsonl")]
    elif case in _MISCOUNTED:
        _, count, command = case.split("_")
        pool = str(edited_pools[count])
        strategies = tmp_path / "s.json"
        strategies.write_text(json.dumps([{"name": "raw_all"}]))
        args = {"mix": ["mix", "--strategy", "raw_all", "--pool", pool,
                        "--out", str(tmp_path / "c.jsonl")],
                "report": ["report", "--pool", pool, "--strategies", str(strategies),
                           "--out-dir", str(tmp_path / "rep")],
                "score": ["score", "--pool", pool, "--source", "raw"]}[command]
    elif case in _RESHAPED:
        pool_case, command = _RESHAPED[case]
        pool, out = str(reshaped_pools[pool_case]), str(tmp_path / "out.jsonl")
        args = {"score": ["score", "--pool", pool, "--source", "raw"],
                "filter": ["filter", "--p", "50", "--pool", pool, "--out", out],
                "mix": ["mix", "--strategy", "raw_top", "--p", "50", "--pool", pool,
                        "--out", out],
                "in1k": ["mix", "--strategy", "raw_all", "--in1k-refs",
                         str(reshaped_pools["refs.f32"]), "--pool", pool, "--out", out],
                }[command]
    elif case in _NON_FINITE:
        pool = str(non_finite_pools[case])
        args = {"raw_nan_score": ["score", "--pool", pool, "--source", "raw"],
                "image_inf_in1k": ["mix", "--strategy", "raw_all", "--in1k-refs",
                                   str(non_finite_pools["refs.f32"]), "--cluster-k", "4",
                                   "--pool", pool, "--out", str(tmp_path / "c.jsonl")],
                }[case]
    elif case in _BROKEN:
        pool_case, command = _BROKEN[case]
        pool, out = str(broken_pools[pool_case]), str(tmp_path / "c.jsonl")
        args = {"mix": ["mix", "--strategy", "raw_all", "--pool", pool, "--out", out],
                "syn_all": ["mix", "--strategy", "syn_all", "--syn-source", "syn.b.1.00",
                            "--pool", pool, "--out", out],
                "score": ["score", "--pool", pool, "--source", "raw"],
                "filter": ["filter", "--p", "50", "--pool", pool, "--out", out],
                }[command]
    elif case == "shard_bad_label_mix":
        args = ["mix", "--strategy", "raw_all", "--pool", str(bad_label_pool),
                "--out", str(tmp_path / "c.jsonl")]
    elif case == "curated_truncated":
        args = ["metrics", "--pool", str(truncated_curated / "pool"), "--curated",
                str(truncated_curated / "c.jsonl"), "--out", str(tmp_path / "m.json")]
    elif case == "curated_count_not_integer":
        path = tmp_path / "c.jsonl"
        header = {"strategy": "raw_all", "tau_used": None, "entries": "1",
                  "spec": {"name": "raw_all"}}
        path.write_text("".join(json.dumps(obj) + "\n" for obj in [header, {"id": 1, "cap": "raw"}]))
        args = ["metrics", "--pool", str(small_pool), "--curated", str(path),
                "--out", str(tmp_path / "m.json")]
    elif case == "scores_corrupt_mix":
        args = ["mix", "--strategy", "raw_top", "--p", "30", "--pool", str(corrupt_scores_pool),
                "--out", str(tmp_path / "c.jsonl")]
    elif case == "scores_corrupt_filter":
        args = ["filter", "--p", "30", "--pool", str(corrupt_scores_pool),
                "--out", str(tmp_path / "ids.jsonl")]
    elif case == "scores_corrupt_metrics":
        path = tmp_path / "c.jsonl"
        header = {"strategy": "raw_all", "tau_used": None, "entries": 2,
                  "spec": {"name": "raw_all"}}
        lines = [header, {"id": 1, "cap": "raw"}, {"id": 2, "cap": "raw"}]
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
        args = ["metrics", "--pool", str(corrupt_scores_pool), "--curated", str(path),
                "--out", str(tmp_path / "m.json")]
    elif case == "shard_line_truncated_mix":
        args = ["mix", "--strategy", "raw_all", "--pool", str(truncated_line_pool),
                "--out", str(tmp_path / "c.jsonl")]
    elif case == "shard_line_truncated_filter":
        args = ["filter", "--p", "50", "--pool", str(truncated_line_pool),
                "--out", str(tmp_path / "ids.jsonl")]
    elif case == "validate_workers_zero":
        args = ["validate", str(small_pool), "--workers", "0"]
    elif case in _STRATEGY_FILES:
        path = tmp_path / "s.json"
        path.write_text(json.dumps(_STRATEGY_FILES[case]))
        args = ["report", "--pool", str(small_pool), "--strategies", str(path),
                "--out-dir", str(tmp_path / "rep")]
    elif case in _GEN_CONFIGS:
        path = tmp_path / "g.json"
        path.write_text(json.dumps(_GEN_CONFIGS[case]))
        args = ["gen", "--config", str(path), "--out", str(tmp_path / "pool")]
    elif case in _CURATED_ENTRIES:
        # the whole curated set is checked, not only the sampled captions
        path = tmp_path / "c.jsonl"
        header = {"strategy": "raw_all", "tau_used": None, "entries": 2,
                  "spec": {"name": "raw_all"}}
        lines = [header, {"id": 1, "cap": "raw"}, _CURATED_ENTRIES[case]]
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
        args = ["metrics", "--pool", str(two_captioner_pool), "--curated", str(path),
                "--out", str(tmp_path / "m.json"), "--sample-size", "0"]
    else:
        path = tmp_path / "c.jsonl"
        if case == "curated_not_json":
            path.write_text("not json\n")
        args = ["metrics", "--pool", str(small_pool), "--curated", str(path),
                "--out", str(tmp_path / "m.json")]
    proc = subprocess.run([sys.executable, "-m", "capforge.cli", *args],
                          capture_output=True, text=True, env=_subprocess_env())
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    if case in _NON_FINITE:  # the sidecar and pool row are named, and nothing is written
        assert proc.stderr == f"error: {_NON_FINITE[case]}\n"
        assert not (non_finite_pools[case] / "raw.scores.f32").exists()
        assert not (tmp_path / "c.jsonl").exists()
    if case in _BROKEN:  # the read's one line, and nothing is written
        assert proc.stderr.endswith(f"{BROKEN_POOLS[_BROKEN[case][0]].read_error}\n"), proc.stderr
        assert not (broken_pools[_BROKEN[case][0]] / "raw.scores.f32").exists()
        assert not (tmp_path / "c.jsonl").exists()
