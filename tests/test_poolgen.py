import itertools
import json
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capforge import fileio
from capforge._words import (
    BOILERPLATE_CAPTIONS,
    CONCEPT_WORDS,
    FILLER_WORDS,
    GLUE_WORDS,
    concept_word,
)
from capforge.curation import ClusterParams, StrategySpec
from capforge.errors import JSON_TYPES, ConfigError, DataError, DomainError
from capforge.cli import cli_main
from capforge.pool import (
    open_pool,
    shard_layout,
    validate_pool,
    variant_source_label,
)
from capforge.poolgen import (
    GenConfig,
    SynSource,
    _attach_batch,
    config_from_dict,
    embed_concept,
    generate_pool,
    load_config,
)
from capforge.scoring import ScoreTables, score_pool
from capforge.textmetrics import default_visual_vocab, tokenize, unique_trigrams
from helpers import (
    CRC32C_POLY, handle_captions, oracle_shard_records, read_records, record_captions, scalar_crc,
)


def _dir_bytes(path):
    return {f.name: f.read_bytes() for f in sorted(path.iterdir())}


def test_word_banks_disjoint():
    glue = set(GLUE_WORDS)
    fillers = set(FILLER_WORDS)
    concepts = set(CONCEPT_WORDS)
    boiler = set(itertools.chain.from_iterable(c.split() for c in BOILERPLATE_CAPTIONS))
    assert not glue & fillers
    assert not glue & concepts
    assert not glue & default_visual_vocab()
    assert not glue & boiler
    assert not fillers & concepts
    assert len(BOILERPLATE_CAPTIONS) == 8


def test_concept_word_deterministic_and_unique():
    words = [concept_word(i) for i in range(3000)]
    assert len(set(words)) == 3000
    assert words[: len(CONCEPT_WORDS)] == CONCEPT_WORDS
    assert all(w.startswith("qa") for w in words[len(CONCEPT_WORDS) :])


def test_empty_pool_is_valid(tmp_path):
    config = GenConfig(num_records=0, seed=1)
    manifest = generate_pool(config, tmp_path)
    assert manifest.num_records == 0
    assert validate_pool(open_pool(tmp_path)).ok


def test_determinism_same_seed(tmp_path):
    config = GenConfig(num_records=700, seed=7, records_per_shard=200)
    m1 = generate_pool(config, tmp_path / "a")
    m2 = generate_pool(config, tmp_path / "b")
    assert m1.checksums == m2.checksums
    assert _dir_bytes(tmp_path / "a") == _dir_bytes(tmp_path / "b")


def test_worker_count_does_not_change_bytes(tmp_path):
    config = GenConfig(num_records=900, seed=3, records_per_shard=150)
    generate_pool(config, tmp_path / "a", workers=1)
    generate_pool(config, tmp_path / "b", workers=8)
    assert _dir_bytes(tmp_path / "a") == _dir_bytes(tmp_path / "b")


def test_fewer_than_one_worker_is_refused_before_the_directory_is_made(tmp_path):
    with pytest.raises(ConfigError, match="^workers must be >= 1, got 0$"):
        generate_pool(GenConfig(num_records=10, seed=1), tmp_path / "pool", workers=0)
    assert not (tmp_path / "pool").exists()


# quotes, backslashes, controls, U+2028 and non-ASCII, for source names
_NAME_CHARS = ["a", "b", "\u00e9", "\u96ea", '"', "\\", "\u2028", "\x01", "\x1f", "\t", " "]


@st.composite
def _gen_configs(draw):
    source = st.builds(
        SynSource,
        st.text(st.sampled_from(_NAME_CHARS), min_size=1, max_size=4),
        st.one_of(st.integers(0, 3), st.floats(0, 3)),
        st.sampled_from([0.01, 0.05, 0.3, 0.7, 1.0, 2.5]),
    )
    return GenConfig(
        num_records=draw(st.integers(0, 30)),
        seed=draw(st.integers(0, 2**64 - 1)),
        embedding_dim=2,
        records_per_shard=draw(st.integers(1, 12)),
        concept_vocab_size=draw(st.sampled_from([2, 5, 348, 349, 400, 5000])),
        zipf_exponent=draw(st.sampled_from([0.2, 1.1, 3.0])),
        raw_noise_rate=draw(st.sampled_from([0.0, 0.12, 0.5, 1.0])),
        syn_sources=draw(st.lists(source, max_size=3, unique_by=lambda s: s.label)),
    )


@settings(max_examples=60, deadline=None)
@given(config=_gen_configs())
@example(config=GenConfig(num_records=0, seed=1))
@example(config=GenConfig(num_records=7, seed=2, records_per_shard=1, concept_vocab_size=2,
                          raw_noise_rate=1.0, syn_sources=[]))
@example(config=GenConfig(
    num_records=25, seed=3, records_per_shard=10, concept_vocab_size=5000,
    zipf_exponent=0.2, raw_noise_rate=0.0,
    syn_sources=[SynSource('q"\\\u2028\x01\u00e9\u96ea', 1, 0.01),
                 SynSource("b", 0.5, 2.5), SynSource("c", 2, 0.3)]))
def test_shards_match_the_record_by_record_oracle(config):
    with tempfile.TemporaryDirectory() as tmp:
        generate_pool(config, Path(tmp) / "pool")
        sizes = shard_layout(config.num_records, config.records_per_shard)
        expected = [record for k, size in enumerate(sizes)
                    for record in oracle_shard_records(config, k, size)]
        got = read_records(Path(tmp) / "pool")
        assert [(r.id, r.prov) for r in got] == [(r.id, None) for r in expected]
        assert record_captions(got) == record_captions(expected)
        assert handle_captions(open_pool(Path(tmp) / "pool")) == record_captions(expected)


def test_readme_pool_checksums_are_pinned(tmp_path):
    """A 2k-record pool of the README config.  The CRC32C of each file's bytes
    is the one pool format 2 recorded (the sidecars' are those of every
    earlier generator), so no byte changed with format 3, whose manifest
    records zlib's CRC-32 instead."""
    manifest = generate_pool(GenConfig(num_records=2000, seed=7), tmp_path)
    assert {name: f"{scalar_crc((tmp_path / name).read_bytes(), CRC32C_POLY):08x}"
            for name in manifest.checksums} == {
        "shard-00000.cap": "d8b46358",
        "shard-00000.image.f32": "d38e6713",
        "shard-00000.raw.f32": "ec2ff40f",
        "shard-00000.syn.blip2.0.75.f32": "84a43111",
        "shard-00001.cap": "d3e7ce05",
        "shard-00001.image.f32": "11374233",
        "shard-00001.raw.f32": "376c84da",
        "shard-00001.syn.blip2.0.75.f32": "61cad4f9",
    }
    assert manifest.checksums == {
        "shard-00000.cap": "26827fa9",
        "shard-00000.image.f32": "c0ef6969",
        "shard-00000.raw.f32": "5471b903",
        "shard-00000.syn.blip2.0.75.f32": "6e4a98c1",
        "shard-00001.cap": "57267007",
        "shard-00001.image.f32": "7e430ded",
        "shard-00001.raw.f32": "46d8f73e",
        "shard-00001.syn.blip2.0.75.f32": "2bd31143",
    }


def test_different_seed_changes_pool(tmp_path):
    generate_pool(GenConfig(num_records=100, seed=1), tmp_path / "a")
    generate_pool(GenConfig(num_records=100, seed=2), tmp_path / "b")
    assert _dir_bytes(tmp_path / "a") != _dir_bytes(tmp_path / "b")


def test_regenerating_into_a_scored_pool_is_refused(tmp_path):
    generate_pool(GenConfig(num_records=60, seed=1, records_per_shard=20), tmp_path)
    assert cli_main(["score", "--pool", str(tmp_path), "--source", "raw"]) == 0
    before = _dir_bytes(tmp_path)
    # a smaller pool with another seed would leave raw.scores.f32 and shard-00002 stale
    with pytest.raises(DataError, match="not empty"):
        generate_pool(GenConfig(num_records=40, seed=2, records_per_shard=20), tmp_path)
    assert _dir_bytes(tmp_path) == before


def test_generated_pool_validates_and_has_truth_sidecars(gen_pool):
    assert validate_pool(gen_pool).ok
    for source in ("raw", "syn.blip2.0.75", "syn.blip2.1.50"):
        assert (gen_pool.path / f"{source}.alpha.scores.f32").is_file()


def test_cosine_equals_drawn_alpha(gen_pool):
    for source in ("raw", "syn.blip2.0.75", "syn.blip2.1.50"):
        table = score_pool(gen_pool, source)
        alphas = ScoreTables(gen_pool)[f"{source}.alpha"].scores
        assert np.abs(table.scores - alphas).max() < 1e-6


def test_alignment_mean_calibration(tmp_path):
    # wider tolerance at 20k records; the tight +-0.005 check runs at 1e5 in
    # the acceptance suite
    config = GenConfig(num_records=20_000, seed=5, records_per_shard=5000)
    generate_pool(config, tmp_path)
    handle = open_pool(tmp_path)
    raw = score_pool(handle, "raw").scores
    syn = score_pool(handle, "syn.blip2.0.75").scores
    assert abs(float(np.mean(raw.astype(np.float64))) - 0.208) < 0.01
    assert abs(float(np.mean(syn.astype(np.float64))) - 0.251) < 0.01


def test_boilerplate_rate_and_content(gen_pool):
    captions = [r.raw_caption for r in read_records(gen_pool.path)]
    boiler = [c for c in captions if c in BOILERPLATE_CAPTIONS]
    rate = len(boiler) / len(captions)
    assert 0.08 < rate < 0.16  # configured 0.12
    assert set(boiler) <= set(BOILERPLATE_CAPTIONS)


def test_raw_captions_use_no_glue_tokens(gen_pool):
    glue = set(GLUE_WORDS)
    for rec in read_records(gen_pool.path):
        assert not glue & set(tokenize(rec.raw_caption)), rec.raw_caption


def test_syn_trigrams_below_raw_when_diversity_reduced(tmp_path):
    for df in (0.5, 0.7):
        config = GenConfig(
            num_records=2000,
            seed=9,
            records_per_shard=1000,
            syn_sources=[SynSource("blip2", 0.75, df)],
        )
        out = tmp_path / f"df{df}"
        generate_pool(config, out)
        handle = open_pool(out)
        raw = unique_trigrams(r.raw_caption for r in read_records(out))
        syn = unique_trigrams(
            r.synthetic_variants[0].text for r in read_records(out)
        )
        assert syn < raw, (df, syn, raw)


def test_variant_labels_unique_per_record(gen_pool):
    rec = read_records(gen_pool.path)[0]
    labels = [variant_source_label(v.source_name, v.temperature) for v in rec.synthetic_variants]
    assert labels == ["syn.blip2.0.75", "syn.blip2.1.50"]


# ---------------------------------------------------------------------------
# embed_concept / _attach_batch


def test_embed_concept_set_semantics():
    a = embed_concept([3, 1, 2], 16, seed=0)
    b = embed_concept([2, 3, 1, 1], 16, seed=0)
    assert np.allclose(a, b)
    assert abs(np.linalg.norm(a) - 1.0) < 1e-6


def test_embed_concept_seed_and_dim_matter():
    a = embed_concept([1, 2], 16, seed=0)
    b = embed_concept([1, 2], 16, seed=1)
    assert not np.allclose(a, b)
    with pytest.raises(DomainError):
        embed_concept([1], 1, seed=0)
    with pytest.raises(DomainError):
        embed_concept([], 8, seed=0)


def test_embed_concept_disjoint_sets_nearly_orthogonal():
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(1000):
        ids = rng.choice(5000, size=8, replace=False)
        a = embed_concept(ids[:4], 64, seed=11)
        b = embed_concept(ids[4:], 64, seed=11)
        worst = max(worst, abs(float(a @ b)))
    assert worst < 0.5


def _attach(e: np.ndarray, alpha: float, noise_seed: int) -> np.ndarray:
    """``_attach_batch`` of one image row under seeded Gaussian noise."""
    noise = np.random.default_rng(noise_seed).standard_normal((1, e.size))
    return _attach_batch(e[None], np.array([alpha]), noise)[0]


def test_attach_batch_extremes():
    e = embed_concept([5], 32, seed=1)
    same = _attach(e, 1.0, noise_seed=4)
    assert np.allclose(same, e, atol=1e-9)
    ortho = _attach(e, 0.0, noise_seed=4)
    assert abs(float(e @ ortho)) < 1e-6
    assert abs(np.linalg.norm(ortho) - 1.0) < 1e-9


def test_attach_batch_mid_range_value():
    # a typical raw top-30% similarity cutoff
    e = embed_concept([1, 2, 3], 48, seed=2)
    t = _attach(e, 0.243, noise_seed=77)
    assert abs(float(e @ t) - 0.243) < 1e-6


def test_attach_batch_deterministic_in_its_noise():
    e = embed_concept([5], 8, seed=0)
    assert np.array_equal(_attach(e, 0.3, noise_seed=5), _attach(e, 0.3, noise_seed=5))
    assert not np.allclose(_attach(e, 0.3, noise_seed=5), _attach(e, 0.3, noise_seed=6))


@pytest.mark.parametrize("alpha", [0.0, 0.243, -0.6, 0.999])
def test_attach_batch_noise_parallel_to_the_image(alpha):
    """A noise row equal to its image row, or to its negation, has no part
    orthogonal to it; a fixed orthogonal direction takes its place."""
    images = np.stack([embed_concept([c], 16, seed=3) for c in (1, 2, 7)])
    noise = np.stack([images[0], -images[1], np.random.default_rng(0).standard_normal(16)])
    texts = _attach_batch(images, np.full(3, alpha), noise)
    assert np.abs(np.linalg.norm(texts, axis=1) - 1.0).max() < 1e-6
    assert np.abs(np.einsum("ij,ij->i", images, texts) - alpha).max() < 1e-6
    assert np.isfinite(texts).all()


# ---------------------------------------------------------------------------
# config parsing


def test_config_rejects_unknown_field():
    with pytest.raises(ConfigError, match="unknown config field"):
        config_from_dict({"num_records": 1, "seed": 0, "bogus": 3})


def test_config_requires_num_records_and_seed():
    with pytest.raises(ConfigError, match="num_records"):
        config_from_dict({"seed": 0})
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict({"num_records": 5})


def test_config_syn_sources_parsing():
    config = config_from_dict(
        {
            "num_records": 10,
            "seed": 0,
            "syn_sources": [
                {"source_name": "blip2", "temperature": 0.75, "diversity_factor": 0.7}
            ],
        }
    )
    assert config.syn_sources == [SynSource("blip2", 0.75, 0.7)]
    with pytest.raises(ConfigError, match="unknown syn_sources field"):
        config_from_dict(
            {
                "num_records": 1,
                "seed": 0,
                "syn_sources": [
                    {"source_name": "x", "temperature": 1, "diversity_factor": 1, "y": 2}
                ],
            }
        )


def test_every_config_and_strategy_field_is_type_checked_by_the_reader():
    """A field the reader cannot check must be one its caller reads itself."""
    for cls in (GenConfig, SynSource, StrategySpec, ClusterParams):
        for f in fields(cls):
            base = f.type.removesuffix(" | None") if isinstance(f.type, str) else f.type
            assert base in JSON_TYPES or f.name in ("syn_sources", "cluster_params"), (
                f"{cls.__name__}.{f.name}: {f.type!r}")


def test_config_reads_integer_numbers_as_floats():
    config = config_from_dict({"num_records": 1, "seed": 0, "zipf_exponent": 2,
                               "syn_sources": [{"source_name": "b", "temperature": 1,
                                                "diversity_factor": 1}]})
    assert type(config.zipf_exponent) is float
    assert config.syn_sources == [SynSource("b", 1.0, 1.0)]
    assert type(config.syn_sources[0].temperature) is float


def test_config_validation_bounds():
    with pytest.raises(ConfigError):
        GenConfig(num_records=-1, seed=0).validate()
    with pytest.raises(ConfigError):
        GenConfig(num_records=1, seed=0, raw_alignment_mean=1.5).validate()
    with pytest.raises(ConfigError):
        GenConfig(num_records=1, seed=0, raw_noise_rate=1.2).validate()
    with pytest.raises(ConfigError):
        GenConfig(num_records=1, seed=0, embedding_dim=1).validate()
    with pytest.raises(ConfigError):
        GenConfig(
            num_records=1,
            seed=0,
            syn_sources=[SynSource("a", 0.75, 1.0), SynSource("a", 0.75, 0.5)],
        ).validate()


@pytest.mark.parametrize("where, field, value", [
    ("config", "zipf_exponent", "NaN"),
    ("config", "zipf_exponent", "Infinity"),
    ("config", "raw_alignment_mean", "NaN"),
    ("config", "raw_noise_rate", "NaN"),
    ("source", "temperature", "NaN"),
    ("source", "temperature", "Infinity"),
    ("source", "diversity_factor", "NaN"),
    ("source", "diversity_factor", "Infinity"),
    ("source", "diversity_factor", "1e308"),
])
def test_gen_refuses_non_finite_numbers(tmp_path, capsys, where, field, value):
    source = {"source_name": "b", "temperature": 0.5, "diversity_factor": 0.7}
    config = {"num_records": 4, "seed": 1, "syn_sources": [source]}
    (config if where == "config" else source)[field] = "VALUE"
    path = tmp_path / "g.json"
    path.write_text(json.dumps(config).replace('"VALUE"', value))
    assert cli_main(["gen", "--config", str(path), "--out", str(tmp_path / "pool")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert field in err
    assert not (tmp_path / "pool").exists()


def test_load_config_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"num_records": 4, "seed": 2}))
    config = load_config(path)
    assert config.num_records == 4
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_truth_sidecars_match_scr1_format(gen_pool):
    raw = fileio.read_scores(gen_pool.path / "raw.alpha.scores.f32")
    assert raw.size == gen_pool.num_records
    assert np.all(np.abs(raw) <= 0.999)
