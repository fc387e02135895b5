import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import capforge
from capforge import fileio
from capforge.cli import cli_main
from capforge.curation import StrategySpec, apply_strategy, read_curated
from capforge.pool import materialize, open_pool
from capforge.poolgen import GenConfig, SynSource, generate_pool
from capforge.report import (
    MetricConfig,
    REPORT_COLUMNS,
    build_quality_report,
    make_table_getter,
    run_report,
    run_sweep,
    strategy_tables,
)
from capforge.scoring import score_pool
from capforge.errors import ConfigError


@pytest.fixture(scope="module")
def small_pool(tmp_path_factory):
    path = tmp_path_factory.mktemp("report") / "pool"
    generate_pool(GenConfig(num_records=1200, seed=21, records_per_shard=400), path)
    return path


@pytest.fixture(scope="module")
def truncated_line_pool(tmp_path_factory):
    """Pool whose second shard has a record cut short, under a matching checksum."""
    path = tmp_path_factory.mktemp("report") / "pool3"
    generate_pool(GenConfig(num_records=40, seed=5, records_per_shard=20), path)
    victim = path / "shard-00001.jsonl"
    lines = victim.read_bytes().split(b"\n")
    lines[2] = lines[2][: len(lines[2]) // 2]
    blob = b"\n".join(lines)
    victim.write_bytes(blob)
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["checksums"][victim.name] = fileio.crc32c_hex(blob)
    (path / "manifest.json").write_text(json.dumps(manifest))
    return path


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


def test_report_empty_strategy_list(small_pool, tmp_path):
    run_report(small_pool, [], MetricConfig(), out_dir=tmp_path)
    assert json.loads((tmp_path / "report.json").read_text()) == []
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines == [",".join(REPORT_COLUMNS)]


def test_mix_materialize_report_roundtrip(small_pool, tmp_path):
    handle = open_pool(small_pool)
    spec = StrategySpec("raw_top_plus_syn_rest_filtered", p=30, syn_source="blip2")
    get_table = make_table_getter(handle)
    curated = apply_strategy(handle, spec, strategy_tables(handle, spec, get_table))
    row = build_quality_report(
        handle,
        curated,
        get_table,
        vocab={"dog"},
        lexicon={"dog"},
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


def test_sweep_validation():
    template = GenConfig(num_records=1, seed=0)
    with pytest.raises(ConfigError):
        run_sweep(template, [], [], MetricConfig())
    with pytest.raises(ConfigError):
        run_sweep(template, [100, 100], [], MetricConfig())
    with pytest.raises(ConfigError):
        run_sweep(template, [200, 100], [], MetricConfig())
    with pytest.raises(ConfigError):
        run_sweep(template, [10**9], [], MetricConfig())


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
    victim = pool / "shard-00000.jsonl"
    victim.write_bytes(victim.read_bytes() + b"garbage")
    assert cli_main(["validate", str(pool)]) == 2


def test_cli_validate_names_each_corrupt_file(tmp_path, capsys):
    config = _write_config(tmp_path)
    pool = tmp_path / "pool"
    cli_main(["gen", "--config", config, "--out", str(pool)])
    shard = pool / "shard-00001.jsonl"
    shard.write_bytes(b"x" + shard.read_bytes()[1:])
    sidecar = pool / "shard-00002.syn.blip2.0.75.f32"
    sidecar.write_bytes(sidecar.read_bytes()[:-4])
    capsys.readouterr()
    assert cli_main(["validate", str(pool)]) == 2
    err = capsys.readouterr().err
    assert "shard-00001.jsonl: checksum mismatch" in err
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
    code = cli_main(
        ["filter", "--pool", pool, "--p", "150", "--out", str(tmp_path / "f.jsonl")]
    )
    assert code == 1


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


def test_cli_workers_env(tmp_path, monkeypatch):
    config = _write_config(tmp_path)
    monkeypatch.setenv("CAPFORGE_WORKERS", "4")
    assert cli_main(["gen", "--config", config, "--out", str(tmp_path / "p1")]) == 0
    monkeypatch.setenv("CAPFORGE_WORKERS", "banana")
    assert cli_main(["gen", "--config", config, "--out", str(tmp_path / "p2")]) == 1


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


_STRATEGY_FILES = {
    "p_not_a_number": [{"name": "raw_top", "p": "abc"}],
    "cluster_params_not_an_object": [
        {"name": "raw_all", "in1k_intersect": True, "cluster_params": 5}
    ],
    "cluster_k_not_an_integer": [
        {"name": "raw_all", "in1k_intersect": True, "cluster_params": {"k": "x"}}
    ],
}
_CURATED_ENTRIES = {
    "curated_unknown_id": {"id": 99999999, "cap": "raw"},
    "curated_variant_past_end": {"id": 0, "cap": 7},
    "curated_variant_negative": {"id": 0, "cap": -2},
}
_GEN_CONFIGS = {
    "gen_seed_string": {"num_records": 10, "seed": "x"},
    "gen_records_float": {"num_records": 10.0, "seed": 1},
    "gen_syn_sources_not_a_list": {"num_records": 10, "seed": 1, "syn_sources": 5},
}


@pytest.mark.parametrize(
    "case, code",
    [(name, 1) for name in _STRATEGY_FILES]
    + [(name, 1) for name in _GEN_CONFIGS]
    + [("curated_not_json", 2), ("curated_missing", 2)]
    + [(name, 2) for name in _CURATED_ENTRIES]
    + [("shard_line_truncated_mix", 2), ("shard_line_truncated_filter", 2)]
    + [("validate_workers_zero", 1)],
)
def test_cli_malformed_input_exits_without_traceback(
    small_pool, two_captioner_pool, truncated_line_pool, tmp_path, case, code
):
    if case == "shard_line_truncated_mix":
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
    src = str(Path(capforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "capforge.cli", *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
