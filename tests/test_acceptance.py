"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import hashlib
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from capforge.cli import cli_main
from capforge.curation import (
    ClusterParams,
    STRATEGY_NAMES,
    StrategySpec,
    apply_strategy,
    kmeans,
    kmeans_trace,
    threshold_filter,
    top_fraction,
)
from capforge.pool import materialize, open_pool, validate_pool
from capforge.poolgen import GenConfig, SynSource, generate_pool
from capforge.report import MetricConfig, run_report, run_sweep
from capforge.scoring import ScoreTable, ScoreTables, recall_at_1, score_pool
from capforge.textmetrics import tokenize, unique_trigrams
from helpers import (
    RAW, build_plain_pool, oracle_strategy, oracle_top, oracle_trigrams, pairs,
)


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL {description}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS {description}")


@pytest.fixture(scope="module")
def calibrated(tmp_path_factory):
    """1e5-record pool at the reported raw/synthetic alignment means."""
    path = tmp_path_factory.mktemp("acceptance") / "calibrated"
    config = GenConfig(
        num_records=100_000,
        seed=404,
        records_per_shard=1000,
        raw_alignment_mean=0.208,
        raw_alignment_sd=0.05,
        syn_alignment_mean=0.251,
        syn_alignment_sd=0.05,
        syn_sources=[SynSource("blip2", 0.75, 0.7)],
    )
    start = time.perf_counter()
    generate_pool(config, path, workers=1)
    elapsed = time.perf_counter() - start
    return {"path": path, "config": config, "gen_seconds": elapsed}


def test_criterion_01_selection_oracle():
    with criterion(1, "top_fraction matches the stable-sort oracle on 200 pools"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for trial in range(200):
            n = int(rng.integers(100, 10_001))
            # at least 30% duplicated scores: half the entries from a 5-value grid
            grid = rng.choice([0.1, 0.2, 0.3, 0.5, 0.7], size=n)
            cont = rng.random(n).astype(np.float32)
            use_grid = rng.random(n) < 0.6
            values = np.where(use_grid, grid.astype(np.float32), cont)
            dup_fraction = 1.0 - len(np.unique(values)) / n
            assert dup_fraction >= 0.3, dup_fraction
            p = float(rng.choice([0.5, 7, 10, 30, 33.3, 50, 99, 100]))
            table = ScoreTable("raw", values)
            mask, tau = top_fraction(table, p, np.arange(n))
            want_ids, want_tau = oracle_top(
                {i: float(v) for i, v in enumerate(values)}, p
            )
            assert set(np.flatnonzero(mask).tolist()) == want_ids, (trial, p)
            if want_tau is None:
                assert tau is None
            else:
                assert tau == want_tau
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"selection oracle took {elapsed:.1f}s"


def test_criterion_02_mixing_size_identities(tmp_path):
    with criterion(2, "strategy sizes equal the enumeration oracle on 50 pools"):
        rng = np.random.default_rng(202)
        n = 1000
        syn_label = "syn.blip2.0.75"
        for trial in range(50):
            pool_dir = tmp_path / f"pool{trial}"
            build_plain_pool(
                pool_dir, n, records_per_shard=250, seed=trial,
                variants=[("blip2", 0.75), ("blip2", 1.5)],
            )
            handle = open_pool(pool_dir)
            ids = list(range(n))
            raw = rng.choice([0.1, 0.2, 0.2, 0.4, 0.5, 0.5, 0.9], size=n).astype(np.float32)
            syn = rng.choice([0.1, 0.2, 0.2, 0.4, 0.5, 0.5, 0.9], size=n).astype(np.float32)
            t075 = rng.random(n).astype(np.float32)
            t150 = rng.random(n).astype(np.float32)
            tables = {
                "raw": ScoreTable("raw", raw),
                syn_label: ScoreTable(syn_label, syn),
                "syn.blip2.1.50": ScoreTable("syn.blip2.1.50", t150),
            }
            best_tables = {
                syn_label: ScoreTable(syn_label, t075),
                "syn.blip2.1.50": ScoreTable("syn.blip2.1.50", t150),
            }
            p = float(rng.choice([10, 25, 30, 50, 75, 100]))
            raw_map = {i: float(raw[i]) for i in ids}
            syn_map = {i: float(syn[i]) for i in ids}
            var_of = {i: 0 for i in ids}
            for name in STRATEGY_NAMES:
                spec = StrategySpec(name=name, p=p, syn_source=syn_label)
                if name == "syn_best_variant_all":
                    curated = apply_strategy(handle, spec, best_tables)
                    assert len(curated) == n
                    for i, cap in pairs(curated):
                        assert cap == (0 if t075[i] >= t150[i] else 1)
                    continue
                curated = apply_strategy(handle, spec, tables)
                want = oracle_strategy(name, ids, raw_map, syn_map, p=p, var_of=var_of)
                assert len(curated) == len(want), (name, trial)
                assert set(pairs(curated)) == want, (name, trial)
                if name == "raw_top_plus_syn_rest":
                    assert len(curated) == n  # unfiltered mix always covers the pool


def test_criterion_03_threshold_semantics():
    with criterion(3, "threshold 0.28 keeps exactly the >= set"):
        values = np.array(
            [0.1, 0.2799999, 0.28, 0.2800001, 0.5, 0.28, 0.0, 0.99], dtype=np.float32
        )
        mask = threshold_filter(ScoreTable("raw", values), 0.28)
        want = {i for i, v in enumerate(values) if float(v) >= float(np.float32(0.28))}
        assert set(np.flatnonzero(mask).tolist()) == want
        assert 2 in set(np.flatnonzero(mask).tolist())  # the exact-0.28 record
        assert int(mask.sum()) == 5


def test_criterion_04_generator_calibration(calibrated):
    with criterion(4, "1e5-pool mean cosines within 0.005; per-record alpha to 1e-6"):
        start = time.perf_counter()
        handle = open_pool(calibrated["path"])
        raw = score_pool(handle, "raw")
        syn = score_pool(handle, "syn.blip2.0.75")
        score_seconds = time.perf_counter() - start
        raw_mean = float(np.mean(raw.scores.astype(np.float64)))
        syn_mean = float(np.mean(syn.scores.astype(np.float64)))
        assert abs(raw_mean - 0.208) < 0.005, raw_mean
        assert abs(syn_mean - 0.251) < 0.005, syn_mean
        raw_alpha = ScoreTables(handle)["raw.alpha"].scores
        syn_alpha = ScoreTables(handle)["syn.blip2.0.75.alpha"].scores
        assert float(np.abs(raw.scores - raw_alpha).max()) < 1e-6
        assert float(np.abs(syn.scores - syn_alpha).max()) < 1e-6
        total = calibrated["gen_seconds"] + score_seconds
        assert total < 60.0, f"generation+scoring took {total:.1f}s"


def test_criterion_05_noise_vs_diversity(calibrated):
    with criterion(5, "report reproduces the noise-vs-diversity structure"):
        specs = [
            StrategySpec("raw_all"),
            StrategySpec("raw_top", p=30),
            StrategySpec("raw_top_plus_syn_rest_filtered", p=30, syn_source="blip2"),
        ]
        rows = run_report(
            calibrated["path"], specs, MetricConfig(sample_size=100_000, seed=0)
        )
        raw_all, raw_top, mix = rows
        assert raw_top.sample_size == raw_top.entries  # full sets, exact comparisons
        assert mix.sample_size == mix.entries
        assert abs(raw_all.mean_cosine - 0.208) < 0.005
        # (a) filtering raises alignment and strictly lowers trigram diversity
        assert raw_top.mean_cosine > raw_all.mean_cosine
        assert raw_top.unique_trigrams < raw_all.unique_trigrams
        # (b) the filtered mix keeps noise at the threshold and adds diversity
        assert mix.tau_used is not None
        assert mix.mean_cosine >= mix.tau_used
        assert mix.unique_trigrams > raw_top.unique_trigrams


def test_criterion_06_trigram_oracle():
    with criterion(6, "unique_trigrams equals brute force; union-monotone"):
        rng = np.random.default_rng(606)
        words = [f"w{i}" for i in range(120)]
        captions = [
            " ".join(rng.choice(words, size=int(rng.integers(0, 12))))
            for _ in range(10_000)
        ]
        assert unique_trigrams(captions) == oracle_trigrams(captions, tokenize)
        whole = unique_trigrams(captions)
        for _ in range(100):
            cut = int(rng.integers(1, len(captions)))
            a = captions[:cut]
            b = captions[cut:]
            assert whole >= max(unique_trigrams(a), unique_trigrams(b))


def test_criterion_07_kmeans_invariants():
    with criterion(7, "k-means SSE non-increasing, argmin-exact, analytic optimum"):
        rng = np.random.default_rng(707)
        for trial in range(50):
            n = int(rng.integers(20, 120))
            dim = int(rng.integers(2, 8))
            k = int(rng.integers(1, min(9, n + 1)))
            points = rng.standard_normal((n, dim))
            steps = list(
                kmeans_trace(points, ClusterParams(k=k, seed=trial, tol=0.0, max_iters=30))
            )
            sses = [s.sse for s in steps]
            for a, b in zip(sses, sses[1:]):
                assert b <= a * (1 + 1e-12), (trial, a, b)
            final = steps[-1]
            for i in range(n):
                dists = [float(((points[i] - c) ** 2).sum()) for c in final.centroids]
                assert final.assignments[i] == int(np.argmin(dists)), trial
        points = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        centroids, assignments = kmeans(points, ClusterParams(k=2, seed=0, tol=0.0))
        sse = float(((points - centroids[assignments]) ** 2).sum())
        assert abs(sse - 1.0) <= 1e-9, sse


def test_criterion_08_recall_oracle():
    with criterion(8, "recall@1 equals the exhaustive oracle on 100 instances"):
        rng = np.random.default_rng(808)
        for trial in range(100):
            n = int(rng.integers(1, 65))
            dim = int(rng.integers(2, 12))
            img = rng.standard_normal((n, dim))
            txt = rng.standard_normal((n, dim))
            t2i, i2t, avg = recall_at_1(img, txt)

            ui = img / np.linalg.norm(img, axis=1, keepdims=True)
            ut = txt / np.linalg.norm(txt, axis=1, keepdims=True)
            i2t_hits = 0
            t2i_hits = 0
            for i in range(n):
                best_t, best_ts = 0, -2.0
                best_i, best_is = 0, -2.0
                for j in range(n):
                    s = float(ui[i] @ ut[j])
                    if s > best_ts:
                        best_t, best_ts = j, s
                    s = float(ut[i] @ ui[j])
                    if s > best_is:
                        best_i, best_is = j, s
                i2t_hits += best_t == i
                t2i_hits += best_i == i
            assert i2t == i2t_hits / n, trial
            assert t2i == t2i_hits / n, trial
            assert avg == (t2i + i2t) / 2
        embs = np.random.default_rng(1).standard_normal((16, 8))
        assert recall_at_1(embs, embs.copy()) == (1.0, 1.0, 1.0)


def _run_pipeline(base, seed: int, workers: int) -> dict[str, str]:
    """Full CLI pipeline under one seed/worker setting; returns file hashes."""
    root = base / f"s{seed}w{workers}"
    root.mkdir(parents=True)
    config = root / "gen.json"
    config.write_text(
        json.dumps({"num_records": 400, "seed": seed, "records_per_shard": 100})
    )
    strategies = root / "strategies.json"
    strategies.write_text(
        json.dumps(
            [
                {"name": "raw_all"},
                {"name": "raw_top_plus_syn_rest_filtered", "p": 30, "syn_source": "blip2"},
            ]
        )
    )
    pool = root / "pool"
    w = str(workers)
    steps = [
        ["gen", "--config", str(config), "--out", str(pool), "--workers", w],
        ["score", "--pool", str(pool), "--source", "raw", "--workers", w],
        ["score", "--pool", str(pool), "--source", "blip2", "--workers", w],
        ["validate", str(pool), "--workers", w],
        ["filter", "--pool", str(pool), "--p", "40", "--source", "raw",
         "--out", str(root / "filter.jsonl"), "--workers", w],
        ["mix", "--strategy", "raw_top_plus_syn_rest_filtered", "--p", "30",
         "--syn-source", "blip2", "--pool", str(pool),
         "--out", str(root / "curated.jsonl"), "--workers", w],
        ["metrics", "--pool", str(pool), "--curated", str(root / "curated.jsonl"),
         "--out", str(root / "metrics.json"), "--seed", str(seed), "--workers", w],
        ["report", "--pool", str(pool), "--strategies", str(strategies),
         "--out-dir", str(root / "report"), "--seed", str(seed), "--workers", w],
        ["sweep", "--config", str(config), "--scales", "150,300",
         "--strategies", str(strategies), "--out-dir", str(root / "sweep"),
         "--seed", str(seed), "--workers", w],
    ]
    for step in steps:
        assert cli_main(step) == 0, step
    hashes = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name not in ("gen.json", "strategies.json"):
            rel = str(path.relative_to(root))
            hashes[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def test_criterion_09_worker_determinism(tmp_path):
    with criterion(9, "every subcommand byte-identical for workers 1 and 8, 3 seeds"):
        for seed in (1, 2, 3):
            h1 = _run_pipeline(tmp_path, seed, 1)
            h8 = _run_pipeline(tmp_path, seed, 8)
            assert h1 == h8, f"seed {seed}: outputs differ"
            assert len(h1) > 20  # pools, sidecars, curated, metrics, report, sweep


def test_criterion_10_roundtrip_validation(tmp_path):
    with criterion(10, "write-open-materialize-validate is clean and count-exact"):
        config = GenConfig(num_records=10_000, seed=55, records_per_shard=1000)
        pool_dir = tmp_path / "pool"
        generate_pool(config, pool_dir)
        handle = open_pool(pool_dir)
        assert validate_pool(handle).ok
        spec = StrategySpec("raw_top_plus_syn_rest_filtered", p=30, syn_source="blip2")
        tables = {
            "raw": score_pool(handle, "raw"),
            "syn.blip2.0.75": score_pool(handle, "syn.blip2.0.75"),
        }
        curated = apply_strategy(handle, spec, tables)
        out_dir = tmp_path / "materialized"
        manifest = materialize(handle, curated, out_dir)
        assert manifest.num_records == len(curated)
        out = open_pool(out_dir)
        assert out.num_records == len(curated)
        assert validate_pool(out).ok


def test_criterion_11_scale_sweep(tmp_path):
    with criterion(11, "sweep: stable noise, growing raw diversity, lagging syn"):
        start = time.perf_counter()
        template = GenConfig(
            num_records=1,
            seed=404,
            records_per_shard=1000,
            syn_sources=[SynSource("blip2", 0.75, 0.7)],
        )
        specs = [
            StrategySpec("raw_all"),
            StrategySpec("syn_all", syn_source="blip2"),
        ]
        result = run_sweep(
            template,
            [1_000, 10_000, 100_000],
            specs,
            MetricConfig(sample_size=100_000, seed=0),
            out_dir=tmp_path,
        )
        by_strategy: dict[str, list] = {}
        for scale, name, row in result.rows:
            by_strategy.setdefault(name, []).append((scale, row))
        for name, rows in by_strategy.items():
            cosines = [r.mean_cosine for _, r in rows]
            assert max(cosines) - min(cosines) < 0.01, (name, cosines)
        raw_counts = [r.unique_trigrams for _, r in by_strategy["raw_all"]]
        syn_counts = [r.unique_trigrams for _, r in by_strategy["syn_all"]]
        assert raw_counts[0] < raw_counts[1] < raw_counts[2]
        ratios = [s / r for s, r in zip(syn_counts, raw_counts)]
        assert ratios[0] >= ratios[1] >= ratios[2], ratios
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"sweep took {elapsed:.1f}s"
        assert (tmp_path / "sweep.csv").exists()
