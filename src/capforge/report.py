"""Noise-vs-diversity reports and the multi-scale sweep.

One QualityReport row per strategy: the noise axis is the mean image-text
cosine of the curated entries, the diversity axis the unique trigram/noun
counts of a seeded caption sample.  CSV and JSON outputs carry identical
values.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .curation import (
    ClusterParams,
    CuratedSet,
    StrategySpec,
    apply_strategy,
    in1k_cluster_mask,
    score_labels,
)
from .errors import ConfigError
from .pool import PoolHandle, ScoreTable, SelectionMask, open_pool
from .poolgen import GenConfig, generate_pool
from .scoring import clip_s, score_pool
from .textmetrics import (
    default_noun_lexicon,
    default_visual_vocab,
    grounded_fraction,
    iter_trigrams,
    sample_subset,
    tokenize,
)

DEFAULT_SAMPLE_SIZE = 100_000
DEFAULT_CLUSTER_K = 64
MAX_SWEEP_SCALE = 10_000_000

REPORT_COLUMNS = [
    "strategy",
    "entries",
    "tau_used",
    "mean_cosine",
    "mean_clip_s",
    "mean_word_count",
    "mean_grounding_ratio",
    "unique_trigrams",
    "unique_nouns",
    "sample_size",
    "sample_seed",
]


@dataclass
class QualityReport:
    strategy: str
    entries: int
    tau_used: float | None
    mean_cosine: float
    mean_clip_s: float
    mean_word_count: float
    mean_grounding_ratio: float
    unique_trigrams: int
    unique_nouns: int
    sample_size: int
    sample_seed: int

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in REPORT_COLUMNS}


@dataclass
class MetricConfig:
    sample_size: int = DEFAULT_SAMPLE_SIZE
    seed: int = 0
    vocab: set[str] | None = None
    lexicon: set[str] | None = None
    workers: int = 1
    in1k_refs: np.ndarray | None = None


@dataclass
class SweepResult:
    rows: list[tuple[int, str, QualityReport]] = field(default_factory=list)


TableGetter = Callable[[str], ScoreTable]


def make_table_getter(handle: PoolHandle) -> TableGetter:
    """Score-table source: read the sidecar when present, else compute."""
    cache: dict[str, ScoreTable] = {}

    def get(label: str) -> ScoreTable:
        if label not in cache:
            if handle.has_scores(label):
                cache[label] = handle.read_score_table(label)
            else:
                cache[label] = score_pool(handle, label, write_sidecar=False)
        return cache[label]

    return get


def strategy_tables(
    handle: PoolHandle, spec: StrategySpec, get_table: TableGetter
) -> dict[str, ScoreTable]:
    """Exactly the score tables apply_strategy needs for this spec."""
    labels = score_labels(spec, handle.manifest.embedding_sources)
    return {label: get_table(label) for label in labels}


def build_quality_report(
    handle: PoolHandle,
    curated: CuratedSet,
    get_table: TableGetter,
    *,
    vocab: set[str],
    lexicon: set[str],
    sample_size: int,
    seed: int,
) -> QualityReport:
    """One report row for a curated set."""
    cos_sum = 0.0
    clip_sum = 0.0
    rows = handle.rows(curated.ids()).tolist()
    for row, (_, cap) in zip(rows, curated.entries):
        label, _ = handle.caption(row, cap)
        score = float(get_table(label).scores[row])
        cos_sum += score
        clip_sum += clip_s(score)
    count = len(curated.entries)
    mean_cos = cos_sum / count if count else 0.0
    mean_clip = clip_sum / count if count else 0.0

    n_sample = min(sample_size, count)
    sample = sample_subset(curated, n_sample, seed)
    word_sum = 0
    ground_sum = 0.0
    trigram_seen: set[tuple[str, str, str]] = set()
    noun_seen: set[str] = set()
    rows = handle.rows(sample.ids()).tolist()
    for row, (_, cap) in zip(rows, sample.entries):
        tokens = tokenize(handle.caption(row, cap)[1])
        word_sum += len(tokens)
        ground_sum += grounded_fraction(tokens, vocab)
        trigram_seen.update(iter_trigrams(tokens))
        noun_seen.update(t for t in tokens if t in lexicon)
    return QualityReport(
        strategy=curated.spec.name,
        entries=count,
        tau_used=curated.tau_used,
        mean_cosine=mean_cos,
        mean_clip_s=mean_clip,
        mean_word_count=word_sum / n_sample if n_sample else 0.0,
        mean_grounding_ratio=ground_sum / n_sample if n_sample else 0.0,
        unique_trigrams=len(trigram_seen),
        unique_nouns=len(noun_seen),
        sample_size=n_sample,
        sample_seed=seed,
    )


def _in1k_mask_for(
    handle: PoolHandle,
    spec: StrategySpec,
    config: MetricConfig,
    cache: dict[ClusterParams, SelectionMask],
) -> SelectionMask:
    if config.in1k_refs is None:
        raise ConfigError(
            f"strategy {spec.name}: in1k_intersect requires reference embeddings"
        )
    params = spec.cluster_params or ClusterParams(
        k=min(DEFAULT_CLUSTER_K, max(1, handle.num_records)), seed=config.seed
    )
    if params not in cache:
        cache[params] = in1k_cluster_mask(handle, config.in1k_refs, params)
    return cache[params]


def report_rows(
    handle: PoolHandle, specs: Sequence[StrategySpec], config: MetricConfig
) -> list[QualityReport]:
    vocab = config.vocab if config.vocab is not None else default_visual_vocab()
    lexicon = config.lexicon if config.lexicon is not None else default_noun_lexicon()
    get_table = make_table_getter(handle)
    in1k_cache: dict[ClusterParams, SelectionMask] = {}
    rows = []
    for spec in specs:
        spec.validate()
        tables = strategy_tables(handle, spec, get_table)
        mask = (
            _in1k_mask_for(handle, spec, config, in1k_cache)
            if spec.in1k_intersect
            else None
        )
        curated = apply_strategy(handle, spec, tables, mask)
        rows.append(
            build_quality_report(
                handle,
                curated,
                get_table,
                vocab=vocab,
                lexicon=lexicon,
                sample_size=config.sample_size,
                seed=config.seed,
            )
        )
    return rows


def _cell(value) -> str:
    return "" if value is None else str(value)


def write_report_files(rows: Sequence[QualityReport], out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dicts = [r.to_dict() for r in rows]
    with open(out / "report.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(dicts, fh, indent=2)
        fh.write("\n")
    with open(out / "report.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for row in dicts:
            writer.writerow([_cell(row[c]) for c in REPORT_COLUMNS])


def run_report(
    pool_path: str | Path,
    specs: Sequence[StrategySpec],
    config: MetricConfig | None = None,
    out_dir: str | Path | None = None,
) -> list[QualityReport]:
    """Evaluate strategies on a pool; optionally emit report.json/report.csv."""
    config = config or MetricConfig()
    handle = open_pool(pool_path)
    rows = report_rows(handle, specs, config)
    if out_dir is not None:
        write_report_files(rows, out_dir)
    return rows


def run_sweep(
    template: GenConfig,
    scales: Sequence[int],
    specs: Sequence[StrategySpec],
    config: MetricConfig | None = None,
    out_dir: str | Path | None = None,
) -> SweepResult:
    """Generate pools at each scale (shared seed) and evaluate strategies.

    Pools share records_per_shard and the seed, so smaller scales are
    prefixes of larger ones and diversity counts are comparable.
    """
    config = config or MetricConfig()
    if not scales:
        raise ConfigError("sweep requires at least one scale")
    if list(scales) != sorted(set(int(s) for s in scales)):
        raise ConfigError("scales must be strictly increasing")
    if scales[0] <= 0:
        raise ConfigError("scales must be positive")
    if scales[-1] > MAX_SWEEP_SCALE:
        raise ConfigError(
            f"scale {scales[-1]} exceeds generator limit {MAX_SWEEP_SCALE}"
        )

    result = SweepResult()
    base = Path(out_dir) if out_dir is not None else None
    scratch = tempfile.TemporaryDirectory() if base is None else None
    pool_root = base / "pools" if base is not None else Path(scratch.name)
    try:
        for scale in scales:
            cfg = dataclasses.replace(template, num_records=int(scale))
            pool_dir = pool_root / str(scale)
            generate_pool(cfg, pool_dir, workers=config.workers)
            for row in run_report(pool_dir, specs, config):
                result.rows.append((int(scale), row.strategy, row))
    finally:
        if scratch is not None:
            scratch.cleanup()

    if base is not None:
        base.mkdir(parents=True, exist_ok=True)
        with open(base / "sweep.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["pool_scale"] + REPORT_COLUMNS)
            for scale, _, row in result.rows:
                d = row.to_dict()
                writer.writerow([str(scale)] + [_cell(d[c]) for c in REPORT_COLUMNS])
    return result
