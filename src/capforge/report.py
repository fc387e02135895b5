"""Noise-vs-diversity reports and the multi-scale sweep.

One QualityReport row per strategy: the noise axis is the mean image-text
cosine of the curated entries, the diversity axis the unique trigram/noun
counts of a seeded caption sample.  CSV and JSON outputs carry identical
values.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import fileio
from .curation import ClusterParams, CuratedSet, StrategySpec, curate
from .errors import ConfigError
from .pool import PoolHandle, ScoreTable, open_pool
from .poolgen import GenConfig, generate_pool
from .scoring import ScoreTables, clip_s
from .textmetrics import (
    CaptionFeatures,
    default_noun_lexicon,
    default_visual_vocab,
    ordered_sum,
    sample_subset,
)

DEFAULT_SAMPLE_SIZE = 100_000
MAX_SWEEP_SCALE = 10_000_000

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
        return dataclasses.asdict(self)


REPORT_COLUMNS = [f.name for f in dataclasses.fields(QualityReport)]


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


def caption_features(handle: PoolHandle, config: MetricConfig) -> CaptionFeatures:
    """Caption features of the pool's captions under the config's vocabulary
    and lexicon, the packaged ones where it names none."""
    table = handle.records()
    return CaptionFeatures(
        table.text,
        table.offsets,
        config.vocab if config.vocab is not None else default_visual_vocab(),
        config.lexicon if config.lexicon is not None else default_noun_lexicon(),
    )


def build_quality_report(
    handle: PoolHandle,
    curated: CuratedSet,
    score_tables: Mapping[str, ScoreTable],
    features: CaptionFeatures,
    *,
    sample_size: int,
    seed: int,
) -> QualityReport:
    """One report row for a curated set; sums run in entry order."""
    rows = handle.rows(curated.ids())
    sources, _ = handle.caption_ids(rows, curated.entries[:, 1])
    scores = np.empty(len(rows))
    used, first = np.unique(sources, return_index=True)
    for source in used[np.argsort(first)].tolist():
        at = sources == source
        scores[at] = score_tables[handle.records().sources[source]].scores[rows[at]]
    count = len(curated.entries)
    mean_cos = ordered_sum(scores) / count if count else 0.0
    mean_clip = ordered_sum(clip_s(scores)) / count if count else 0.0

    n_sample = min(sample_size, count)
    sample = sample_subset(curated, n_sample, seed)
    _, captions = handle.caption_ids(handle.rows(sample.ids()), sample.entries[:, 1])
    stats = features.sample_stats(captions)
    return QualityReport(
        strategy=curated.spec.name,
        entries=count,
        tau_used=curated.tau_used,
        mean_cosine=mean_cos,
        mean_clip_s=mean_clip,
        mean_word_count=stats.word_sum / n_sample if n_sample else 0.0,
        mean_grounding_ratio=stats.ground_sum / n_sample if n_sample else 0.0,
        unique_trigrams=stats.unique_trigrams,
        unique_nouns=stats.unique_nouns,
        sample_size=n_sample,
        sample_seed=seed,
    )


def report_rows(
    handle: PoolHandle, specs: Sequence[StrategySpec], config: MetricConfig
) -> list[QualityReport]:
    tables = ScoreTables(handle)
    masks: dict[ClusterParams, np.ndarray] = {}
    features = None
    rows = []
    for spec in specs:
        curated = curate(handle, spec, tables, config.in1k_refs, config.seed, masks)
        if features is None:  # here, so no caption table is held through k-means
            features = caption_features(handle, config)
        rows.append(
            build_quality_report(
                handle,
                curated,
                tables,
                features,
                sample_size=config.sample_size,
                seed=config.seed,
            )
        )
    return rows


def _cell(value) -> str:
    return "" if value is None else str(value)


def _csv_bytes(rows: list[list[str]]) -> bytes:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode("utf-8")


def write_report_files(rows: Sequence[QualityReport], out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dicts = [r.to_dict() for r in rows]
    fileio.write_atomic(out / "report.json", (json.dumps(dicts, indent=2) + "\n").encode())
    lines = [REPORT_COLUMNS] + [[_cell(value) for value in row.values()] for row in dicts]
    fileio.write_atomic(out / "report.csv", _csv_bytes(lines))


def run_report(
    pool_path: str | Path,
    specs: Sequence[StrategySpec],
    config: MetricConfig,
    out_dir: str | Path | None = None,
) -> list[QualityReport]:
    """Evaluate strategies on a pool; optionally emit report.json/report.csv."""
    handle = open_pool(pool_path)
    rows = report_rows(handle, specs, config)
    if out_dir is not None:
        write_report_files(rows, out_dir)
    return rows


def run_sweep(
    template: GenConfig,
    scales: Sequence[int],
    specs: Sequence[StrategySpec],
    config: MetricConfig,
    out_dir: str | Path,
) -> SweepResult:
    """Generate pools at each scale (shared seed) under ``out_dir``/pools and
    evaluate strategies into ``out_dir``/sweep.csv.

    Pools share records_per_shard and the seed, so smaller scales are
    prefixes of larger ones and diversity counts are comparable.
    """
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
    base = Path(out_dir)
    for scale in scales:
        cfg = dataclasses.replace(template, num_records=int(scale))
        pool_dir = base / "pools" / str(scale)
        generate_pool(cfg, pool_dir, workers=config.workers)
        for row in run_report(pool_dir, specs, config):
            result.rows.append((int(scale), row.strategy, row))

    lines = [["pool_scale"] + REPORT_COLUMNS]
    for scale, _, row in result.rows:
        lines.append([str(scale)] + [_cell(value) for value in row.to_dict().values()])
    fileio.write_atomic(base / "sweep.csv", _csv_bytes(lines))
    return result
