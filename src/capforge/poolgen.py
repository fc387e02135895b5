"""Deterministic synthetic pool generator.

Generates desk-scale pools whose image-text alignment is imposed exactly:
every text embedding is built as ``alpha * image + sqrt(1 - alpha^2) * n``
with ``n`` unit noise orthogonal to the image vector, so the cosine between
image and text equals the drawn alpha up to float32 rounding.  Captions are
token templates over a Zipf-distributed concept vocabulary; synthetic
sources fold rare concepts into a reduced captioner vocabulary scaled by
their diversity factor, which caps their trigram/noun diversity below the
raw captions'.

All randomness is counter-based (Philox) and keyed per shard, so shards can
be generated concurrently and the pool bytes are a pure function of the
config.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from . import fileio, pool
from ._words import (
    BOILERPLATE_CAPTIONS,
    FILLER_WORDS,
    GLUE_WORDS,
    SYN_TEMPLATES,
    concept_word,
)
from .errors import ConfigError, DomainError, read_fields
from .pool import (
    FORMAT_VERSION,
    PoolManifest,
    ShardColumns,
    check_file_name,
    check_source_name,
    new_pool_dir,
    score_sidecar_name,
    shard_layout,
    variant_source_label,
    write_manifest,
)

# spawn-key domains for stream separation
_DOMAIN_SHARD = 1
_DOMAIN_CONCEPT = 2

# base sizes the per-source diversity factor scales
_CAPTIONER_BASE_VOCAB = 160
_TEMPLATE_WEIGHT_EXP = 1.3

ALPHA_CLAMP = 0.999
MAX_NUM_RECORDS = 10_000_000  # the generator limit


@dataclass(frozen=True)
class SynSource:
    source_name: str
    temperature: float
    diversity_factor: float

    @property
    def label(self) -> str:
        return variant_source_label(self.source_name, self.temperature)


@dataclass
class GenConfig:
    num_records: int
    seed: int
    embedding_dim: int = 64
    records_per_shard: int = 1000
    concept_vocab_size: int = 2000
    zipf_exponent: float = 1.1
    raw_alignment_mean: float = 0.208
    raw_alignment_sd: float = 0.05
    syn_alignment_mean: float = 0.251
    syn_alignment_sd: float = 0.05
    raw_noise_rate: float = 0.12
    syn_sources: list[SynSource] = field(
        default_factory=lambda: [SynSource("blip2", 0.75, 0.7)]
    )

    def validate(self) -> None:
        numbers = [(f.name, getattr(self, f.name)) for f in fields(self)]
        numbers += [(f"syn {f.name}", getattr(s, f.name))
                    for s in self.syn_sources for f in fields(s)]
        for name, value in numbers:
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.num_records < 0:
            raise ConfigError(f"num_records must be >= 0, got {self.num_records}")
        if self.num_records > MAX_NUM_RECORDS:
            raise ConfigError(f"num_records {self.num_records} exceeds generator limit "
                              f"{MAX_NUM_RECORDS}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")
        if self.embedding_dim < 2:
            raise ConfigError(f"embedding_dim must be >= 2, got {self.embedding_dim}")
        if self.records_per_shard < 1:
            raise ConfigError("records_per_shard must be >= 1")
        if self.concept_vocab_size < 2:
            raise ConfigError("concept_vocab_size must be >= 2")
        if self.zipf_exponent <= 0:
            raise ConfigError("zipf_exponent must be positive")
        for name in (
            "raw_alignment_mean",
            "raw_alignment_sd",
            "syn_alignment_mean",
            "syn_alignment_sd",
        ):
            value = getattr(self, name)
            if not 0 < value < 1:
                raise ConfigError(f"{name} must lie in (0, 1), got {value}")
        if not 0 <= self.raw_noise_rate <= 1:
            raise ConfigError("raw_noise_rate must lie in [0, 1]")
        if len(self.syn_sources) > pool.MAX_CAPTION_LABELS:
            raise ConfigError(f"more than {pool.MAX_CAPTION_LABELS} syn sources")
        labels = set()
        for src in self.syn_sources:
            if not src.source_name:
                raise ConfigError("syn source_name must be nonempty")
            check_source_name(src.source_name, ConfigError)
            if src.temperature < 0:
                raise ConfigError("syn temperature must be nonnegative")
            if src.diversity_factor <= 0:
                raise ConfigError("syn diversity_factor must be positive")
            if not math.isfinite(_CAPTIONER_BASE_VOCAB * src.diversity_factor):
                raise ConfigError(f"syn diversity_factor {src.diversity_factor} is too large")
            # the longest file gen names after the source: its alpha sidecar's
            # temporary (a shard's embedding file is shorter below 10**18 shards)
            alpha = score_sidecar_name(f"{src.label}.alpha")
            check_file_name(fileio.temp_name(alpha, fileio.LONGEST_PID), ConfigError)
            if src.label in labels:
                raise ConfigError(f"duplicate syn source {src.label}")
            labels.add(src.label)


def config_from_dict(obj: dict, **overrides) -> GenConfig:
    """The validated config ``obj`` gives, with ``overrides`` replacing its fields."""
    kwargs = read_fields(GenConfig, obj, "config")
    if "syn_sources" in kwargs:
        if not isinstance(kwargs["syn_sources"], list):
            raise ConfigError("syn_sources must be a list")
        kwargs["syn_sources"] = [SynSource(**read_fields(SynSource, entry, "syn_sources"))
                                 for entry in kwargs["syn_sources"]]
    config = GenConfig(**(kwargs | overrides))
    config.validate()
    return config


def load_config(path: str | Path, **overrides) -> GenConfig:
    return config_from_dict(fileio.read_json(path, ConfigError), **overrides)


# ---------------------------------------------------------------------------
# seeded streams


def _generator(entropy: int, *spawn: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=entropy, spawn_key=tuple(spawn))
    return np.random.Generator(np.random.Philox(ss))


def shard_rng(seed: int, shard_index: int) -> np.random.Generator:
    return _generator(seed, _DOMAIN_SHARD, shard_index)


@lru_cache(maxsize=65536)
def _concept_direction(seed: int, dim: int, concept_id: int) -> np.ndarray:
    g = _generator(seed, _DOMAIN_CONCEPT, concept_id)
    v = g.standard_normal(dim)
    v /= np.linalg.norm(v)
    v.setflags(write=False)
    return v


def embed_concept(concept_ids: Sequence[int], dim: int, seed: int) -> np.ndarray:
    """Deterministic unit vector for a concept set (order-insensitive)."""
    if dim < 2:
        raise DomainError(f"embedding dim must be >= 2, got {dim}")
    ids = sorted(set(int(c) for c in concept_ids))
    if not ids:
        raise DomainError("concept set must be nonempty")
    total = np.zeros(dim)
    for c in ids:
        total += _concept_direction(seed, dim, c)
    norm = np.linalg.norm(total)
    if norm < 1e-9:
        total = _concept_direction(seed, dim, ids[0]).copy()
        norm = 1.0
    return total / norm


def _orthogonal_unit(noise: np.ndarray, unit: np.ndarray) -> np.ndarray:
    perp = noise - (noise @ unit) * unit
    norm = np.linalg.norm(perp)
    if norm < 1e-12:
        # noise was (anti)parallel; build a deterministic orthogonal direction
        axis = int(np.argmin(np.abs(unit)))
        basis = np.zeros_like(unit)
        basis[axis] = 1.0
        perp = basis - (basis @ unit) * unit
        norm = np.linalg.norm(perp)
    return perp / norm


def _attach_batch(images: np.ndarray, alphas: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Unit text rows whose cosine with each image row equals its alpha (to
    1e-6): ``alpha * image + sqrt(1 - alpha^2) * n``, with ``n`` the unit
    part of the noise row orthogonal to the image (float64 in and out)."""
    units = images / np.linalg.norm(images, axis=1, keepdims=True)
    dots = np.einsum("ij,ij->i", noise, units)
    perp = noise - dots[:, None] * units
    norms = np.linalg.norm(perp, axis=1)
    bad = norms < 1e-12
    for i in np.flatnonzero(bad):
        perp[i] = _orthogonal_unit(noise[i], units[i])
        norms[i] = 1.0
    perp /= norms[:, None]
    return alphas[:, None] * units + np.sqrt(1.0 - alphas**2)[:, None] * perp


# ---------------------------------------------------------------------------
# caption synthesis


def _zipf_cumulative(vocab_size: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, vocab_size + 1, dtype=np.float64) ** exponent
    cum = np.cumsum(weights)
    return cum / cum[-1]


def _template_cumulative(diversity_factor: float) -> tuple[int, np.ndarray]:
    count = max(2, min(len(SYN_TEMPLATES), round(len(SYN_TEMPLATES) * diversity_factor)))
    weights = 1.0 / np.arange(1, count + 1, dtype=np.float64) ** _TEMPLATE_WEIGHT_EXP
    cum = np.cumsum(weights)
    return count, cum / cum[-1]


def _captioner_vocab(diversity_factor: float) -> int:
    return max(4, round(_CAPTIONER_BASE_VOCAB * diversity_factor))


def _segments(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(segment, position within it) of each element of consecutive segments
    of the given lengths."""
    seg = np.repeat(np.arange(counts.size), counts)
    return seg, np.arange(seg.size) - np.repeat(np.cumsum(counts) - counts, counts)


def _interleave(columns: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Record by record, each column's (values, per-record counts) segment
    in column order: a shard's pieces in the order its text holds them.
    Also returns the segment lengths in that order."""
    counts = np.stack([c for _, c in columns], axis=1)
    starts = (np.cumsum(counts) - counts.ravel()).reshape(counts.shape)
    out = np.empty(int(counts.sum()), np.int64)
    for j, (values, c) in enumerate(columns):
        rec, pos = _segments(c)
        out[starts[rec, j] + pos] = values
    return out, counts.ravel()


@dataclass(frozen=True)
class _Text:
    """A pool's caption text as pieces.

    Word ids: concepts, then fillers, boilerplate captions and glue words;
    ``pieces`` holds every word, then every word after a space, and
    ``nbytes`` each piece's UTF-8 length.  ``templates`` holds each
    template's word ids, with ``-1 - s`` for concept slot s; ``lengths``
    its word count.
    """

    pieces: np.ndarray  # object
    nbytes: np.ndarray
    num_words: int
    filler: int
    boiler: int
    templates: np.ndarray  # (templates, longest) int64
    lengths: np.ndarray

    @classmethod
    def build(cls, config: GenConfig) -> "_Text":
        concepts = [concept_word(c) for c in range(config.concept_vocab_size)]
        words = concepts + FILLER_WORDS + BOILERPLATE_CAPTIONS + GLUE_WORDS
        glue = len(words) - len(GLUE_WORDS)
        pieces = words + [" " + w for w in words]
        templates = np.zeros((len(SYN_TEMPLATES), max(map(len, SYN_TEMPLATES))), np.int64)
        for t, template in enumerate(SYN_TEMPLATES):
            slots = itertools.count()
            templates[t, : len(template)] = [
                -1 - next(slots) if tok is None else glue + GLUE_WORDS.index(tok)
                for tok in template
            ]
        return cls(
            pieces=np.array(pieces, dtype=object),
            nbytes=np.array([len(p.encode("utf-8")) for p in pieces]),
            num_words=len(words),
            filler=len(concepts),
            boiler=len(concepts) + len(FILLER_WORDS),
            templates=templates,
            lengths=np.array(list(map(len, SYN_TEMPLATES))),
        )

    def caption(self, words: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Piece ids of words at positions ``pos`` of their captions."""
        return words + self.num_words * (pos > 0)


def _generate_shard(
    config: GenConfig,
    shard_index: int,
    size: int,
    concept_mat: np.ndarray,
    zipf_cum: np.ndarray,
    text: _Text,
    out_dir: Path,
) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """Write shard ``shard_index``; returns its file->crc map and its float32
    alignment draws by source label, "raw" first."""
    rng = shard_rng(config.seed, shard_index)
    dim = config.embedding_dim

    kcounts = rng.integers(2, 13, size=size)
    flat = np.searchsorted(zipf_cum, rng.random(int(kcounts.sum())), side="right")
    boiler = rng.random(size) < config.raw_noise_rate
    boiler_idx = rng.integers(0, len(BOILERPLATE_CAPTIONS), size=size)
    r_extra = rng.integers(0, 3, size=size)
    fcounts = rng.integers(2, 9, size=size)
    filler_flat = rng.integers(0, len(FILLER_WORDS), size=int(fcounts.sum()))
    foffsets = np.cumsum(fcounts) - fcounts

    # each record's concept ids without repeats, in draw order
    rec = np.repeat(np.arange(size), kcounts)
    order = np.lexsort((flat, rec))
    first = np.ones(order.size, bool)
    first[1:] = (rec[order[1:]] != rec[order[:-1]]) | (flat[order[1:]] != flat[order[:-1]])
    kept = np.sort(order[first])
    concepts = flat[kept]
    ccounts = np.bincount(rec[kept], minlength=size)
    cstarts = np.cumsum(ccounts) - ccounts

    # raw caption word counts are known now; draw the shuffle keys in one go
    rcounts = np.minimum(ccounts, 1 + r_extra)
    order_keys = rng.random(int((rcounts + fcounts).sum()))

    raw_alphas = np.clip(
        rng.normal(config.raw_alignment_mean, config.raw_alignment_sd, size),
        -ALPHA_CLAMP,
        ALPHA_CLAMP,
    )
    raw_noise = rng.standard_normal((size, dim))

    syn_draws: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for src in config.syn_sources:
        count, tcum = _template_cumulative(src.diversity_factor)
        t_idx = np.searchsorted(tcum, rng.random(size), side="right")
        alphas = np.clip(
            rng.normal(config.syn_alignment_mean, config.syn_alignment_sd, size),
            -ALPHA_CLAMP,
            ALPHA_CLAMP,
        )
        noise = rng.standard_normal((size, dim))
        syn_draws[src.label] = (t_idx, alphas, noise)

    # image embeddings: normalized sums of concept directions, added concept
    # by concept, left to right as np.add.reduceat adds, without gathering
    # every concept's row first (``shard_layout`` yields no empty shard)
    sums = concept_mat[concepts[cstarts]]
    for p in range(1, int(ccounts.max())):
        more = np.flatnonzero(ccounts > p)
        sums[more] += concept_mat[concepts[cstarts[more] + p]]
    images = sums / np.linalg.norm(sums, axis=1, keepdims=True)

    embeddings = {"image": images.astype(np.float32)}
    embeddings["raw"] = _attach_batch(images, raw_alphas, raw_noise).astype(np.float32)
    for src in config.syn_sources:
        _, alphas, noise = syn_draws[src.label]
        embeddings[src.label] = _attach_batch(images, alphas, noise).astype(np.float32)

    # raw captions: a record's first rcounts concepts, then its fillers, in
    # the order of their keys; a boilerplate record keeps one word
    rec, pos = _segments(rcounts + fcounts)
    is_concept = pos < rcounts[rec]
    raw = np.empty(rec.size, np.int64)
    raw[is_concept] = concepts[(cstarts[rec] + pos)[is_concept]]
    raw[~is_concept] = text.filler + filler_flat[(foffsets[rec] + pos - rcounts[rec])[~is_concept]]
    raw = raw[np.lexsort((order_keys, rec))]
    boiler_first = boiler[rec] & (pos == 0)
    raw[boiler_first] = text.boiler + boiler_idx[rec[boiler_first]]
    keep = ~boiler[rec] | boiler_first
    raw_counts = np.where(boiler, 1, rcounts + fcounts)

    columns = [(text.caption(raw[keep], pos[keep]), raw_counts)]
    # variants: slot s of a template takes the record's concept s mod its
    # concept count, folded into the captioner's vocabulary
    for src in config.syn_sources:
        t_idx = syn_draws[src.label][0]
        lengths = text.lengths[t_idx]
        rec, pos = _segments(lengths)
        words = text.templates[t_idx[rec], pos]
        slot = words < 0
        rec_slot = rec[slot]
        cid = concepts[cstarts[rec_slot] + (-1 - words[slot]) % ccounts[rec_slot]]
        words[slot] = cid % _captioner_vocab(src.diversity_factor)
        columns.append((text.caption(words, pos), lengths))
    pieces, counts = _interleave(columns)
    ends = np.concatenate(([0], np.cumsum(text.nbytes[pieces])))
    base_id = shard_index * config.records_per_shard
    shard = ShardColumns(
        ids=np.arange(base_id, base_id + size, dtype=np.int64),
        prov=np.full(size, -1, np.int64),
        labels=np.tile(np.arange(len(config.syn_sources), dtype=np.int16), (size, 1)),
        offsets=ends[np.concatenate(([0], np.cumsum(counts)))],
        text="".join(text.pieces[pieces].tolist()).encode("utf-8"),
    )
    alphas = {"raw": raw_alphas} | {label: draws[1] for label, draws in syn_draws.items()}
    return (pool.write_shard(out_dir, shard_index, shard, embeddings),
            {label: a.astype(np.float32) for label, a in alphas.items()})


def generate_pool(config: GenConfig, out_path: str | Path, *, workers: int = 1) -> PoolManifest:
    """Generate a pool directory; bytes are a pure function of the config.

    Ground-truth alignment draws are written as score sidecars named
    ``{source}.alpha`` so tests can compare measured cosines against them.
    ``workers`` (at least 1) threads generate the shards.
    """
    config.validate()
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    out_dir = new_pool_dir(out_path)

    sizes = shard_layout(config.num_records, config.records_per_shard)
    concept_mat = np.stack(
        [
            _concept_direction(config.seed, config.embedding_dim, c)
            for c in range(config.concept_vocab_size)
        ]
    )
    zipf_cum = _zipf_cumulative(config.concept_vocab_size, config.zipf_exponent)
    text = _Text.build(config)

    def job(k: int) -> tuple[dict[str, str], dict[str, np.ndarray]]:
        return _generate_shard(config, k, sizes[k], concept_mat, zipf_cum, text, out_dir)

    with ThreadPoolExecutor(max_workers=workers) as executor:
        outputs = list(executor.map(job, range(len(sizes))))

    checksums: dict[str, str] = {}
    for shard_checksums, _ in outputs:
        checksums.update(shard_checksums)

    caption_labels = [s.label for s in config.syn_sources]
    manifest = PoolManifest(
        format_version=FORMAT_VERSION,
        num_records=config.num_records,
        num_shards=len(sizes),
        records_per_shard=config.records_per_shard,
        embedding_dim=config.embedding_dim,
        embedding_sources=["image", "raw", *caption_labels],
        caption_labels=caption_labels,
        generator_seed=config.seed,
        checksums=dict(sorted(checksums.items())),
    )
    write_manifest(out_dir, manifest)

    for label in ["raw", *caption_labels]:
        truth = np.concatenate([np.zeros(0, np.float32)] + [alphas[label] for _, alphas in outputs])
        fileio.write_scores(out_dir / score_sidecar_name(f"{label}.alpha"), truth)
    return manifest
