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

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from . import fileio
from ._words import (
    BOILERPLATE_CAPTIONS,
    FILLER_WORDS,
    SYN_TEMPLATES,
    concept_word,
)
from .errors import ConfigError, DomainError
from .pool import (
    FORMAT_VERSION,
    PoolManifest,
    Record,
    CaptionVariant,
    score_sidecar_name,
    shard_layout,
    variant_source_label,
    write_manifest,
    write_shard,
)

# spawn-key domains for stream separation
_DOMAIN_SHARD = 1
_DOMAIN_CONCEPT = 2
_DOMAIN_NOISE = 3

# base sizes the per-source diversity factor scales
_CAPTIONER_BASE_VOCAB = 160
_TEMPLATE_WEIGHT_EXP = 1.3

ALPHA_CLAMP = 0.999


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
        if self.num_records < 0:
            raise ConfigError(f"num_records must be >= 0, got {self.num_records}")
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
        labels = set()
        for src in self.syn_sources:
            if not src.source_name:
                raise ConfigError("syn source_name must be nonempty")
            if src.temperature < 0:
                raise ConfigError("syn temperature must be nonnegative")
            if src.diversity_factor <= 0:
                raise ConfigError("syn diversity_factor must be positive")
            if src.label in labels:
                raise ConfigError(f"duplicate syn source {src.label}")
            labels.add(src.label)


_CONFIG_FIELDS = {
    "num_records",
    "seed",
    "embedding_dim",
    "records_per_shard",
    "concept_vocab_size",
    "zipf_exponent",
    "raw_alignment_mean",
    "raw_alignment_sd",
    "syn_alignment_mean",
    "syn_alignment_sd",
    "raw_noise_rate",
    "syn_sources",
}
_SYN_FIELDS = {"source_name", "temperature", "diversity_factor"}


def _check_numbers(cls, obj: dict, where: str) -> None:
    """Reject a JSON value that does not fit an int or float field of `cls`."""
    for f in fields(cls):
        allowed = {"int": int, "float": (int, float)}.get(f.type)
        value = obj.get(f.name, 0)
        if allowed and (isinstance(value, bool) or not isinstance(value, allowed)):
            raise ConfigError(f"{where} field {f.name!r} must be {f.type}, got {value!r}")


def config_from_dict(obj: dict) -> GenConfig:
    if not isinstance(obj, dict):
        raise ConfigError("generator config must be a JSON object")
    unknown = set(obj) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"unknown config field {sorted(unknown)[0]!r}")
    for required in ("num_records", "seed"):
        if required not in obj:
            raise ConfigError(f"missing config field {required!r}")
    _check_numbers(GenConfig, obj, "config")
    kwargs = {k: v for k, v in obj.items() if k != "syn_sources"}
    if "syn_sources" in obj:
        if not isinstance(obj["syn_sources"], list):
            raise ConfigError("syn_sources must be a list")
        sources = []
        for i, entry in enumerate(obj["syn_sources"]):
            if not isinstance(entry, dict):
                raise ConfigError(f"syn_sources[{i}] must be an object")
            bad = set(entry) - _SYN_FIELDS
            if bad:
                raise ConfigError(f"unknown syn_sources field {sorted(bad)[0]!r}")
            missing = _SYN_FIELDS - set(entry)
            if missing:
                raise ConfigError(f"syn_sources[{i}] missing {sorted(missing)[0]!r}")
            _check_numbers(SynSource, entry, f"syn_sources[{i}]")
            sources.append(
                SynSource(
                    str(entry["source_name"]),
                    float(entry["temperature"]),
                    float(entry["diversity_factor"]),
                )
            )
        kwargs["syn_sources"] = sources
    try:
        config = GenConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"malformed generator config: {exc}") from exc
    config.validate()
    return config


def load_config(path: str | Path) -> GenConfig:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    return config_from_dict(obj)


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


def attach_alignment(e_img: np.ndarray, alpha: float, noise_seed: int) -> np.ndarray:
    """Unit text embedding with cosine(e_img, result) == alpha (to 1e-6)."""
    if abs(alpha) > 1:
        raise DomainError(f"alpha must lie in [-1, 1], got {alpha}")
    e = np.asarray(e_img, dtype=np.float64)
    norm = np.linalg.norm(e)
    if abs(norm - 1.0) > 1e-3:
        raise DomainError(f"e_img must be unit norm, got norm {norm:.6f}")
    unit = e / norm
    g = _generator(int(noise_seed), _DOMAIN_NOISE)
    n_hat = _orthogonal_unit(g.standard_normal(unit.size), unit)
    return alpha * unit + np.sqrt(max(0.0, 1.0 - alpha * alpha)) * n_hat


def _attach_batch(images: np.ndarray, alphas: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Vectorized attach_alignment over rows (float64 in, float64 out)."""
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


def _render_syn(template: tuple[str | None, ...], concepts: list[int], fold: int) -> str:
    words = []
    slot = 0
    for tok in template:
        if tok is None:
            cid = concepts[slot % len(concepts)]
            words.append(concept_word(cid if cid < fold else cid % fold))
            slot += 1
        else:
            words.append(tok)
    return " ".join(words)


@dataclass
class _ShardOutput:
    checksums: dict[str, str]
    raw_alphas: np.ndarray
    syn_alphas: dict[str, np.ndarray]


def _generate_shard(
    config: GenConfig,
    shard_index: int,
    size: int,
    concept_mat: np.ndarray,
    zipf_cum: np.ndarray,
    out_dir: Path,
) -> _ShardOutput:
    rng = shard_rng(config.seed, shard_index)
    dim = config.embedding_dim

    kcounts = rng.integers(2, 13, size=size)
    flat = np.searchsorted(zipf_cum, rng.random(int(kcounts.sum())), side="right")
    offsets = np.concatenate(([0], np.cumsum(kcounts)))
    boiler = rng.random(size) < config.raw_noise_rate
    boiler_idx = rng.integers(0, len(BOILERPLATE_CAPTIONS), size=size)
    r_extra = rng.integers(0, 3, size=size)
    fcounts = rng.integers(2, 9, size=size)
    filler_flat = rng.integers(0, len(FILLER_WORDS), size=int(fcounts.sum()))
    foffsets = np.concatenate(([0], np.cumsum(fcounts)))

    concepts: list[list[int]] = []
    for i in range(size):
        ids = flat[offsets[i] : offsets[i + 1]].tolist()
        concepts.append(list(dict.fromkeys(ids)))

    # raw caption word counts are known now; draw the shuffle keys in one go
    rcounts = np.minimum([len(c) for c in concepts], 1 + r_extra)
    key_total = int((rcounts + fcounts).sum())
    order_keys = rng.random(key_total)

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

    # image embeddings: normalized sums of concept directions
    if size:
        flat_uniq = np.concatenate([np.asarray(c, dtype=np.int64) for c in concepts])
        seg = np.concatenate(([0], np.cumsum([len(c) for c in concepts])[:-1]))
        sums = np.add.reduceat(concept_mat[flat_uniq], seg, axis=0)
        images = sums / np.linalg.norm(sums, axis=1, keepdims=True)
    else:
        images = np.zeros((0, dim))

    embeddings = {"image": images.astype(np.float32)}
    embeddings["raw"] = _attach_batch(images, raw_alphas, raw_noise).astype(np.float32)
    for src in config.syn_sources:
        _, alphas, noise = syn_draws[src.label]
        embeddings[src.label] = _attach_batch(images, alphas, noise).astype(np.float32)

    base_id = shard_index * config.records_per_shard
    records = []
    key_off = 0
    for i in range(size):
        if boiler[i]:
            raw_caption = BOILERPLATE_CAPTIONS[boiler_idx[i]]
            key_off += int(rcounts[i] + fcounts[i])
        else:
            words = [concept_word(c) for c in concepts[i][: rcounts[i]]]
            words += [
                FILLER_WORDS[j] for j in filler_flat[foffsets[i] : foffsets[i + 1]]
            ]
            keys = order_keys[key_off : key_off + len(words)]
            key_off += int(rcounts[i] + fcounts[i])
            raw_caption = " ".join(words[j] for j in np.argsort(keys, kind="stable"))
        variants = []
        for src in config.syn_sources:
            t_idx, _, _ = syn_draws[src.label]
            text = _render_syn(
                SYN_TEMPLATES[int(t_idx[i])],
                concepts[i],
                _captioner_vocab(src.diversity_factor),
            )
            variants.append(CaptionVariant(src.source_name, src.temperature, text))
        records.append(Record(id=base_id + i, raw_caption=raw_caption, synthetic_variants=variants))

    checksums = write_shard(out_dir, shard_index, records, embeddings)
    return _ShardOutput(
        checksums=checksums,
        raw_alphas=raw_alphas.astype(np.float32),
        syn_alphas={
            label: draws[1].astype(np.float32) for label, draws in syn_draws.items()
        },
    )


def generate_pool(config: GenConfig, out_path: str | Path, *, workers: int = 1) -> PoolManifest:
    """Generate a pool directory; bytes are a pure function of the config.

    Ground-truth alignment draws are written as score sidecars named
    ``{source}.alpha`` so tests can compare measured cosines against them.
    """
    config.validate()
    out_dir = Path(out_path)
    out_dir.mkdir(parents=True, exist_ok=True)

    sizes = shard_layout(config.num_records, config.records_per_shard)
    concept_mat = np.stack(
        [
            _concept_direction(config.seed, config.embedding_dim, c)
            for c in range(config.concept_vocab_size)
        ]
    ) if config.concept_vocab_size else np.zeros((0, config.embedding_dim))
    zipf_cum = _zipf_cumulative(config.concept_vocab_size, config.zipf_exponent)

    def job(k: int) -> _ShardOutput:
        return _generate_shard(config, k, sizes[k], concept_mat, zipf_cum, out_dir)

    if workers > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(job, range(len(sizes))))
    else:
        outputs = [job(k) for k in range(len(sizes))]

    checksums: dict[str, str] = {}
    for out in outputs:
        checksums.update(out.checksums)

    source_labels = ["image", "raw"] + [s.label for s in config.syn_sources]
    manifest = PoolManifest(
        format_version=FORMAT_VERSION,
        num_records=config.num_records,
        num_shards=len(sizes),
        records_per_shard=config.records_per_shard,
        embedding_dim=config.embedding_dim,
        embedding_sources=source_labels,
        generator_seed=config.seed,
        checksums=dict(sorted(checksums.items())),
    )
    write_manifest(out_dir, manifest)

    raw_truth = (
        np.concatenate([o.raw_alphas for o in outputs])
        if outputs
        else np.zeros(0, dtype=np.float32)
    )
    fileio.write_scores(out_dir / score_sidecar_name("raw.alpha"), raw_truth)
    for src in config.syn_sources:
        truth = (
            np.concatenate([o.syn_alphas[src.label] for o in outputs])
            if outputs
            else np.zeros(0, dtype=np.float32)
        )
        fileio.write_scores(out_dir / score_sidecar_name(f"{src.label}.alpha"), truth)
    return manifest
