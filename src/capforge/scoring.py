"""Alignment scoring: cosine similarity, CLIP-S, best-variant selection,
and retrieval Recall@1.

All reductions over float32 embeddings accumulate in float64; ties resolve
to the lowest index throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError
from .pool import PoolHandle, ScoreTable


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity, float64 accumulation, clamped to [-1, 1]."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise DomainError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise DomainError("cosine undefined for zero-norm input")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def _cosine_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cosine of two equally shaped float matrices (float64)."""
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    if (na == 0.0).any() or (nb == 0.0).any():
        raise DomainError("cosine undefined for zero-norm row")
    return np.clip(np.einsum("ij,ij->i", a, b) / (na * nb), -1.0, 1.0)


def clip_s(cos_score: float) -> float:
    """Reference-free caption compatibility score: 2.5 * max(cos, 0)."""
    return 2.5 * max(float(cos_score), 0.0)


def score_pool(handle: PoolHandle, text_source: str, *,
               write_sidecar: bool = True) -> ScoreTable:
    """Cosine between image and one text source for every record.

    Computed shard-by-shard and concatenated in shard order.  Written as a
    score sidecar unless ``write_sidecar`` is false.
    """
    for source in ("image", text_source):
        if not handle.has_source(source):
            raise DataError(f"pool has no embedding source {source!r}")
    parts = []
    for k in range(handle.manifest.num_shards):
        img, txt = handle.shard_embeddings(k, "image"), handle.shard_embeddings(k, text_source)
        parts.append(_cosine_rows(img, txt).astype(np.float32))
    scores = np.concatenate(parts) if parts else np.zeros(0, dtype=np.float32)
    table = ScoreTable(source=text_source, scores=scores)
    if write_sidecar:
        handle.write_score_table(table)
    return table


@dataclass
class VariantScores:
    record_id: int
    scores: list[float]  # aligned with the record's synthetic_variants


def variant_scores(handle: PoolHandle, record_index: int) -> VariantScores:
    """Cosine of each synthetic variant of one record against its image."""
    rec = handle.record(record_index)
    if not rec.synthetic_variants:
        raise DataError(f"record {rec.id} has no synthetic variants")
    image = handle.embeddings("image")[record_index]
    scores = []
    for variant in rec.synthetic_variants:
        label = variant.source_label
        if not handle.has_source(label):
            raise DataError(f"record {rec.id}: no embeddings for variant {label!r}")
        scores.append(cosine(image, handle.embeddings(label)[record_index]))
    return VariantScores(record_id=rec.id, scores=scores)


def select_best_variant(handle: PoolHandle, record_index: int) -> int:
    """Index of the highest-scoring variant; ties go to the lowest index."""
    vs = variant_scores(handle, record_index)
    return int(np.argmax(vs.scores))


def recall_at_1(image_embs: np.ndarray, text_embs: np.ndarray) -> tuple[float, float, float]:
    """(text-to-image, image-to-text, average) Recall@1 under cosine.

    Nearest neighbors are exhaustive; ties resolve to the lowest index.
    """
    image_embs = np.asarray(image_embs, dtype=np.float64)
    text_embs = np.asarray(text_embs, dtype=np.float64)
    if image_embs.ndim != 2 or text_embs.ndim != 2:
        raise DomainError("expected (n, dim) matrices")
    if image_embs.shape != text_embs.shape:
        raise DomainError(
            f"shape mismatch: {image_embs.shape} vs {text_embs.shape}"
        )
    n = image_embs.shape[0]
    if n == 0:
        raise DomainError("recall@1 undefined for empty input")
    img_norm = np.linalg.norm(image_embs, axis=1, keepdims=True)
    txt_norm = np.linalg.norm(text_embs, axis=1, keepdims=True)
    if (img_norm == 0.0).any() or (txt_norm == 0.0).any():
        raise DomainError("recall@1 undefined for zero-norm row")
    sims = (image_embs / img_norm) @ (text_embs / txt_norm).T
    i2t = float(np.mean(np.argmax(sims, axis=1) == np.arange(n)))
    t2i = float(np.mean(np.argmax(sims, axis=0) == np.arange(n)))
    return t2i, i2t, (t2i + i2t) / 2.0
