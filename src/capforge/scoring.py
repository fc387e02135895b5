"""Alignment scoring: per-source pool cosines, their score-sidecar reader,
CLIP-S and retrieval Recall@1.

Score sidecars are derived files beside a pool, outside its checksums:
``score`` writes them (``gen`` its ground-truth ``.alpha`` ones), and
``ScoreTables`` alone reads them.

All reductions over float32 embeddings accumulate in float64; ties resolve
to the lowest index throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fileio
from .errors import DataError, DomainError, IntegrityError
from .pool import PoolHandle, score_sidecar_name


@dataclass
class ScoreTable:
    """Per-record alignment scores for one caption source."""

    source: str
    scores: np.ndarray  # float32, global record order


def clip_s(cos_score):
    """Reference-free caption compatibility score: 2.5 * max(cos, 0),
    elementwise on an array."""
    return 2.5 * np.maximum(cos_score, 0.0)


def score_pool(handle: PoolHandle, text_source: str) -> ScoreTable:
    """Cosine between image and one text source for every record; writes
    nothing.

    Computed shard-by-shard (float64) and concatenated in shard order.
    Every cosine is defined: the embedding reads refuse a row that holds a
    NaN or an infinity or is all zeros.
    """
    sources = ("image", text_source)  # every manifest lists "image"
    if text_source not in handle.manifest.embedding_sources:
        raise DataError(f"pool has no embedding source {text_source!r}")
    parts = []
    for k in range(handle.manifest.num_shards):
        mats = [handle.shard_embeddings(k, source).astype(np.float64) for source in sources]
        norms = [np.linalg.norm(mat, axis=1) for mat in mats]
        cosines = np.einsum("ij,ij->i", *mats) / (norms[0] * norms[1])
        parts.append(np.clip(cosines, -1.0, 1.0).astype(np.float32))
    scores = np.concatenate(parts) if parts else np.zeros(0, dtype=np.float32)
    return ScoreTable(source=text_source, scores=scores)


class ScoreTables(dict):
    """A pool's score tables by source label, each loaded on first use: read
    from its score sidecar where the pool has one, else computed by
    ``score_pool`` (not written).  The one reader of score sidecars: a
    sidecar must hold one score per record, each a cosine in [-1, 1]."""

    def __init__(self, handle: PoolHandle):
        super().__init__()
        self.handle = handle

    def __missing__(self, label: str) -> ScoreTable:
        path = self.handle.path / score_sidecar_name(label)
        if path.exists():
            scores = fileio.read_scores(path, context=path.name)
            if scores.size != self.handle.num_records:
                raise IntegrityError(
                    f"{path.name}: {scores.size} scores for {self.handle.num_records} records")
            bad = np.flatnonzero(~(np.abs(scores) <= 1.0))  # scores are cosines; NaN too
            if bad.size:
                raise IntegrityError(
                    f"{path.name}: row {bad[0]} holds {scores[bad[0]]}, not a cosine")
            table = ScoreTable(source=label, scores=scores)
        else:
            table = score_pool(self.handle, label)
        self[label] = table
        return table


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
