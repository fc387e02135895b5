"""Filtering and caption-mixing strategies.

A curated set is an ordered list of (record id, caption choice) entries,
where the choice is -1 for the raw caption or a synthetic variant index.
Top-fraction selection keeps exactly floor(p*N/100) records, breaking score
ties toward the lower id; thresholds are inclusive (score >= tau).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError, DomainError, FormatError
from .pool import RAW_CHOICE, PoolHandle, ScoreTable, SelectionMask

# Each strategy is the union of its parts (rank, take, caption).  rank is the
# score source of a top-p cut ("raw" or "syn"), or None for the whole pool.
# take is "all", "top" (the cut), "rest" (its complement) or "rest >= tau"
# (the complement where the caption's own score reaches the cut's tau).
# caption is "raw", "syn" (the syn_source variant) or "best" (each record's
# highest-scoring variant).  Validation, the score tables a spec reads and
# the selection are all derived from this table.
STRATEGIES: dict[str, tuple[tuple[str | None, str, str], ...]] = {
    "raw_all": ((None, "all", "raw"),),
    "syn_all": ((None, "all", "syn"),),
    "syn_best_variant_all": ((None, "all", "best"),),
    "raw_top": (("raw", "top", "raw"),),
    "syn_top": (("syn", "top", "syn"),),
    "syn_on_raw_top": (("raw", "top", "syn"),),
    "raw_top_plus_syn_rest": (("raw", "top", "raw"), ("raw", "rest", "syn")),
    "raw_top_plus_syn_rest_filtered": (
        ("raw", "top", "raw"), ("raw", "rest >= tau", "syn"),
    ),
    "syn_top_plus_raw_rest_filtered": (
        ("syn", "top", "syn"), ("syn", "rest >= tau", "raw"),
    ),
    "concat_top_plus_syn_rest_filtered": (
        ("raw", "top", "raw"), ("raw", "top", "syn"), ("raw", "rest >= tau", "syn"),
    ),
    "union_top_raw_top_syn": (("raw", "top", "raw"), ("syn", "top", "syn")),
}
STRATEGY_NAMES = tuple(STRATEGIES)


def _uses_syn(name: str) -> bool:
    return any("syn" in (rank, caption) for rank, _, caption in STRATEGIES[name])


def _parse(kind: type, value, what: str):
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be {kind.__name__}, got {value!r}") from None


@dataclass(frozen=True)
class FilterSpec:
    kind: str  # "top_fraction" | "threshold"
    p: float | None = None
    tau: float | None = None

    def validate(self) -> None:
        if self.kind == "top_fraction":
            if self.p is None or self.tau is not None:
                raise ConfigError("top_fraction filter takes exactly p")
            if not 0 < self.p <= 100:
                raise ConfigError(f"p must lie in (0, 100], got {self.p}")
        elif self.kind == "threshold":
            if self.tau is None or self.p is not None:
                raise ConfigError("threshold filter takes exactly tau")
        else:
            raise ConfigError(f"unknown filter kind {self.kind!r}")


@dataclass(frozen=True)
class ClusterParams:
    k: int
    max_iters: int = 100
    tol: float = 1e-4
    seed: int = 0

    def validate(self) -> None:
        if self.k < 1:
            raise ConfigError(f"cluster count must be >= 1, got {self.k}")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        if self.tol < 0:
            raise ConfigError("tol must be nonnegative")


@dataclass
class StrategySpec:
    name: str
    p: float | None = None
    syn_source: str | None = None
    in1k_intersect: bool = False
    cluster_params: ClusterParams | None = None

    def validate(self) -> None:
        if self.name not in STRATEGIES:
            raise ConfigError(f"unknown strategy name {self.name!r}")
        if any(rank is not None for rank, _, _ in STRATEGIES[self.name]):
            if self.p is None:
                raise ConfigError(f"strategy {self.name} requires p")
            if not 0 < self.p <= 100:
                raise ConfigError(f"p must lie in (0, 100], got {self.p}")
        if _uses_syn(self.name) and self.syn_source is None:
            raise ConfigError(f"strategy {self.name} requires syn_source")
        if self.cluster_params is not None:
            self.cluster_params.validate()

    def to_dict(self) -> dict:
        obj: dict = {"name": self.name}
        if self.p is not None:
            obj["p"] = self.p
        if self.syn_source is not None:
            obj["syn_source"] = self.syn_source
        if self.in1k_intersect:
            obj["in1k_intersect"] = True
        if self.cluster_params is not None:
            cp = self.cluster_params
            obj["cluster_params"] = {
                "k": cp.k, "max_iters": cp.max_iters, "tol": cp.tol, "seed": cp.seed,
            }
        return obj

    @classmethod
    def from_dict(cls, obj: dict) -> "StrategySpec":
        if not isinstance(obj, dict) or "name" not in obj:
            raise ConfigError("strategy spec must be an object with a name")
        known = {"name", "p", "syn_source", "in1k_intersect", "cluster_params"}
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown strategy field {sorted(unknown)[0]!r}")
        params = None
        if obj.get("cluster_params") is not None:
            cp = obj["cluster_params"]
            if not isinstance(cp, dict):
                raise ConfigError("cluster_params must be an object")
            bad = set(cp) - {"k", "max_iters", "tol", "seed"}
            if bad:
                raise ConfigError(f"unknown cluster_params field {sorted(bad)[0]!r}")
            if "k" not in cp:
                raise ConfigError("cluster_params requires k")
            params = ClusterParams(
                k=_parse(int, cp["k"], "cluster_params k"),
                max_iters=_parse(int, cp.get("max_iters", 100), "cluster_params max_iters"),
                tol=_parse(float, cp.get("tol", 1e-4), "cluster_params tol"),
                seed=_parse(int, cp.get("seed", 0), "cluster_params seed"),
            )
        in1k_intersect = obj.get("in1k_intersect", False)
        if not isinstance(in1k_intersect, bool):
            raise ConfigError(f"in1k_intersect must be true or false, got {in1k_intersect!r}")
        spec = cls(
            name=str(obj["name"]),
            p=None if obj.get("p") is None else _parse(float, obj["p"], "p"),
            syn_source=obj.get("syn_source"),
            in1k_intersect=in1k_intersect,
            cluster_params=params,
        )
        spec.validate()
        return spec


@dataclass
class CuratedSet:
    """Sorted, duplicate-free (record id, caption choice) selection."""

    entries: list[tuple[int, int]]
    spec: StrategySpec
    tau_used: float | None = None

    def __post_init__(self):
        self.entries = sorted(set((int(i), int(c)) for i, c in self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def ids(self) -> list[int]:
        return [i for i, _ in self.entries]


def write_curated(curated: CuratedSet, path: str | Path) -> None:
    header = {
        "strategy": curated.spec.name,
        "tau_used": curated.tau_used,
        "entries": len(curated.entries),
        "spec": curated.spec.to_dict(),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header, ensure_ascii=False, separators=(",", ":")) + "\n")
        for rec_id, cap in curated.entries:
            obj = {"id": rec_id, "cap": "raw" if cap == RAW_CHOICE else cap}
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


def read_curated(path: str | Path) -> CuratedSet:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line for line in fh if line.strip()]
        if not lines:
            raise DataError(f"{path}: empty curated file")
        header = json.loads(lines[0])
        spec = StrategySpec.from_dict(header["spec"])
        tau_used = header.get("tau_used")
        entries = []
        for line in lines[1:]:
            obj = json.loads(line)
            cap = obj["cap"]
            entries.append((int(obj["id"]), RAW_CHOICE if cap == "raw" else int(cap)))
    except (ValueError, KeyError, TypeError, ConfigError) as exc:
        raise FormatError(f"{path}: not a curated file: {exc}") from None
    return CuratedSet(entries=entries, spec=spec, tau_used=tau_used)


def curated_filename(strategy: str) -> str:
    return f"curated.{strategy}.jsonl"


# ---------------------------------------------------------------------------
# filters


def top_fraction(
    scores: ScoreTable, p: float, ids: np.ndarray | None = None
) -> tuple[SelectionMask, float | None]:
    """Keep exactly floor(p*N/100) highest-scoring records.

    Ties break toward the lower id.  Returns the mask and tau, the minimum
    selected score (None when the selection is empty).
    """
    if not 0 < p <= 100:
        raise DomainError(f"p must lie in (0, 100], got {p}")
    values = scores.scores
    n = values.size
    if n == 0:
        raise DomainError("top_fraction on empty score table")
    if ids is None:
        ids = np.arange(n, dtype=np.int64)
    k = Fraction(str(p)) * n // 100  # exact: p*n/100.0 can round across an integer
    if k == 0:
        return SelectionMask(np.zeros(n, dtype=bool)), None
    order = np.lexsort((ids, -values.astype(np.float64)))
    chosen = order[:k]
    tau = float(values[chosen[-1]])
    return SelectionMask.from_indices(chosen, n), tau


def threshold_filter(scores: ScoreTable, tau: float) -> SelectionMask:
    """Inclusive threshold: keep every record with score >= tau."""
    return SelectionMask(scores.scores >= np.float32(tau))


# ---------------------------------------------------------------------------
# k-means clustering


@dataclass
class KMeansStep:
    iteration: int
    centroids: np.ndarray
    assignments: np.ndarray
    sse: float


def _distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, one column per centroid."""
    out = np.empty((points.shape[0], centroids.shape[0]))
    for j in range(centroids.shape[0]):
        out[:, j] = ((points - centroids[j]) ** 2).sum(axis=1)
    return out


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    first = int(rng.integers(n))
    centers = [points[first].copy()]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        centers.append(points[idx].copy())
        d2 = np.minimum(d2, ((points - centers[-1]) ** 2).sum(axis=1))
    return np.stack(centers)


def kmeans_trace(points: np.ndarray, params: ClusterParams) -> Iterator[KMeansStep]:
    """Lloyd iterations with k-means++ init; yields one step per iteration.

    Stops at max_iters or when the relative SSE improvement drops below
    tol.  Empty clusters are re-seeded from the points farthest from their
    assigned centroid.  The last yielded step's assignments are argmin
    consistent with its centroids.
    """
    params.validate()
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise DomainError("points must be a (n, dim) matrix")
    n = points.shape[0]
    if params.k > n:
        raise DomainError(f"k={params.k} exceeds number of points {n}")
    rng = np.random.default_rng(params.seed)
    centroids = _kmeans_pp_init(points, params.k, rng)

    prev_sse: float | None = None
    for iteration in range(params.max_iters):
        dists = _distances(points, centroids)
        assignments = np.argmin(dists, axis=1)
        min_dists = dists[np.arange(n), assignments]
        sse = float(min_dists.sum())
        yield KMeansStep(iteration, centroids.copy(), assignments, sse)
        if prev_sse is not None and prev_sse - sse <= params.tol * prev_sse:
            return
        prev_sse = sse

        counts = np.bincount(assignments, minlength=params.k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assignments, points)
        nonempty = counts > 0
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        empty = np.flatnonzero(~nonempty)
        if empty.size:
            farthest = np.argsort(-min_dists, kind="stable")
            for slot, cluster in enumerate(empty):
                centroids[cluster] = points[farthest[slot % n]]

    # max_iters exhausted after an update: re-derive consistent assignments
    dists = _distances(points, centroids)
    assignments = np.argmin(dists, axis=1)
    sse = float(dists[np.arange(n), assignments].sum())
    yield KMeansStep(params.max_iters, centroids.copy(), assignments, sse)


def kmeans(points: np.ndarray, params: ClusterParams) -> tuple[np.ndarray, np.ndarray]:
    """Final (centroids, assignments) of the Lloyd iteration."""
    step = None
    for step in kmeans_trace(points, params):
        pass
    assert step is not None
    return step.centroids, step.assignments


def _safe_unit_rows(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms = np.where(norms == 0.0, 1.0, norms)
    return mat / norms


def in1k_cluster_mask(
    handle: PoolHandle, reference_embs: np.ndarray, params: ClusterParams
) -> SelectionMask:
    """Keep records whose cluster centroid is nearest to some reference.

    Pool image embeddings are clustered with k-means; each reference picks
    its nearest centroid under cosine distance (ties to the lower index) and
    the mask keeps all records assigned to the union of picked centroids.
    """
    refs = np.asarray(reference_embs, dtype=np.float64)
    if refs.ndim != 2 or refs.shape[0] == 0:
        raise DomainError("reference set must be a nonempty (n, dim) matrix")
    points = handle.embeddings("image").astype(np.float64)
    if refs.shape[1] != points.shape[1]:
        raise DomainError(
            f"reference dim {refs.shape[1]} != pool dim {points.shape[1]}"
        )
    centroids, assignments = kmeans(points, params)
    sims = _safe_unit_rows(refs) @ _safe_unit_rows(centroids).T
    nearest = np.argmax(sims, axis=1)  # cosine distance argmin, lowest index wins
    kept = np.unique(nearest)
    return SelectionMask(np.isin(assignments, kept))


# ---------------------------------------------------------------------------
# strategies


def resolve_syn_source(labels: Sequence[str], requested: str) -> str:
    """Map a user-facing source name onto an embedding source label.

    Accepts a full label (``syn.blip2.0.75``) or a bare captioner name
    (``blip2``) when only one temperature is present.
    """
    if requested in labels:
        return requested
    matches = [
        lab for lab in labels if lab.startswith("syn.") and lab.split(".", 2)[1] == requested
    ]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise DataError(f"no synthetic source matching {requested!r}")
    raise ConfigError(
        f"syn_source {requested!r} is ambiguous across temperatures: {sorted(matches)}"
    )


def _role_labels(spec: StrategySpec, sources: Sequence[str]) -> dict[str, str]:
    """Score source label behind the "raw" and (if used) "syn" roles."""
    labels = {"raw": "raw"}
    if _uses_syn(spec.name):
        labels["syn"] = resolve_syn_source(sources, spec.syn_source)
    return labels


def score_labels(spec: StrategySpec, sources: Sequence[str]) -> list[str]:
    """Exactly the score tables apply_strategy reads for this spec.

    These are the rank sources, the caption source of each filtered rest,
    and every synthetic source when captions are chosen per record.
    """
    role = _role_labels(spec, sources)
    labels: list[str] = []
    for rank, take, caption in STRATEGIES[spec.name]:
        if rank is not None:
            labels.append(role[rank])
        if take == "rest >= tau":
            labels.append(role[caption])
        if caption == "best":
            syn = [s for s in sources if s.startswith("syn.")]
            if not syn:
                raise DataError("pool has no synthetic caption sources")
            labels.extend(syn)
    return list(dict.fromkeys(labels))


def _require_tables(
    score_tables: Mapping[str, ScoreTable], *names: str, n: int
) -> None:
    for name in names:
        table = score_tables.get(name)
        if table is None:
            raise DataError(f"missing score table for source {name!r}")
        if table.scores.size != n:
            raise DataError(
                f"score table {name!r} has {table.scores.size} scores for {n} records"
            )


def _best_variants(handle: PoolHandle, score_tables: Mapping[str, ScoreTable]) -> np.ndarray:
    """Position of each record's highest-scoring variant.

    Scores are stacked by variant position, so argmax sends ties to the
    lowest position whatever order a record lists its sources in.
    """
    positions = {label: handle.variant_index(label) for label in handle.variant_labels()}
    width = 1 + max((int(pos.max()) for pos in positions.values()), default=0)
    stacked = np.full((width, handle.num_records), -np.inf, dtype=np.float32)
    for label, pos in positions.items():
        rows = np.flatnonzero(pos >= 0)
        if label not in score_tables:
            rec_id = handle.ids()[rows[0]]
            raise DataError(f"record {rec_id}: no embeddings for variant {label!r}")
        stacked[pos[rows], rows] = score_tables[label].scores[rows]
    empty = np.isneginf(stacked).all(axis=0)
    if empty.any():
        raise DataError(f"record {handle.ids()[np.argmax(empty)]} has no synthetic variants")
    return stacked.argmax(axis=0)


def apply_strategy(
    handle: PoolHandle,
    spec: StrategySpec,
    score_tables: Mapping[str, ScoreTable],
    in1k_mask: SelectionMask | None = None,
) -> CuratedSet:
    """Materialize a strategy spec into a curated (id, caption) selection."""
    spec.validate()
    n = handle.num_records
    ids = handle.ids()
    sources = handle.manifest.embedding_sources
    _require_tables(score_tables, *score_labels(spec, sources), n=n)
    role = _role_labels(spec, sources)
    parts = STRATEGIES[spec.name]

    choices = {"raw": np.full(n, RAW_CHOICE, dtype=np.int64)}
    if "syn" in role:
        choices["syn"] = syn = handle.variant_index(role["syn"])
        if (syn < 0).any():
            raise DataError(
                f"record {ids[np.argmax(syn < 0)]} has no variant for source {role['syn']!r}"
            )
    if any(caption == "best" for _, _, caption in parts):
        choices["best"] = _best_variants(handle, score_tables)

    cuts: dict[str, tuple[SelectionMask, float | None]] = {}
    entries: list[tuple[int, int]] = []
    for rank, take, caption in parts:
        if rank is None:
            rows = np.arange(n)
        else:
            if rank not in cuts:
                cuts[rank] = top_fraction(score_tables[role[rank]], spec.p, ids)
            mask, tau = cuts[rank]
            rows = mask.indices() if take == "top" else mask.complement().indices()
            if take == "rest >= tau":  # an empty cut has no tau and keeps no rest
                scores = score_tables[role[caption]].scores
                rows = rows[scores[rows] >= np.float32(tau)] if tau is not None else rows[:0]
        entries.extend(zip(ids[rows].tolist(), choices[caption][rows].tolist()))
    tau_used = next((tau for _, tau in cuts.values()), None)  # the first cut's

    if spec.in1k_intersect:
        if in1k_mask is None:
            raise DataError(f"strategy {spec.name} requires an in1k mask")
        kept_ids = set(ids[in1k_mask.indices()].tolist())
        entries = [e for e in entries if e[0] in kept_ids]

    return CuratedSet(entries=entries, spec=spec, tau_used=tau_used)
