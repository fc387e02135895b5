"""Filtering and caption-mixing strategies.

A selection is a bool mask over pool rows.  A curated set is an (n, 2)
int64 array of (record id, caption choice) rows, where the choice is -1
for the raw caption or a synthetic variant index.
Top-fraction selection keeps exactly floor(p*N/100) records, breaking score
ties toward the lower id; thresholds are inclusive (score >= tau).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import fileio
from .errors import ConfigError, DataError, DomainError, FormatError, read_fields
from .pool import RAW_CHOICE, PoolHandle, first_bad_row
from .scoring import ScoreTable

# Each strategy is the union of its parts (rank, take, caption).  rank is the
# score source of a top-p cut ("raw" or "syn"), or None for the whole pool.
# take is "all", "top" (the cut), "rest" (its complement) or "rest >= tau"
# (the complement where the caption's own score reaches the cut's tau).
# caption is "raw", "syn" (the syn_source variant) or "best" (each record's
# highest-scoring variant).  Validation and the selection, with the score
# tables it reads, are both derived from this table.
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


@dataclass(frozen=True)
class ClusterParams:
    k: int
    max_iters: int = 100
    tol: float = 1e-4
    seed: int = 0

    @staticmethod
    def default_k(num_points: int) -> int:
        """The cluster count when none is given: 64, or fewer on a smaller pool."""
        return min(64, max(1, num_points))

    def validate(self) -> None:
        if self.k < 1:
            raise ConfigError(f"cluster count must be >= 1, got {self.k}")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        if not self.tol >= 0:  # NaN too
            raise ConfigError("tol must be nonnegative")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("cluster seed must be an unsigned 64-bit integer")


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
        """The spec as a JSON object, without the fields at None or False."""
        return {k: v for k, v in asdict(self).items() if v is not None and v is not False}

    @classmethod
    def from_dict(cls, obj: dict) -> "StrategySpec":
        kwargs = read_fields(cls, obj, "strategy")
        if kwargs.get("cluster_params") is not None:
            kwargs["cluster_params"] = ClusterParams(
                **read_fields(ClusterParams, kwargs["cluster_params"], "cluster_params"))
        spec = cls(**kwargs)
        spec.validate()
        return spec


@dataclass
class CuratedSet:
    """Sorted, duplicate-free (record id, caption choice) selection.

    ``entries`` may be given as any sequence of pairs; it is kept as an
    (n, 2) int64 array ordered by id, then caption choice (the array given,
    if it is one already so ordered and distinct).  Pairs that come in runs
    ordered that way, as ``apply_strategy``'s parts do, take at most one
    stable sort by id; only where an id's choices then decrease are they
    sorted by both.
    """

    entries: np.ndarray
    spec: StrategySpec
    tau_used: float | None = None

    def __post_init__(self):
        pairs = np.asarray(self.entries, dtype=np.int64).reshape(-1, 2)
        if (pairs[1:, 0] < pairs[:-1, 0]).any():
            pairs = pairs[np.argsort(pairs[:, 0], kind="stable")]
        same_id = pairs[1:, 0] == pairs[:-1, 0]  # the lexsort below keeps the ids in place
        if (pairs[1:, 1][same_id] < pairs[:-1, 1][same_id]).any():
            pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        repeated = np.zeros(len(pairs), dtype=bool)
        repeated[1:] = same_id & (pairs[1:, 1] == pairs[:-1, 1])
        self.entries = pairs[~repeated] if repeated.any() else pairs

    def __len__(self) -> int:
        return len(self.entries)

    def ids(self) -> np.ndarray:
        return self.entries[:, 0]


_CURATED_CHUNK = 16384  # entry lines formatted per join
_INT = r"(?:0|-?[1-9][0-9]{0,18})"  # an integer as ``str`` writes one of int64's
# possessive: nothing follows the group, so no line needs backtracking state
_ENTRY_LINES = re.compile(rf'(?:\{{"id":{_INT},"cap":(?:"raw"|{_INT})\}}\n)*+')
_ENTRY_SYNTAX = str.maketrans(dict.fromkeys('{"id:,cap}\n', " "))


def _checksum(header: dict, entries: np.ndarray) -> str:
    """A curated file's ``"crc32"``: over its header's other fields, serialized
    as ``write_curated`` writes them, then its entries as little-endian int64."""
    fields = {name: value for name, value in header.items() if name != "crc32"}
    blob = json.dumps(fields, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    return fileio.crc32c_hex(blob + np.ascontiguousarray(entries, dtype="<i8").tobytes())


def write_curated(curated: CuratedSet, path: str | Path) -> None:
    header = {
        "strategy": curated.spec.name,
        "tau_used": curated.tau_used,
        "entries": len(curated.entries),
        "spec": curated.spec.to_dict(),
    }
    header["crc32"] = _checksum(header, curated.entries)
    raw = '"raw"'  # Python 3.11 f-strings cannot nest their own quote

    def chunks() -> Iterator[bytes]:
        yield json.dumps(header, ensure_ascii=False, separators=(",", ":")).encode("utf-8") + b"\n"
        for start in range(0, len(curated.entries), _CURATED_CHUNK):
            rows = curated.entries[start : start + _CURATED_CHUNK].tolist()
            yield "".join(f'{{"id":{rec_id},"cap":{raw if cap == RAW_CHOICE else cap}}}\n'
                          for rec_id, cap in rows).encode("ascii")

    fileio.write_atomic(path, chunks())


def _canonical_entries(body: str) -> np.ndarray:
    """The (n, 2) entries of a body of ``write_curated``'s entry lines; any
    other line, or a number outside int64, is a ValueError."""
    if (end := _ENTRY_LINES.match(body).end()) < len(body):
        line = body.count("\n", 0, end) + 2
        raise ValueError(f"line {line} is not an entry line as mix writes one")
    numbers = body.replace('"raw"', str(RAW_CHOICE)).translate(_ENTRY_SYNTAX)
    entries = np.fromstring(numbers, dtype=np.int64, sep=" ").reshape(-1, 2)
    # np.fromstring reads a number past int64 as a bound, so then each is read exactly
    if entries.size and (entries.max() == 2**63 - 1 or entries.min() == -2**63) and any(
            not -2**63 <= int(n) < 2**63 for n in re.findall(r"-?[0-9]{19}", body)):
        raise ValueError("an entry holds a number outside int64")
    return entries


def _field(obj: dict, name: str, where: str):
    """``obj[name]``; a missing key is a ValueError naming it and ``where``."""
    try:
        return obj[name]
    except KeyError:
        raise ValueError(f"{where} lacks field {name!r}") from None


def read_curated(path: str | Path) -> CuratedSet:
    """A curated file as ``write_curated`` writes it, with the ``"crc32"`` its
    header and entries give; anything else raises a FormatError."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:  # a "\r" is kept, and refused
            head, _, body = fh.read().partition("\n")
        header = json.loads(head)
        spec = StrategySpec.from_dict(_field(header, "spec", "header"))
        strategy = _field(header, "strategy", "header")
        if strategy != spec.name:
            raise ValueError(f"header strategy {strategy!r} is not its spec's name "
                             f"{spec.name!r}")
        tau_used = header.get("tau_used")
        if tau_used is not None and not (type(tau_used) in (int, float)
                                         and math.isfinite(tau_used)):
            raise ValueError(f"tau_used {tau_used!r} is not a finite number")
        count = _field(header, "entries", "header")
        entries = _canonical_entries(body)
        if type(count) is not int or count != len(entries):
            raise ValueError(f"header counts {count!r} entries, file holds {len(entries)}")
        if (crc := _field(header, "crc32", "header")) != _checksum(header, entries):
            raise ValueError(f"header crc32 {crc!r} does not match the file's contents")
        curated = CuratedSet(entries=entries, spec=spec, tau_used=tau_used)
        if len(curated) != count:
            raise ValueError(f"{count - len(curated)} entry line(s) repeat an earlier one")
        return curated
    except (ValueError, TypeError, OverflowError, ConfigError) as exc:
        raise FormatError(f"{path}: not a curated file: {exc}") from None


# ---------------------------------------------------------------------------
# filters


def top_fraction(
    scores: ScoreTable, p: float, ids: np.ndarray
) -> tuple[np.ndarray, float | None]:
    """Keep exactly floor(p*N/100) highest-scoring records.

    Ties break toward the lower of the records' ``ids``, and a NaN score
    ranks below every number.  Returns the bool mask and tau, the minimum
    selected score (None when the selection is empty).
    """
    if not 0 < p <= 100:
        raise DomainError(f"p must lie in (0, 100], got {p}")
    values = scores.scores
    n = values.size
    k = Fraction(str(p)) * n // 100  # exact: p*n/100.0 can round across an integer
    mask = np.zeros(n, dtype=bool)
    if k == 0:
        return mask, None
    negated = -values  # a partition, like a sort, puts NaN last
    cut = np.partition(negated, k - 1)[k - 1]  # the k-th highest score, negated
    if cut == cut:
        mask[negated < cut] = True
        tied = np.flatnonzero(negated == cut)
    else:  # fewer than k scores are numbers: NaN scores fill the cut
        mask[~np.isnan(negated)] = True
        tied = np.flatnonzero(np.isnan(negated))
    kept = tied[np.argsort(ids[tied], kind="stable")[: k - int(mask.sum())]]
    mask[kept] = True
    return mask, float(values[kept[-1]])


def threshold_filter(scores: ScoreTable, tau: float) -> np.ndarray:
    """Inclusive threshold: keep every record with score >= tau."""
    return scores.scores >= np.float64(tau)


# ---------------------------------------------------------------------------
# k-means clustering


@dataclass
class KMeansStep:
    iteration: int
    centroids: np.ndarray
    assignments: np.ndarray
    sse: float


def _distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, one column per centroid (the exact form)."""
    out = np.empty((points.shape[0], centroids.shape[0]))
    for j in range(centroids.shape[0]):
        out[:, j] = ((points - centroids[j]) ** 2).sum(axis=1)
    return out


_BLOCK_CELLS = 1 << 17  # (points x centroids) cells per GEMM block: 2048 rows at k=64


def _assign(
    points: np.ndarray, sq_norms: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each point's nearest centroid and squared distance, as ``_distances``
    and a lowest-index argmin give them.

    Centroids are ranked by ``|x|^2 - 2 x.c + |c|^2``, one GEMM per block of
    points.  Each form errs by at most gamma_dim times the sum of its terms'
    magnitudes, whatever the summation order, so a point whose two best
    ranks lie within ``(4 dim + 16) eps (|x|^2 + max |c|^2)`` of each other
    is settled by its exact distances instead.
    """
    n, dim = points.shape
    k = centroids.shape[0]
    c_sq = (centroids * centroids).sum(axis=1)
    slack = (4 * dim + 16) * np.finfo(np.float64).eps
    c_max = c_sq.max()
    nearest, dists = np.empty(n, dtype=np.intp), np.empty(n)
    rows = max(1, _BLOCK_CELLS // k)
    for start in range(0, n, rows):
        x, x_sq = points[start : start + rows], sq_norms[start : start + rows]
        approx = x @ centroids.T
        approx *= -2
        approx += x_sq[:, None]
        approx += c_sq
        best = np.argmin(approx, axis=1)
        if k > 1:
            approx.partition(1, axis=1)
            # "not above" rather than "at most", so a NaN gap is re-checked too
            close = ~(approx[:, 1] - approx[:, 0] > slack * (x_sq + c_max))
            if close.any():
                best[close] = np.argmin(_distances(x[close], centroids), axis=1)
        nearest[start : start + rows] = best
        diff = x - centroids[best]
        diff *= diff
        dists[start : start + rows] = diff.sum(axis=1)
    return nearest, dists


def _kmeans_pp_init(
    points: np.ndarray, sq_norms: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: each next centre is drawn with probability
    proportional to its squared distance from the nearest centre so far.

    The distances ``d2`` are those of the exact form ``sum((x - c)^2)``.  A
    new centre ``c`` first bounds them by one GEMV, ``|x|^2 - 2 x.c + |c|^2``;
    only points where that bound, less ``_assign``'s rounding slack, is not
    above ``d2`` take the exact form, since elsewhere it cannot lower ``d2``.
    """
    n, dim = points.shape
    slack = (4 * dim + 16) * np.finfo(np.float64).eps
    first = int(rng.integers(n))
    centers = [points[first].copy()]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        c = points[idx].copy()
        centers.append(c)
        c_sq = float(c @ c)
        approx = points @ c
        approx *= -2
        approx += sq_norms
        approx += c_sq
        # "not above" rather than "below", so a NaN bound takes the exact form
        sel = np.flatnonzero(~(approx - slack * (sq_norms + c_sq) > d2))
        d2[sel] = np.minimum(d2[sel], ((points[sel] - c) ** 2).sum(axis=1))
    return np.stack(centers)


_SUM_COLS = 16  # columns per bincount in the Lloyd update


def _cluster_sums(points: np.ndarray, assignments: np.ndarray, k: int) -> np.ndarray:
    """Per-cluster sums of the points, as ``np.add.at(sums, assignments,
    points)`` gives them: ``bincount`` adds each bin's weights in point
    order too, so the sums agree bit for bit."""
    dim = points.shape[1]
    sums = np.empty((k, dim))
    keys = assignments[:, None] * _SUM_COLS + np.arange(_SUM_COLS)  # every block's bins
    for d0 in range(0, dim, _SUM_COLS):
        m = min(_SUM_COLS, dim - d0)
        block = np.bincount(keys[:, :m].ravel(), points[:, d0 : d0 + m].ravel(), k * _SUM_COLS)
        sums[:, d0 : d0 + m] = block.reshape(k, _SUM_COLS)[:, :m]
    return sums


def kmeans_trace(points: np.ndarray, params: ClusterParams) -> Iterator[KMeansStep]:
    """Lloyd iterations with k-means++ init; yields one step per iteration.

    Stops at max_iters or when the relative SSE improvement drops below
    tol.  Empty clusters are re-seeded from the points farthest from their
    assigned centroid.  The last yielded step's assignments are argmin
    consistent with its centroids.

    Assignment ranks centroids by one GEMM per block of points and re-checks
    in the exact per-centroid form every point whose two nearest centroids
    lie within float64 rounding of each other (see ``_assign``).  So every
    step's assignments, centroids and SSE equal those of the per-centroid
    form bit for bit, and ties go to the lower centroid index.  The k-means++
    init bounds distances by one GEMV per centre the same way, and the update
    sums each cluster in point order, as ``np.add.at`` would.
    """
    params.validate()
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise DomainError("points must be a (n, dim) matrix")
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        raise DomainError(f"point {int(np.argmin(finite))} is not finite")
    n = points.shape[0]
    if params.k > n:
        raise DomainError(f"k={params.k} exceeds number of points {n}")
    rng = np.random.default_rng(params.seed)
    sq_norms = (points * points).sum(axis=1)
    centroids = _kmeans_pp_init(points, sq_norms, params.k, rng)

    prev_sse: float | None = None
    for iteration in range(params.max_iters):
        assignments, min_dists = _assign(points, sq_norms, centroids)
        sse = float(min_dists.sum())
        yield KMeansStep(iteration, centroids.copy(), assignments, sse)
        if prev_sse is not None and prev_sse - sse <= params.tol * prev_sse:
            return
        prev_sse = sse

        counts = np.bincount(assignments, minlength=params.k)
        sums = _cluster_sums(points, assignments, params.k)
        nonempty = counts > 0
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        empty = np.flatnonzero(~nonempty)
        if empty.size:
            farthest = np.argsort(-min_dists, kind="stable")
            for slot, cluster in enumerate(empty):
                centroids[cluster] = points[farthest[slot % n]]

    # max_iters exhausted after an update: re-derive consistent assignments
    assignments, min_dists = _assign(points, sq_norms, centroids)
    sse = float(min_dists.sum())
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
) -> np.ndarray:
    """Keep records whose cluster centroid is nearest to some reference.

    Pool image embeddings are clustered with k-means; each reference picks
    its nearest centroid under cosine distance (ties to the lower index) and
    the mask keeps all records assigned to the union of picked centroids.
    A reference row that is not finite or is all zeros is a DomainError;
    after those checks, a pool without records gives an empty mask.
    """
    refs = np.asarray(reference_embs, dtype=np.float64)
    if refs.ndim != 2 or refs.shape[0] == 0:
        raise DomainError("reference set must be a nonempty (n, dim) matrix")
    if (bad := first_bad_row(refs)) is not None:
        problem = "has zero norm" if bad[1] else "is not finite"
        raise DomainError(f"reference row {bad[0]} {problem}")
    points = handle.embeddings("image").astype(np.float64)
    if refs.shape[1] != points.shape[1]:
        raise DomainError(
            f"reference dim {refs.shape[1]} != pool dim {points.shape[1]}"
        )
    if not len(points):  # an empty pool keeps no record
        return np.zeros(0, dtype=bool)
    centroids, assignments = kmeans(points, params)
    sims = _safe_unit_rows(refs) @ _safe_unit_rows(centroids).T
    nearest = np.argmax(sims, axis=1)  # cosine distance argmin, lowest index wins
    kept = np.unique(nearest)
    return np.isin(assignments, kept)


# ---------------------------------------------------------------------------
# strategies


def resolve_syn_source(labels: Sequence[str], requested: str) -> str:
    """Map a user-facing source name onto an embedding source label.

    Accepts a full label (``syn.blip2.0.75``) or a bare captioner name
    (``blip2``, or ``a.b``: whatever lies between ``syn.`` and the
    ``.{temp:.2f}`` suffix) when only one temperature is present.
    """
    if requested in labels:
        return requested
    matches = [
        lab for lab in labels
        if (m := re.fullmatch(r"syn\.(.*)\.\d+\.\d\d", lab, re.DOTALL)) and m[1] == requested
    ]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise DataError(f"no synthetic source matching {requested!r}")
    raise ConfigError(
        f"syn_source {requested!r} is ambiguous across temperatures: {sorted(matches)}"
    )


def _best_variants(handle: PoolHandle, table: Callable[[str], ScoreTable]) -> np.ndarray:
    """Position of each record's highest-scoring variant.

    Scores sit at the variant positions of the caption table's labels, so
    argmax sends ties to the lowest position whatever order a record lists
    its sources in.  Score tables are read in the order labels first appear.
    """
    records = handle.records()
    labels = records.labels
    used, first = np.unique(labels[labels >= 0], return_index=True)
    if not used.size and handle.num_records:
        raise DataError("pool has no synthetic caption sources")
    scores = np.full((len(labels), max(labels.shape[1], 1)), -np.inf, dtype=np.float32)
    for j in used[np.argsort(first)].tolist():
        rows, positions = np.nonzero(labels == j)
        scores[rows, positions] = table(records.sources[1 + j]).scores[rows]
    empty = np.isneginf(scores).all(axis=1)
    if empty.any():
        raise DataError(f"record {records.ids[np.argmax(empty)]} has no synthetic variants")
    return scores.argmax(axis=1)


def apply_strategy(
    handle: PoolHandle,
    spec: StrategySpec,
    score_tables: Mapping[str, ScoreTable],
    in1k_refs: np.ndarray | None = None,
    *,
    seed: int = 0,
    masks: dict[ClusterParams, np.ndarray] | None = None,
) -> CuratedSet:
    """Materialize a strategy spec into a curated (id, caption) selection.

    Each score table is read as ``score_tables[label]`` where the selection
    uses it, so a mapping that loads on first use (``scoring.ScoreTables``)
    loads only the tables the spec needs.  A label the mapping lacks, or a
    table whose size is not the pool's, is a DataError.

    With ``in1k_intersect``, every part is limited to the rows that
    ``in1k_cluster_mask`` keeps for ``in1k_refs`` (a ConfigError if None),
    clustered under the spec's ``cluster_params``, or else ``default_k``
    clusters seeded by ``seed``.  ``masks`` caches one mask per params
    across calls.
    """
    spec.validate()
    n = handle.num_records
    scope = np.ones(n, dtype=bool)
    if spec.in1k_intersect:  # clustered before the caption table is built
        if in1k_refs is None:
            raise ConfigError(
                f"strategy {spec.name}: in1k_intersect requires reference embeddings"
            )
        params = spec.cluster_params or ClusterParams(k=ClusterParams.default_k(n), seed=seed)
        masks = {} if masks is None else masks
        if params not in masks:
            masks[params] = in1k_cluster_mask(handle, in1k_refs, params)
        scope = masks[params]
    ids = handle.ids()
    role = {"raw": "raw"}  # the score source behind each role
    if _uses_syn(spec.name):
        role["syn"] = resolve_syn_source(handle.manifest.embedding_sources, spec.syn_source)
    parts = STRATEGIES[spec.name]

    def table(label: str) -> ScoreTable:
        try:
            found = score_tables[label]
        except KeyError:
            raise DataError(f"missing score table for source {label!r}") from None
        if found.scores.size != n:
            raise DataError(
                f"score table {label!r} has {found.scores.size} scores for {n} records"
            )
        return found

    choices = {"raw": np.full(n, RAW_CHOICE, dtype=np.int64)}
    if "syn" in role:
        choices["syn"] = syn = handle.variant_index(role["syn"])
        if (syn < 0).any():
            raise DataError(
                f"record {ids[np.argmax(syn < 0)]} has no variant for source {role['syn']!r}"
            )
    if any(caption == "best" for _, _, caption in parts):
        choices["best"] = _best_variants(handle, table)

    cuts: dict[str, tuple[np.ndarray, float | None]] = {}
    entries = []
    for rank, take, caption in parts:
        rows = scope
        if rank is not None:
            if rank not in cuts:
                cuts[rank] = top_fraction(table(role[rank]), spec.p, ids)
            mask, tau = cuts[rank]
            rows = rows & (mask if take == "top" else ~mask)
            if take == "rest >= tau":  # an empty cut has no tau and keeps no rest
                kept = threshold_filter(table(role[caption]), tau) if tau is not None else False
                rows = rows & kept
        entries.append(np.column_stack((ids[rows], choices[caption][rows])))
    tau_used = next((tau for _, tau in cuts.values()), None)  # the first cut's
    return CuratedSet(entries=np.concatenate(entries), spec=spec, tau_used=tau_used)
