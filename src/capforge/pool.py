"""Pool data model and shard I/O.

A pool is a directory with a ``manifest.json``, one JSONL shard file per
record chunk, and per-source embedding sidecars (little-endian float32).
Pools are immutable once written; handles are read-only and safe to share
across threads (caches may be built redundantly under contention, never
inconsistently).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import fileio
from .errors import DataError, FormatError, IntegrityError

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"

# A caption choice is the position of a variant in a record's "syn" list, or
# RAW_CHOICE for the record's raw caption.
RAW_CHOICE = -1


def variant_source_label(source_name: str, temperature: float) -> str:
    """Embedding-source label for a synthetic caption variant."""
    return f"syn.{source_name}.{temperature:.2f}"


def shard_jsonl_name(k: int) -> str:
    return f"shard-{k:05d}.jsonl"


def shard_embedding_name(k: int, source: str) -> str:
    return f"shard-{k:05d}.{source}.f32"


def score_sidecar_name(name: str) -> str:
    return f"{name}.scores.f32"


@dataclass(frozen=True)
class CaptionVariant:
    source_name: str
    temperature: float
    text: str

    @property
    def source_label(self) -> str:
        return variant_source_label(self.source_name, self.temperature)


@dataclass
class Record:
    """One image-text sample plus its generated caption variants."""

    id: int
    raw_caption: str
    synthetic_variants: list[CaptionVariant] = field(default_factory=list)
    prov: int | None = None  # source record id in materialized pools

    def to_json(self) -> str:
        obj: dict = {"id": self.id}
        if self.prov is not None:
            obj["prov"] = self.prov
        obj["raw"] = self.raw_caption
        obj["syn"] = [
            {"src": v.source_name, "temp": v.temperature, "text": v.text}
            for v in self.synthetic_variants
        ]
        return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "Record":
        obj = json.loads(line)
        return cls(
            id=int(obj["id"]),
            raw_caption=obj["raw"],
            synthetic_variants=[
                CaptionVariant(v["src"], float(v["temp"]), v["text"])
                for v in obj.get("syn", [])
            ],
            prov=obj.get("prov"),
        )


@dataclass
class PoolManifest:
    format_version: int
    num_records: int
    num_shards: int
    records_per_shard: int
    embedding_dim: int
    embedding_sources: list[str]
    generator_seed: int | None = None
    checksums: dict[str, str] = field(default_factory=dict)

    def to_json(self) -> str:
        obj = {
            "format_version": self.format_version,
            "num_records": self.num_records,
            "num_shards": self.num_shards,
            "records_per_shard": self.records_per_shard,
            "embedding_dim": self.embedding_dim,
            "embedding_sources": self.embedding_sources,
            "checksums": self.checksums,
        }
        if self.generator_seed is not None:
            obj["generator_seed"] = self.generator_seed
        return json.dumps(obj, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str, *, context: str) -> "PoolManifest":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{context}: manifest is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict) or "format_version" not in obj:
            raise FormatError(f"{context}: manifest missing format_version")
        version = obj["format_version"]
        if version != FORMAT_VERSION:
            raise FormatError(
                f"{context}: unsupported format_version {version} (expected {FORMAT_VERSION})"
            )
        try:
            return cls(
                format_version=int(version),
                num_records=int(obj["num_records"]),
                num_shards=int(obj["num_shards"]),
                records_per_shard=int(obj["records_per_shard"]),
                embedding_dim=int(obj["embedding_dim"]),
                embedding_sources=list(obj["embedding_sources"]),
                generator_seed=obj.get("generator_seed"),
                checksums=dict(obj.get("checksums", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{context}: malformed manifest field: {exc}") from exc


@dataclass
class ScoreTable:
    """Per-record alignment scores for one caption source."""

    source: str
    scores: np.ndarray  # float32, global record order


@dataclass
class Finding:
    kind: str
    message: str
    record_index: int | None = None
    file: str | None = None


@dataclass
class ValidationReport:
    findings: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def by_kind(self, kind: str) -> list[Finding]:
        return [f for f in self.findings if f.kind == kind]


def shard_layout(num_records: int, records_per_shard: int) -> list[int]:
    """Row count per shard: every shard full except possibly the last."""
    if records_per_shard < 1:
        raise DataError(f"records_per_shard must be >= 1, got {records_per_shard}")
    num_shards = math.ceil(num_records / records_per_shard)
    sizes = [records_per_shard] * num_shards
    if num_shards:
        sizes[-1] = num_records - records_per_shard * (num_shards - 1)
    return sizes


def write_shard(
    out_dir: Path,
    shard_index: int,
    records: Sequence[Record],
    embeddings: Mapping[str, np.ndarray],
) -> dict[str, str]:
    """Write one shard's JSONL and embedding sidecars; returns file->crc map."""
    checksums: dict[str, str] = {}
    jsonl_name = shard_jsonl_name(shard_index)
    blob = ("".join(r.to_json() + "\n" for r in records)).encode("utf-8")
    (out_dir / jsonl_name).write_bytes(blob)
    checksums[jsonl_name] = fileio.crc32c_hex(blob)
    for source, mat in embeddings.items():
        name = shard_embedding_name(shard_index, source)
        payload = fileio.encode_embeddings(np.asarray(mat, dtype=np.float32))
        (out_dir / name).write_bytes(payload)
        checksums[name] = fileio.crc32c_hex(payload)
    return checksums


def write_manifest(out_dir: Path, manifest: PoolManifest) -> None:
    (out_dir / MANIFEST_NAME).write_text(manifest.to_json() + "\n", encoding="utf-8")


def write_pool(
    records: Iterable[Record],
    embeddings: Mapping[str, np.ndarray],
    out_path: str | Path,
    *,
    records_per_shard: int = 1000,
    generator_seed: int | None = None,
) -> PoolManifest:
    """Write a pool directory from records and per-source (rows, dim) matrices."""
    out_dir = Path(out_path)
    out_dir.mkdir(parents=True, exist_ok=True)

    record_list = list(records)
    n = len(record_list)
    if "image" not in embeddings:
        raise DataError('embedding source "image" is required')

    matrices: dict[str, np.ndarray] = {}
    dim: int | None = None
    for source, stream in embeddings.items():
        mat = np.asarray(stream, dtype=np.float32)
        if mat.ndim != 2:
            raise DataError(f"source {source}: expected (rows, dim) matrix")
        if mat.shape[0] != n:
            raise DataError(
                f"source {source}: {mat.shape[0]} vectors for {n} records"
            )
        if n > 0:
            if dim is not None and mat.shape[1] != dim:
                raise DataError(
                    f"source {source}: dimension {mat.shape[1]} != {dim} of other sources"
                )
            dim = mat.shape[1]
            if not np.isfinite(mat).all():
                bad = int(np.flatnonzero(~np.isfinite(mat).all(axis=1))[0])
                raise DataError(f"source {source}: non-finite entry at row {bad}")
        matrices[source] = mat
    if dim is None:
        dim = 0

    sizes = shard_layout(n, records_per_shard)
    checksums: dict[str, str] = {}
    offset = 0
    for k, size in enumerate(sizes):
        shard_records = record_list[offset : offset + size]
        shard_embs = {s: m[offset : offset + size] for s, m in matrices.items()}
        checksums.update(write_shard(out_dir, k, shard_records, shard_embs))
        offset += size

    manifest = PoolManifest(
        format_version=FORMAT_VERSION,
        num_records=n,
        num_shards=len(sizes),
        records_per_shard=records_per_shard,
        embedding_dim=dim,
        embedding_sources=list(matrices.keys()),
        generator_seed=generator_seed,
        checksums=checksums,
    )
    write_manifest(out_dir, manifest)
    return manifest


class PoolHandle:
    """Read-only view of a pool directory.

    Besides the parsed records, a handle keeps a columnar index built once
    from them: the ids in pool order, and per variant source label the
    position of that variant in each record.  Curated (id, caption choice)
    entries resolve to rows and texts through it.
    """

    def __init__(self, path: Path, manifest: PoolManifest):
        self.path = path
        self.manifest = manifest
        self._verified: set[str] = set()
        self._records: list[Record] | None = None
        self._embeddings: dict[str, np.ndarray] = {}
        self._ids: np.ndarray | None = None
        self._id_order: np.ndarray | None = None
        self._variant_index: dict[str, np.ndarray] | None = None

    @property
    def num_records(self) -> int:
        return self.manifest.num_records

    @property
    def embedding_dim(self) -> int:
        return self.manifest.embedding_dim

    def shard_sizes(self) -> list[int]:
        return shard_layout(self.manifest.num_records, self.manifest.records_per_shard)

    def _read(self, name: str, read):
        """``read`` a pool file; only the handle's first read of it checks the
        manifest checksum, as pools are immutable."""
        checksum = None if name in self._verified else self.manifest.checksums[name]
        value = read(self.path / name, context=name, checksum=checksum)
        self._verified.add(name)
        return value

    def iter_shard_records(self, k: int) -> Iterator[Record]:
        name = shard_jsonl_name(k)
        try:
            text = self._read(name, fileio.read_bytes).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{name}: not UTF-8: {exc}") from exc
        # split on "\n" only: captions may hold U+0085 or U+2028 unescaped
        for number, line in enumerate(text.split("\n"), 1):
            if not line.strip():
                continue
            try:
                rec = Record.from_json(line)
            except (ValueError, KeyError, TypeError) as exc:
                raise FormatError(f"{name} line {number}: malformed record: {exc}") from exc
            yield rec

    def records(self) -> list[Record]:
        if self._records is None:
            recs: list[Record] = []
            for k in range(self.manifest.num_shards):
                recs.extend(self.iter_shard_records(k))
            self._records = recs
        return self._records

    def record(self, index: int) -> Record:
        return self.records()[index]

    # caption-choice index ------------------------------------------------

    def ids(self) -> np.ndarray:
        """Record ids in pool order (int64)."""
        if self._ids is None:
            recs = self.records()
            ids = np.fromiter((r.id for r in recs), dtype=np.int64, count=len(recs))
            self._id_order = np.argsort(ids, kind="stable")
            self._ids = ids
        return self._ids

    def rows(self, ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Row of each id; an id held by several records maps to the last."""
        ids = np.asarray(ids, dtype=np.int64)
        pool_ids = self.ids()
        unknown = ~np.isin(ids, pool_ids)
        if unknown.any():
            bad = int(ids[np.argmax(unknown)])
            raise DataError(f"curated entry references unknown record id {bad}")
        pos = np.searchsorted(pool_ids, ids, side="right", sorter=self._id_order)
        return self._id_order[pos - 1]

    def variant_labels(self) -> list[str]:
        """Source label of every variant some record lists."""
        if self._variant_index is None:
            n = len(self.records())
            index: dict[str, np.ndarray] = {}
            for row, rec in enumerate(self.records()):
                for pos, variant in enumerate(rec.synthetic_variants):
                    col = index.get(variant.source_label)
                    if col is None:
                        col = index[variant.source_label] = np.full(n, -1, np.int64)
                    if col[row] < 0:  # a repeated label keeps its first position
                        col[row] = pos
            self._variant_index = index
        return list(self._variant_index)

    def variant_index(self, label: str) -> np.ndarray:
        """Per-record position of the variant with source `label`, -1 if none."""
        if label not in self.variant_labels():
            return np.full(len(self.records()), -1, np.int64)
        return self._variant_index[label]

    def caption(self, row: int, cap: int) -> tuple[str, str]:
        """(embedding source label, text) of caption choice `cap` at `row`."""
        rec = self.records()[row]
        if cap == RAW_CHOICE:
            return "raw", rec.raw_caption
        if not 0 <= cap < len(rec.synthetic_variants):
            raise DataError(
                f"curated entry references variant {cap} of record {rec.id} "
                f"which has {len(rec.synthetic_variants)} variants"
            )
        variant = rec.synthetic_variants[cap]
        return variant.source_label, variant.text

    def has_source(self, source: str) -> bool:
        return source in self.manifest.embedding_sources

    def shard_embeddings(self, k: int, source: str) -> np.ndarray:
        return self._read(shard_embedding_name(k, source), fileio.read_embeddings)

    def embeddings(self, source: str) -> np.ndarray:
        """Full (num_records, dim) matrix for one source, cached."""
        cached = self._embeddings.get(source)
        if cached is not None:
            return cached
        if source not in self.manifest.embedding_sources:
            raise DataError(f"pool has no embedding source {source!r}")
        parts = [
            self.shard_embeddings(k, source) for k in range(self.manifest.num_shards)
        ]
        mat = (
            np.concatenate(parts, axis=0)
            if parts
            else np.zeros((0, self.manifest.embedding_dim), dtype=np.float32)
        )
        if mat.shape[0] != self.manifest.num_records:
            raise IntegrityError(
                f"source {source}: {mat.shape[0]} embedding rows for "
                f"{self.manifest.num_records} records"
            )
        self._embeddings[source] = mat
        return mat

    # score sidecars -------------------------------------------------------

    def score_path(self, name: str) -> Path:
        return self.path / score_sidecar_name(name)

    def has_scores(self, name: str) -> bool:
        return self.score_path(name).exists()

    def read_score_table(self, name: str) -> ScoreTable:
        path = self.score_path(name)
        scores = fileio.read_scores(path, context=path.name)
        if scores.size != self.manifest.num_records:
            raise IntegrityError(
                f"{path.name}: {scores.size} scores for {self.manifest.num_records} records"
            )
        bad = np.flatnonzero(~(np.abs(scores) <= 1.0))  # scores are cosines; NaN too
        if bad.size:
            raise IntegrityError(f"{path.name}: row {bad[0]} holds {scores[bad[0]]}, not a cosine")
        return ScoreTable(source=name, scores=scores)

    def write_score_table(self, table: ScoreTable) -> Path:
        path = self.score_path(table.source)
        fileio.write_scores(path, table.scores)
        return path


def open_pool(path: str | Path) -> PoolHandle:
    """Open a pool directory; its manifest must list checksums for exactly the
    files its layout implies."""
    pool_dir = Path(path)
    manifest_path = pool_dir / MANIFEST_NAME
    if not manifest_path.is_file():
        raise FormatError(f"{pool_dir}: missing {MANIFEST_NAME}")
    manifest = PoolManifest.from_json(
        manifest_path.read_text(encoding="utf-8"), context=str(manifest_path)
    )
    layout = {shard_jsonl_name(k) for k in range(manifest.num_shards)} | {
        shard_embedding_name(k, s)
        for k in range(manifest.num_shards)
        for s in manifest.embedding_sources
    }
    if layout != set(manifest.checksums):
        name = min(layout.symmetric_difference(manifest.checksums))
        what = "lacks checksum for" if name in layout else "lists checksum for stray file"
        raise IntegrityError(f"{pool_dir}: manifest {what} {name}")
    return PoolHandle(pool_dir, manifest)


def validate_pool(handle: PoolHandle) -> ValidationReport:
    """Check pool invariants; findings are report entries, never raises."""
    report = ValidationReport()
    manifest = handle.manifest

    expected_sizes = shard_layout(manifest.num_records, manifest.records_per_shard)
    if manifest.num_shards != len(expected_sizes):
        report.findings.append(
            Finding(
                "shard_count",
                f"manifest num_shards {manifest.num_shards} != "
                f"{len(expected_sizes)} implied by num_records/records_per_shard",
            )
        )

    seen_ids: dict[int, int] = {}
    duplicate_ids: set[int] = set()
    # labels with embeddings, plus labels without them already reported
    checked_labels = set(manifest.embedding_sources)
    total = 0
    for k in range(manifest.num_shards):
        try:
            records = list(handle.iter_shard_records(k))
        except (FormatError, IntegrityError, OSError) as exc:
            report.findings.append(
                Finding("shard_error", str(exc), file=shard_jsonl_name(k))
            )
            continue
        rows = 0
        for rec in records:
            if rec.id in seen_ids and rec.id not in duplicate_ids:
                duplicate_ids.add(rec.id)
                report.findings.append(
                    Finding("duplicate_id", f"id {rec.id} appears more than once")
                )
            seen_ids.setdefault(rec.id, total)
            labels = [v.source_label for v in rec.synthetic_variants]
            if len(set(labels)) != len(labels):
                report.findings.append(
                    Finding(
                        "duplicate_variant",
                        f"record {rec.id}: repeated (source, temperature) variant",
                        record_index=total,
                    )
                )
            for label in sorted(set(labels) - checked_labels):
                checked_labels.add(label)
                report.findings.append(
                    Finding(
                        "variant_source",
                        f"record {rec.id}: no embeddings for variant {label!r}",
                        record_index=total,
                    )
                )
            rows += 1
            total += 1
        if k < len(expected_sizes) and rows != expected_sizes[k]:
            report.findings.append(
                Finding(
                    "shard_count",
                    f"shard {k} holds {rows} records, expected {expected_sizes[k]}",
                    file=shard_jsonl_name(k),
                )
            )
    if total != manifest.num_records:
        report.findings.append(
            Finding(
                "shard_count",
                f"pool holds {total} records, manifest says {manifest.num_records}",
            )
        )

    for source in manifest.embedding_sources:
        offset = 0
        for k in range(manifest.num_shards):
            name = shard_embedding_name(k, source)
            try:
                mat = handle.shard_embeddings(k, source)
            except (FormatError, IntegrityError, OSError) as exc:
                report.findings.append(Finding("sidecar_error", str(exc), file=name))
                continue
            if mat.shape[1] != manifest.embedding_dim:
                report.findings.append(
                    Finding(
                        "dim_mismatch",
                        f"{name}: dim {mat.shape[1]} != manifest {manifest.embedding_dim}",
                        file=name,
                    )
                )
            finite = np.isfinite(mat).all(axis=1)
            norms = np.linalg.norm(mat.astype(np.float64), axis=1)
            for row in np.flatnonzero(~finite):
                report.findings.append(
                    Finding(
                        "nonfinite",
                        f"source {source}: non-finite entry at row {offset + int(row)}",
                        record_index=offset + int(row),
                    )
                )
            for row in np.flatnonzero(finite & (norms == 0.0)):
                report.findings.append(
                    Finding(
                        "zero_norm",
                        f"source {source}: zero-norm embedding at row {offset + int(row)}",
                        record_index=offset + int(row),
                    )
                )
            offset += mat.shape[0]
        if offset != manifest.num_records:
            report.findings.append(
                Finding(
                    "shard_count",
                    f"source {source}: {offset} embedding rows for "
                    f"{manifest.num_records} records",
                )
            )
    return report


def materialize(
    handle: PoolHandle,
    curated,
    out_path: str | Path,
    *,
    records_per_shard: int | None = None,
) -> PoolManifest:
    """Write the training pool a curated selection defines.

    Each curated entry becomes one output record: the chosen caption is
    written as the raw caption, its text embedding as source "raw", and the
    source record id is kept in the ``prov`` field.  New ids are sequential
    so duplicated records (concatenation strategies) stay distinct.
    """
    rows = handle.rows(curated.ids()).tolist()
    out_records: list[Record] = []
    text_rows: list[np.ndarray] = []
    for new_id, ((rec_id, cap), row) in enumerate(zip(curated.entries.tolist(), rows)):
        source, caption = handle.caption(row, cap)
        if not handle.has_source(source):
            raise DataError(f"record {rec_id}: pool has no embeddings for {source!r}")
        out_records.append(Record(id=new_id, raw_caption=caption, prov=rec_id))
        text_rows.append(handle.embeddings(source)[row])

    image = handle.embeddings("image")[rows]
    text = np.stack(text_rows) if text_rows else np.zeros_like(image)
    return write_pool(
        out_records,
        {"image": image, "raw": text},
        out_path,
        records_per_shard=records_per_shard or handle.manifest.records_per_shard,
    )
