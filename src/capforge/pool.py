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


def _typed(values: list, what: str, *types: type) -> list:
    """`values`, if each one's type is one of `types` (so a bool is no int)."""
    if not {*map(type, values)} <= {*types}:
        raise TypeError(f"{what} must be {' or '.join(t.__name__ for t in types)}")
    return values


def _columns(objs: list) -> tuple:
    """(ids, raw captions, variant counts, variant texts, variant labels) of
    parsed shard records; each field's JSON type is checked for all records
    at once."""
    objs = _typed(objs, "record", dict)
    syns = _typed([o.get("syn", []) for o in objs], "syn", list)
    variants = _typed([v for syn in syns for v in syn], "variant", dict)
    srcs = _typed([v["src"] for v in variants], "src", str)
    temps = _typed([v["temp"] for v in variants], "temp", int, float)
    names = {pair: variant_source_label(*pair) for pair in dict.fromkeys(zip(srcs, temps))}
    return (np.array(_typed([o["id"] for o in objs], "id", int), np.int64),
            _typed([o["raw"] for o in objs], "raw", str), list(map(len, syns)),
            _typed([v["text"] for v in variants], "text", str),
            [names[pair] for pair in zip(srcs, temps)])


@dataclass(frozen=True)
class CaptionTable:
    """A pool's captions as columns, one row per record in pool order.

    Column 0 of ``text_ids`` and ``label_ids`` is the raw caption and
    column 1+p the variant at position p; -1 pads records with fewer
    variants.  ``text_ids`` index ``texts``, which holds each distinct
    caption once; ``label_ids`` index ``labels``: "raw", then each variant
    source label in order of first appearance.
    """

    ids: np.ndarray  # (N,) int64
    text_ids: np.ndarray  # (N, 1+W) int64
    label_ids: np.ndarray  # (N, 1+W) int64
    texts: tuple[str, ...]
    labels: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_shards(cls, shards: Iterable[tuple]) -> "CaptionTable":
        """Concatenate shards' ``_columns``, interning texts and labels."""
        text_index: dict[str, int] = {}
        label_index = {"raw": 0}

        def intern(values, index):
            return np.array([index.setdefault(v, len(index)) for v in values], np.int64)

        parts = [(ids, intern(raws, text_index), np.array(counts, np.int64),
                  intern(texts, text_index), intern(labels, label_index))
                 for ids, raws, counts, texts, labels in shards]
        ids, raw, counts, var_texts, var_labels = map(
            np.concatenate, zip((np.zeros(0, np.int64),) * 5, *parts))
        text_ids = np.full((len(ids), 1 + int(counts.max(initial=0))), -1, np.int64)
        label_ids = np.full_like(text_ids, -1)
        text_ids[:, 0] = raw
        label_ids[:, 0] = 0
        rows = np.repeat(np.arange(len(ids)), counts)
        cols = 1 + np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        text_ids[rows, cols] = var_texts
        label_ids[rows, cols] = var_labels
        return cls(ids, text_ids, label_ids, tuple(text_index), tuple(label_index))


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
    jsonl: bytes,
    embeddings: Mapping[str, np.ndarray],
) -> dict[str, str]:
    """Write one shard's encoded JSONL and embedding sidecars; returns
    file->crc map."""
    checksums: dict[str, str] = {}
    jsonl_name = shard_jsonl_name(shard_index)
    (out_dir / jsonl_name).write_bytes(jsonl)
    checksums[jsonl_name] = fileio.crc32c_hex(jsonl)
    for source, mat in embeddings.items():
        name = shard_embedding_name(shard_index, source)
        payload = fileio.encode_embeddings(np.asarray(mat, dtype=np.float32))
        (out_dir / name).write_bytes(payload)
        checksums[name] = fileio.crc32c_hex(payload)
    return checksums


def write_manifest(out_dir: Path, manifest: PoolManifest) -> None:
    fileio.write_atomic(out_dir / MANIFEST_NAME, (manifest.to_json() + "\n").encode("utf-8"))


def new_pool_dir(out_path: str | Path) -> Path:
    """Create the directory a pool is written to; it must be new or empty,
    so no file of an earlier pool (a score sidecar, a shard) survives."""
    out_dir = Path(out_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    if any(out_dir.iterdir()):
        raise DataError(f"{out_dir}: not empty; write a pool into a new directory")
    return out_dir


def write_pool(
    records: Iterable[Record],
    embeddings: Mapping[str, np.ndarray],
    out_path: str | Path,
    *,
    records_per_shard: int = 1000,
    generator_seed: int | None = None,
) -> PoolManifest:
    """Write a pool directory from records and per-source (rows, dim) matrices."""
    out_dir = new_pool_dir(out_path)

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
        jsonl = "".join(r.to_json() + "\n" for r in record_list[offset : offset + size])
        shard_embs = {s: m[offset : offset + size] for s, m in matrices.items()}
        checksums.update(write_shard(out_dir, k, jsonl.encode("utf-8"), shard_embs))
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

    The records are read once, shard by shard, into a ``CaptionTable``
    (``records()``).  Curated (id, caption choice) entries resolve to rows
    and texts through it: ``ids``, ``rows``, ``variant_labels``,
    ``variant_index`` and ``caption`` all read the table.
    """

    def __init__(self, path: Path, manifest: PoolManifest):
        self.path = path
        self.manifest = manifest
        self._verified: set[str] = set()
        self._table: CaptionTable | None = None
        self._id_order: np.ndarray | None = None
        self._embeddings: dict[str, np.ndarray] = {}

    @property
    def num_records(self) -> int:
        return self.manifest.num_records

    @property
    def embedding_dim(self) -> int:
        return self.manifest.embedding_dim

    def _read(self, name: str, read):
        """``read`` a pool file; only the handle's first read of it checks the
        manifest checksum, as pools are immutable."""
        checksum = None if name in self._verified else self.manifest.checksums[name]
        value = read(self.path / name, context=name, checksum=checksum)
        self._verified.add(name)
        return value

    def shard_columns(self, k: int) -> tuple:
        """``_columns`` of shard k, one record per non-blank line.  A line
        that is not exactly one JSON record, or whose fields have the wrong
        types, raises a FormatError naming it."""
        name = shard_jsonl_name(k)
        try:
            text = self._read(name, fileio.read_bytes).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{name}: not UTF-8: {exc}") from exc
        # split on "\n" only: captions may hold U+0085 or U+2028 unescaped
        lines = text.split("\n")
        nonblank = [line for line in lines if line.strip()]
        try:  # fast path: each line one value ending at its last character
            parsed = list(map(json.JSONDecoder().raw_decode, nonblank))
            if [end for _, end in parsed] == list(map(len, nonblank)):
                return _columns([obj for obj, _ in parsed])
        except (ValueError, KeyError, TypeError, OverflowError):
            pass
        objs = []
        for number, line in enumerate(lines, 1):
            try:
                if line.strip():
                    objs.append(json.loads(line))
                    _columns(objs[-1:])
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                raise FormatError(f"{name} line {number}: malformed record: {exc}") from None
        return _columns(objs)

    def records(self) -> CaptionTable:
        """The pool's caption table, built on the first call."""
        if self._table is None:
            shards = map(self.shard_columns, range(self.manifest.num_shards))
            table = CaptionTable.from_shards(shards)
            self._id_order = np.argsort(table.ids, kind="stable")
            self._table = table
        return self._table

    # caption-choice index ------------------------------------------------

    def ids(self) -> np.ndarray:
        """Record ids in pool order (int64)."""
        return self.records().ids

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
        return list(self.records().labels[1:])

    def variant_index(self, label: str) -> np.ndarray:
        """Per-record position of the variant with source `label`, -1 if none;
        a repeated label keeps its first position."""
        table = self.records()
        if label not in table.labels[1:]:
            return np.full(len(table), -1, np.int64)
        match = table.label_ids[:, 1:] == table.labels.index(label)
        return np.where(match.any(axis=1), match.argmax(axis=1), -1)

    def caption(self, row: int, cap: int) -> tuple[str, str]:
        """(embedding source label, text) of caption choice `cap` at `row`."""
        table, col = self.records(), cap + 1
        text_id = table.text_ids.item(row, col) if 0 <= col < table.text_ids.shape[1] else -1
        if text_id < 0:
            raise self._missing_choice(row, cap)
        return table.labels[table.label_ids.item(row, col)], table.texts[text_id]

    def caption_ids(self, rows: np.ndarray, caps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(label ids, text ids) into ``records()`` of each (row, caption
        choice); the first choice its record lacks raises as ``caption``."""
        table, cols = self.records(), np.asarray(caps, np.int64) + 1
        held = (cols >= 0) & (cols < table.text_ids.shape[1])
        cols = np.where(held, cols, 0)
        text_ids = np.where(held, table.text_ids[rows, cols], -1)
        if (text_ids < 0).any():
            bad = int(np.argmax(text_ids < 0))
            raise self._missing_choice(int(rows[bad]), int(caps[bad]))
        return table.label_ids[rows, cols], text_ids

    def _missing_choice(self, row: int, cap: int) -> DataError:
        table = self.records()
        return DataError(
            f"curated entry references variant {cap} of record {table.ids[row]} "
            f"which has {int((table.text_ids[row, 1:] >= 0).sum())} variants"
        )

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
        fileio.read_text(manifest_path), context=str(manifest_path)
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

    def good_shards() -> Iterator[tuple]:
        for k in range(manifest.num_shards):
            try:
                columns = handle.shard_columns(k)
            except (FormatError, IntegrityError, OSError) as exc:
                report.findings.append(
                    Finding("shard_error", str(exc), file=shard_jsonl_name(k))
                )
                continue
            rows = len(columns[0])
            if k < len(expected_sizes) and rows != expected_sizes[k]:
                report.findings.append(
                    Finding(
                        "shard_count",
                        f"shard {k} holds {rows} records, expected {expected_sizes[k]}",
                        file=shard_jsonl_name(k),
                    )
                )
            yield columns

    table = CaptionTable.from_shards(good_shards())
    if len(table) != manifest.num_records:
        report.findings.append(
            Finding(
                "shard_count",
                f"pool holds {len(table)} records, manifest says {manifest.num_records}",
            )
        )

    values, counts = np.unique(table.ids, return_counts=True)
    report.findings += [Finding("duplicate_id", f"id {rec_id} appears more than once")
                        for rec_id in values[counts > 1].tolist()]
    variants = np.sort(table.label_ids[:, 1:], axis=1)
    repeated = (variants[:, 1:] == variants[:, :-1]) & (variants[:, 1:] >= 0)
    report.findings += [
        Finding("duplicate_variant", f"record {table.ids[row]}: repeated (source, "
                "temperature) variant", record_index=row)
        for row in np.flatnonzero(repeated.any(axis=1)).tolist()
    ]
    for index, label in enumerate(table.labels[1:], 1):
        if label not in manifest.embedding_sources:
            row = int(np.argmax((table.label_ids == index).any(axis=1)))
            report.findings.append(Finding(
                "variant_source", f"record {table.ids[row]}: no embeddings for variant "
                f"{label!r}", record_index=row))

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
