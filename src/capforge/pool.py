"""Pool data model and shard I/O.

A pool is a directory with a ``manifest.json``, one binary caption shard
per record chunk, and per-source embedding sidecars (little-endian
float32).  Pools are immutable once written; handles are read-only and
safe to share across threads (caches may be built redundantly under
contention, never inconsistently).

A caption shard (``shard-NNNNN.cap``, little-endian; only this module
encodes and decodes one) holds the magic ``CAP2``, the variant width W
(u32) and the row count N (u64), then the columns ``ids`` int64[N];
``prov`` int64[N], a materialized record's source id or -1 for none;
``labels`` int16[N*W], row by row, indexes into the manifest's
``caption_labels`` with -1 padding only after a record's variants; and
``offsets`` uint64[T+1] (T: N plus the variant count) into the UTF-8
buffer that ends the file, which holds each record's raw caption and then
its variants, record by record.
"""

from __future__ import annotations

import json
import reprlib
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import fileio
from .errors import DataError, FormatError, IntegrityError

FORMAT_VERSION = 3
MANIFEST_NAME = "manifest.json"
SHARD_MAGIC = b"CAP2"
MAX_CAPTION_LABELS = 2**15 - 1  # a shard's labels are int16 indexes
MAX_FILE_NAME_BYTES = 255  # NAME_MAX of Linux file systems

# A caption choice is the position of a variant in a record's "syn" list, or
# RAW_CHOICE for the record's raw caption.
RAW_CHOICE = -1


def variant_source_label(source_name: str, temperature: float) -> str:
    """Embedding-source label for a synthetic caption variant."""
    return f"syn.{source_name}.{temperature:.2f}"


def check_source_name(name: str, error: type[Exception] = DataError) -> None:
    """Raise ``error`` unless a source name can name a sidecar file: no '/',
    no NUL and no lone surrogate, which UTF-8 cannot encode."""
    if "/" in name or "\0" in name or any("\ud800" <= c <= "\udfff" for c in name):
        raise error(f"source name {name!r} cannot name a file: it holds '/', NUL or "
                    "a lone surrogate")


def check_file_name(name: str, error: type[Exception] = DataError) -> None:
    """Raise ``error`` if a file named after a source exceeds MAX_FILE_NAME_BYTES."""
    size = len(name.encode("utf-8"))
    if size > MAX_FILE_NAME_BYTES:
        raise error(f"source name too long: file name {reprlib.repr(name)} takes {size} "
                    f"bytes, more than {MAX_FILE_NAME_BYTES}")


def id_order(ids: np.ndarray, error: type[Exception]) -> np.ndarray:
    """The permutation that sorts ``ids``; raise ``error`` if an id repeats."""
    order = np.argsort(ids)
    ordered = ids[order]
    repeated = np.flatnonzero(ordered[1:] == ordered[:-1])
    if repeated.size:
        raise error(f"id {ordered[repeated[0]]} appears more than once")
    return order


def first_bad_row(mat: np.ndarray) -> tuple[int, bool] | None:
    """(row, whether it is finite) of the first row of an embedding matrix that
    holds a NaN or an infinity or is all zeros, which has no cosine; else None."""
    finite = np.isfinite(mat).all(axis=1)
    bad = np.flatnonzero(~(finite & mat.any(axis=1)))
    return (int(bad[0]), bool(finite[bad[0]])) if bad.size else None


def shard_caption_name(k: int) -> str:
    return f"shard-{k:05d}.cap"


def shard_embedding_name(k: int, source: str) -> str:
    return f"shard-{k:05d}.{source}.f32"


def score_sidecar_name(name: str) -> str:
    return f"{name}.scores.f32"


class ShardColumns(NamedTuple):
    """Caption columns as a shard stores them: one shard's for ``write_shard``,
    a whole pool's for ``write_pool``."""

    ids: np.ndarray  # (N,) int64
    prov: np.ndarray  # (N,) int64, -1 for none
    labels: np.ndarray  # (N, W) int16 into caption_labels, -1 pads
    offsets: np.ndarray  # (T+1,) uint64 byte offsets into text
    text: bytes  # UTF-8: each record's raw caption, then its variants


def encode_shard(columns: ShardColumns) -> bytes:
    """A caption shard's bytes, in the layout the module docstring gives."""
    ids, prov, labels, offsets, text = columns
    rows, width = labels.shape
    return b"".join((
        SHARD_MAGIC, struct.pack("<IQ", width, rows),
        np.asarray(ids, "<i8").tobytes(), np.asarray(prov, "<i8").tobytes(),
        np.asarray(labels, "<i2").tobytes(), np.asarray(offsets, "<u8").tobytes(), text,
    ))


def check_captions(labels: np.ndarray, offsets: np.ndarray, text: bytes, *, context: str,
                   num_labels: int, error: type[Exception]) -> None:
    """Raise ``error`` naming ``context`` unless caption columns hold a shard's
    rules: labels in [-1, ``num_labels``), -1 only after a row's variants and
    no label twice in a row; offsets that rise from 0 to the end of ``text``
    over each row's raw caption and variants; UTF-8 text in which no caption
    starts inside a character."""
    bad = labels[(labels < -1) | (labels >= num_labels)]
    if bad.size:
        raise error(f"{context}: label {bad[0]} outside [-1, {num_labels})")
    held = labels >= 0
    gaps = (held[:, 1:] > held[:, :-1]).any(axis=1)
    if gaps.any():
        raise error(f"{context}: row {np.argmax(gaps)} pads before a variant")
    ordered = np.sort(labels, axis=1)
    twice = ((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0)).any(axis=1)
    if twice.any():
        raise error(f"{context}: row {np.argmax(twice)} lists a variant label twice")
    if (len(offsets) != len(labels) + held.sum() + 1 or offsets[0] != 0
            or offsets[-1] != len(text) or (offsets[1:] < offsets[:-1]).any()):
        raise error(f"{context}: caption offsets do not rise from 0 to the "
                    f"{len(text)}-byte text buffer's end")
    # Each caption is UTF-8 exactly when the whole buffer is and no caption
    # starts on a continuation byte (0b10xxxxxx), that is inside a character.
    try:
        text.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{context}: a caption is not UTF-8: {exc}") from None
    firsts = offsets[:-1][offsets[:-1] < len(text)]
    split = np.flatnonzero((np.frombuffer(text, np.uint8)[firsts] & 0xC0) == 0x80)
    if split.size:
        raise error(f"{context}: a caption is not UTF-8: caption {split[0]} starts "
                    "inside a character")


def decode_shard(
    blob: bytes, *, context: str, num_labels: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bytes]:
    """(ids, labels, offsets, text) of a caption shard: ``text`` is its UTF-8
    buffer and ``offsets`` (int64) bound each record's raw caption and then
    its variants, record by record.  A shard that breaks the layout or
    ``check_captions`` raises a FormatError or IntegrityError naming it."""
    if len(blob) < 16 or blob[:4] != SHARD_MAGIC:
        raise FormatError(f"{context}: not a CAP2 caption shard")
    width, rows = struct.unpack_from("<IQ", blob, 4)
    head = 16 + rows * (16 + 2 * width)
    if len(blob) < head:
        raise IntegrityError(f"{context}: {len(blob)} bytes, its header implies at least {head}")
    # copies, so the columns do not keep the shard's bytes alive
    ids = np.frombuffer(blob, "<i8", rows, 16).astype(np.int64)
    labels = np.frombuffer(blob, "<i2", rows * width, 16 + 16 * rows).reshape(rows, width)
    labels = labels.astype(np.int16)
    count = rows + int((labels >= 0).sum())
    start = head + 8 * (count + 1)
    if len(blob) < start:
        raise IntegrityError(f"{context}: {len(blob)} bytes, its header implies at least {start}")
    offsets, text = np.frombuffer(blob, "<u8", count + 1, head), blob[start:]
    check_captions(labels, offsets, text, context=context, num_labels=num_labels,
                   error=FormatError)
    return ids, labels, offsets.astype(np.int64), text


def caption_starts(labels: np.ndarray) -> np.ndarray:
    """(N+1,) int64: record r's captions are numbered from ``starts[r]`` on,
    its raw caption and then each variant its (N, W) ``labels`` hold, as
    shards store them; ``starts[N]`` counts every caption."""
    starts = np.zeros(len(labels) + 1, np.int64)
    np.cumsum(1 + (labels >= 0).sum(axis=1), out=starts[1:])
    return starts


@dataclass(frozen=True)
class CaptionTable:
    """A pool's captions as columns, one row per record in pool order.

    ``labels`` are the shards' variant labels, padded with -1 to the widest
    shard: label j is embedding source ``sources[1 + j]``, and ``sources[0]``
    is "raw", the source of every raw caption.  Captions are numbered in
    shard order: record r's raw caption is caption ``starts[r]`` and its
    variant p caption ``starts[r] + 1 + p``, and caption i is
    ``text[offsets[i]:offsets[i + 1]]``, UTF-8.  Ids are distinct, and
    ``id_order`` sorts them.
    """

    ids: np.ndarray  # (N,) int64
    id_order: np.ndarray  # (N,) int64: the rows in id order
    labels: np.ndarray  # (N, W) int16 into sources[1:], -1 pads
    starts: np.ndarray  # (N+1,) int64, caption_starts(labels)
    offsets: np.ndarray  # (T+1,) int64
    text: bytearray
    sources: tuple[str, ...]  # "raw", then the manifest's caption labels

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_shards(cls, shards: Iterable[tuple], caption_labels: Sequence[str]) -> "CaptionTable":
        """Concatenate ``decode_shard`` results, whose ids must be distinct;
        labels index ``caption_labels``."""
        text = bytearray()  # grown shard by shard, so no shard's text is held twice
        ids, labels, offsets = [np.zeros(0, np.int64)], [], [np.zeros(1, np.int64)]
        for shard_ids, shard_labels, shard_offsets, shard_text in shards:
            ids.append(shard_ids)
            labels.append(shard_labels)
            offsets.append(shard_offsets[1:] + len(text))
            text += shard_text
        ids, offsets = np.concatenate(ids), np.concatenate(offsets)
        order = id_order(ids, IntegrityError)
        width = max((part.shape[1] for part in labels), default=0)
        labels = np.concatenate([np.zeros((0, width), np.int16)] + [
            np.pad(part, ((0, 0), (0, width - part.shape[1])), constant_values=-1)
            for part in labels])
        return cls(ids, order, labels, caption_starts(labels), offsets, text,
                   ("raw", *caption_labels))


_RETIRED_FORMATS = {1: "JSONL shards", 2: "CRC32C checksums"}
_COUNT = ("a non-negative integer", lambda v: type(v) is int and v >= 0)
_NAMES = ("a list of distinct strings",
          lambda v: type(v) is list and {*map(type, v)} <= {str} and len({*v}) == len(v))
_MANIFEST_FIELDS = {  # field: (what it must be, test)
    "num_records": _COUNT, "num_shards": _COUNT, "records_per_shard": _COUNT,
    "embedding_dim": _COUNT, "embedding_sources": _NAMES, "caption_labels": _NAMES,
    "generator_seed": ("a non-negative integer or null", lambda v: v is None or _COUNT[1](v)),
    "checksums": ("an object of strings",
                  lambda v: type(v) is dict and {*map(type, v.values())} <= {str}),
}


@dataclass
class PoolManifest:
    format_version: int
    num_records: int
    num_shards: int
    records_per_shard: int
    embedding_dim: int
    embedding_sources: list[str]
    caption_labels: list[str] = field(default_factory=list)
    generator_seed: int | None = None
    checksums: dict[str, str] = field(default_factory=dict)

    def to_json(self) -> str:
        obj = {k: v for k, v in asdict(self).items() if v is not None}
        return json.dumps(obj, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str, *, context: str) -> "PoolManifest":
        """A format-3 manifest whose fields pass ``_MANIFEST_FIELDS``'s tests;
        anything else raises a FormatError in one line."""
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{context}: manifest is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict) or "format_version" not in obj:
            raise FormatError(f"{context}: manifest missing format_version")
        version = obj["format_version"]
        if type(version) is int and version in _RETIRED_FORMATS:
            raise FormatError(f"{context}: format_version {version} "
                              f"({_RETIRED_FORMATS[version]}) is no longer read; "
                              "regenerate the pool")
        if type(version) is not int or version != FORMAT_VERSION:
            raise FormatError(
                f"{context}: unsupported format_version {version!r} (expected {FORMAT_VERSION})")
        obj.setdefault("generator_seed", None)
        for key, (what, ok) in _MANIFEST_FIELDS.items():
            if key not in obj:
                raise FormatError(f"{context}: manifest lacks field {key!r}")
            if not ok(obj[key]):
                raise FormatError(f"{context}: manifest field {key!r} must be {what}, "
                                  f"got {reprlib.repr(obj[key])}")
        if obj["records_per_shard"] < 1:
            raise FormatError(f"{context}: manifest field 'records_per_shard' must be >= 1, "
                              f"got {obj['records_per_shard']}")
        shards = -(-obj["num_records"] // obj["records_per_shard"])  # ceil, as in shard_layout
        if obj["num_shards"] != shards:
            raise FormatError(f"{context}: manifest field 'num_shards' must be {shards} for "
                              f"{obj['num_records']} records at {obj['records_per_shard']} per "
                              f"shard, got {obj['num_shards']}")
        if "image" not in obj["embedding_sources"]:
            raise FormatError(f"{context}: manifest field 'embedding_sources' must list "
                              f"'image', got {reprlib.repr(obj['embedding_sources'])}")
        if len(obj["caption_labels"]) > MAX_CAPTION_LABELS:
            raise FormatError(f"{context}: manifest lists {len(obj['caption_labels'])} "
                              f"caption labels, more than {MAX_CAPTION_LABELS}")
        if "raw" in obj["caption_labels"]:
            raise FormatError(f"{context}: manifest field 'caption_labels' lists 'raw', which "
                              "names the raw captions' source")
        lacking = set(obj["caption_labels"]).difference(obj["embedding_sources"])
        if lacking:
            raise FormatError(f"{context}: manifest field 'caption_labels' lists "
                              f"{min(lacking)!r}, which 'embedding_sources' lacks")
        return cls(version, **{key: obj[key] for key in _MANIFEST_FIELDS})


@dataclass
class ScoreTable:
    """Per-record alignment scores for one caption source."""

    source: str
    scores: np.ndarray  # float32, global record order


@dataclass
class Finding:
    kind: str
    message: str
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
    num_shards = -(-num_records // records_per_shard)  # ceil, exact for any int
    sizes = [records_per_shard] * num_shards
    if num_shards:
        sizes[-1] = num_records - records_per_shard * (num_shards - 1)
    return sizes


def write_shard(
    out_dir: Path,
    shard_index: int,
    columns: ShardColumns,
    embeddings: Mapping[str, np.ndarray],
) -> dict[str, str]:
    """Write one caption shard and its embedding sidecars; returns
    file->crc map."""
    payloads = {shard_caption_name(shard_index): encode_shard(columns)} | {
        shard_embedding_name(shard_index, source): fileio.encode_embeddings(
            np.asarray(mat, dtype=np.float32)) for source, mat in embeddings.items()}
    for name, payload in payloads.items():
        (out_dir / name).write_bytes(payload)
    return {name: fileio.crc32c_hex(payload) for name, payload in payloads.items()}


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
    columns: ShardColumns,
    caption_labels: Sequence[str],
    embeddings: Mapping[str, np.ndarray],
    out_path: str | Path,
    *,
    records_per_shard: int = 1000,
) -> PoolManifest:
    """Write a pool directory from the caption columns of all its records,
    whose labels index ``caption_labels``, and per-source (rows, dim)
    matrices.  Shard k holds rows ``k * records_per_shard`` onward: a slice
    of each column, its offsets re-based to 0, at the pool's variant width.
    The reads' checks (``check_captions``, ``id_order``, ``first_bad_row``,
    the manifest's field rules) all run before the directory is made."""
    ids, prov, labels, offsets = map(np.asarray, columns[:4])
    for name, col, ndim in zip(ShardColumns._fields, (ids, prov, labels, offsets), (1, 1, 2, 1)):
        if col.dtype.kind not in "iu" or col.ndim != ndim:
            raise DataError(f"column {name} must be {ndim}-d integers, got {col.dtype} of "
                            f"shape {col.shape}")
    if (ids.astype(np.int64) != ids).any() or (prov.astype(np.int64) != prov).any():
        raise DataError("columns ids and prov must fit int64")
    if not len(ids) == len(prov) == len(labels):
        raise DataError(f"columns ids, prov and labels must hold one row per record, got "
                        f"{len(ids)}, {len(prov)} and {len(labels)} rows")
    if not isinstance(text := columns.text, bytes):
        raise DataError(f"column text must be bytes, got {type(text).__name__}")
    n = len(ids)
    sizes = shard_layout(n, records_per_shard)
    check_captions(labels, offsets, text, context="captions",
                   num_labels=len(caption_labels), error=DataError)
    id_order(ids, DataError)

    matrices: dict[str, np.ndarray] = {}
    dim: int | None = None
    for source, stream in embeddings.items():
        check_source_name(source)
        check_file_name(shard_embedding_name(max(len(sizes) - 1, 0), source))
        check_file_name(fileio.temp_name(score_sidecar_name(source), fileio.LONGEST_PID))
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
            if (bad := first_bad_row(mat)) is not None:
                what = "zero-norm embedding" if bad[1] else "non-finite entry"
                raise DataError(f"source {source}: {what} at row {bad[0]}")
        matrices[source] = mat
    manifest = PoolManifest(FORMAT_VERSION, n, len(sizes), records_per_shard, dim or 0,
                            list(matrices), list(caption_labels))
    try:
        PoolManifest.from_json(manifest.to_json(), context=MANIFEST_NAME)
    except FormatError as exc:
        raise DataError(str(exc)) from None
    out_dir = new_pool_dir(out_path)

    starts = caption_starts(labels)
    for k, size in enumerate(sizes):
        rows = slice(k * records_per_shard, k * records_per_shard + size)
        bounds = offsets[starts[rows.start] : starts[rows.stop] + 1]
        shard = ShardColumns(ids[rows], prov[rows], labels[rows], bounds - bounds[0],
                             text[bounds[0] : bounds[-1]])
        manifest.checksums |= write_shard(out_dir, k, shard,
                                          {s: m[rows] for s, m in matrices.items()})
    write_manifest(out_dir, manifest)
    return manifest


class PoolHandle:
    """Read-only view of a pool directory.

    The records are read once, shard by shard, into a ``CaptionTable``
    (``records()``).  Curated (id, caption choice) entries resolve to rows,
    sources and texts through it: ``ids``, ``rows``, ``variant_labels``,
    ``variant_index``, ``caption_ids`` and ``caption`` all read the table.
    Embeddings are not cached: each ``embeddings`` call reads the source's
    sidecars again.
    """

    def __init__(self, path: Path, manifest: PoolManifest):
        self.path = path
        self.manifest = manifest
        self.layout = shard_layout(manifest.num_records, manifest.records_per_shard)
        self._verified: set[str] = set()
        self._table: CaptionTable | None = None

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

    def shard_columns(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, bytes]:
        """``decode_shard`` of caption shard k, which must hold ``layout[k]``
        records."""
        name = shard_caption_name(k)
        columns = decode_shard(self._read(name, fileio.read_bytes), context=name,
                               num_labels=len(self.manifest.caption_labels))
        if len(columns[0]) != self.layout[k]:
            raise IntegrityError(f"{name}: {len(columns[0])} records, {MANIFEST_NAME} implies "
                                 f"{self.layout[k]}")
        return columns

    def records(self) -> CaptionTable:
        """The pool's caption table, built on the first call."""
        if self._table is None:
            shards = map(self.shard_columns, range(self.manifest.num_shards))
            self._table = CaptionTable.from_shards(shards, self.manifest.caption_labels)
        return self._table

    # caption-choice index ------------------------------------------------

    def ids(self) -> np.ndarray:
        """Record ids in pool order (int64)."""
        return self.records().ids

    def rows(self, ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Row of each id, by one search of the id order; an unknown id is a DataError."""
        ids = np.asarray(ids, dtype=np.int64)
        table = self.records()
        rows, unknown = ids, np.ones(ids.shape, bool)  # an empty pool holds no id
        if len(table):
            pos = np.searchsorted(table.ids, ids, sorter=table.id_order)
            rows = table.id_order[np.minimum(pos, len(table) - 1)]
            unknown = table.ids[rows] != ids
        if unknown.any():
            bad = int(ids[np.argmax(unknown)])
            raise DataError(f"curated entry references unknown record id {bad}")
        return rows

    def variant_labels(self) -> list[str]:
        """Source label of every variant some record lists, by first appearance."""
        table = self.records()
        used, first = np.unique(table.labels[table.labels >= 0], return_index=True)
        return [table.sources[1 + j] for j in used[np.argsort(first)].tolist()]

    def variant_index(self, label: str) -> np.ndarray:
        """Per-record position of the variant with source `label`, -1 if none."""
        table = self.records()
        index = np.full(len(table), -1, np.int64)
        if label in table.sources[1:]:  # a label is listed at most once per record
            rows, positions = np.nonzero(table.labels == table.sources.index(label) - 1)
            index[rows] = positions
        return index

    def caption(self, row: int, cap: int) -> tuple[str, str]:
        """(embedding source label, text) of caption choice `cap` at `row`."""
        table = self.records()
        (source,), (i,) = self.caption_ids(np.array([row]), np.array([cap]))
        return table.sources[source], table.text[table.offsets[i] : table.offsets[i + 1]].decode()

    def caption_ids(self, rows: np.ndarray, caps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(indexes into ``records().sources``, caption numbers) of each (row,
        caption choice); the first choice its record lacks is a DataError."""
        table, rows, caps = self.records(), np.asarray(rows, np.int64), np.asarray(caps, np.int64)
        width = table.labels.shape[1]
        labels = np.full(caps.shape, -1, np.int16)
        if width:  # gather at every entry, then mask: a gather at the variants alone is slower
            variant = (caps >= 0) & (caps < width)
            labels = np.where(variant, table.labels[rows, np.where(variant, caps, 0)], -1)
        held = (caps == RAW_CHOICE) | (labels >= 0)
        if not held.all():
            row, cap = rows[~held][0], caps[~held][0]
            raise DataError(f"curated entry references variant {cap} of record "
                            f"{table.ids[row]} which has {(table.labels[row] >= 0).sum()} variants")
        return labels + 1, table.starts[rows] + 1 + caps

    def shard_embeddings(self, k: int, source: str) -> np.ndarray:
        """Sidecar k of ``source``, which must be (``layout[k]``, embedding_dim)
        with no row that is all zeros or holds a NaN or an infinity."""
        name = shard_embedding_name(k, source)
        mat = self._read(name, fileio.read_embeddings)
        if mat.shape != (self.layout[k], self.embedding_dim):
            raise IntegrityError(f"{name}: {mat.shape[0]}x{mat.shape[1]} embeddings, "
                                 f"{MANIFEST_NAME} implies {self.layout[k]}x{self.embedding_dim}")
        if (bad := first_bad_row(mat)) is not None:
            what = "zero-norm embedding" if bad[1] else "non-finite entry"
            row = k * self.manifest.records_per_shard + bad[0]
            raise IntegrityError(f"{name}: {what} at pool row {row}")
        return mat

    def embeddings(self, source: str) -> np.ndarray:
        """Full (num_records, dim) matrix for one source, read anew on each call."""
        if source not in self.manifest.embedding_sources:
            raise DataError(f"pool has no embedding source {source!r}")
        return np.concatenate([np.zeros((0, self.embedding_dim), np.float32)] + [
            self.shard_embeddings(k, source) for k in range(self.manifest.num_shards)])

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
    layout = {shard_caption_name(k) for k in range(manifest.num_shards)} | {
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
    """Read every shard and sidecar once, as the commands do; never raises.
    Each refusal is one finding, naming the file that does not read (a bad
    checksum, shape, layout, repeated label or embedding row) or the repeated id."""
    report = ValidationReport()

    def read(kind: str, name: str, read_file, *args):
        try:
            return read_file(*args)
        except (FormatError, IntegrityError, OSError) as exc:
            report.findings.append(Finding(kind, str(exc), file=name))

    shards = (read("shard_error", shard_caption_name(k), handle.shard_columns, k)
              for k in range(handle.manifest.num_shards))
    try:
        CaptionTable.from_shards(filter(None, shards), handle.manifest.caption_labels)
    except IntegrityError as exc:  # the shards that read repeat an id
        report.findings.append(Finding("duplicate_id", str(exc)))
    for source in handle.manifest.embedding_sources:
        for k in range(handle.manifest.num_shards):
            read("sidecar_error", shard_embedding_name(k, source), handle.shard_embeddings,
                 k, source)
    return report


def _join_ranges(buffer, starts: np.ndarray, ends: np.ndarray) -> bytes:
    """``buffer[starts[i]:ends[i]]`` for every i, joined; gathered 2**16
    ranges at a time, so no index array spans the whole result."""
    data, lengths, parts = np.frombuffer(buffer, np.uint8), ends - starts, []
    for at in range(0, len(starts), 2**16):
        size = lengths[at : at + 2**16]
        index = np.repeat(starts[at : at + 2**16] - np.cumsum(size) + size, size)
        parts.append(data[index + np.arange(len(index))].tobytes())
    return b"".join(parts)


def materialize(
    handle: PoolHandle,
    curated,
    out_path: str | Path,
) -> PoolManifest:
    """Write the training pool a curated selection defines, by gathering
    columns.

    Each curated entry becomes one output record: the chosen caption is
    written as the raw caption, its text embedding as source "raw", and the
    source record id is kept in the ``prov`` column.  New ids are sequential
    so duplicated records (concatenation strategies) stay distinct.  A shard
    reads prov -1 as none, so a source id of -1 is refused.
    """
    prov = curated.ids()
    rows = handle.rows(prov)
    sources, captions = handle.caption_ids(rows, curated.entries[:, 1])
    if (bad := np.flatnonzero(prov == -1)).size:
        raise DataError(f"record {bad[0]}: prov -1 cannot be stored; a shard reads -1 as no "
                        "source record")
    table = handle.records()
    starts, ends = table.offsets[captions], table.offsets[captions + 1]
    image = handle.embeddings("image")[rows]
    text = np.empty_like(image)
    for source in np.unique(sources).tolist():
        at = sources == source
        text[at] = handle.embeddings(table.sources[source])[rows[at]]
    columns = ShardColumns(np.arange(len(rows)), prov, np.zeros((len(rows), 0), np.int16),
                           np.concatenate(([0], np.cumsum(ends - starts))),
                           _join_ranges(table.text, starts, ends))
    return write_pool(columns, [], {"image": image, "raw": text}, out_path,
                      records_per_shard=handle.manifest.records_per_shard)
