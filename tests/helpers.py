"""Shared test helpers: independent oracles and small pool builders.

The oracles deliberately avoid the library's code paths: selection uses a
plain stable sort over (score desc, id asc), strategies are enumerated
with Python sets, shards are decoded field by field with ``struct`` into
objects and embedding sidecars with ``struct`` and ``np.frombuffer``, so
agreement with the fast implementations is meaningful.
"""

from __future__ import annotations

import json
import math
import struct
import tracemalloc
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

from capforge import fileio
from capforge._words import BOILERPLATE_CAPTIONS, FILLER_WORDS, SYN_TEMPLATES, concept_word
from capforge.curation import KMeansStep
from capforge.errors import DataError, DomainError
from capforge.pool import (
    ShardColumns, decode_shard, encode_shard, variant_source_label, write_pool,
)
from capforge.poolgen import (
    _captioner_vocab,
    _template_cumulative,
    _zipf_cumulative,
    shard_rng,
)
from capforge.report import QualityReport
from capforge.textmetrics import sample_subset, tokenize

RAW = -1


CRC32C_POLY = 0x82F63B78  # reflected Castagnoli polynomial: pool formats 1 and 2
CRC32_POLY = 0xEDB88320  # reflected IEEE polynomial: zlib's CRC-32, pool format 3


def _crc_table(poly: int) -> list[int]:
    table = []
    for i in range(256):
        c = i
        for _ in range(8):
            c = (c >> 1) ^ (poly if c & 1 else 0)
        table.append(c)
    return table


_CRC_TABLES = {poly: _crc_table(poly) for poly in (CRC32C_POLY, CRC32_POLY)}


def scalar_crc(data: bytes, poly: int) -> int:
    """Reflected CRC of ``data`` byte by byte (init and final xor 0xFFFFFFFF)."""
    table = _CRC_TABLES[poly]
    reg = 0xFFFFFFFF
    for b in data:
        reg = table[(reg ^ b) & 0xFF] ^ (reg >> 8)
    return reg ^ 0xFFFFFFFF


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity, float64 accumulation, clamped to [-1, 1]."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise DomainError(f"dimension mismatch: {u.shape} vs {v.shape}")
    # Scaling by a power of two is exact: the result is unchanged wherever no
    # square underflowed or overflowed, and now none can (tiny or huge entries).
    u = np.ldexp(u, -np.frexp(np.abs(u).max(initial=0.0))[1])
    v = np.ldexp(v, -np.frexp(np.abs(v).max(initial=0.0))[1])
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise DomainError("cosine undefined for zero-norm input")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def oracle_top(scores: dict[int, float], p: float) -> tuple[set[int], float | None]:
    """Top floor(p*n/100) ids by score, ties to the lower id."""
    n = len(scores)
    k = math.floor(Fraction(str(p)) * n / 100)  # exact in p's decimal value
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    chosen = ranked[:k]
    if not chosen:
        return set(), None
    return {i for i, _ in chosen}, min(s for _, s in chosen)


def oracle_strategy(
    name: str,
    ids: list[int],
    raw: dict[int, float],
    syn: dict[int, float],
    p: float | None = None,
    var_of: dict[int, int] | None = None,
    in1k: set[int] | None = None,
) -> set[tuple[int, int]]:
    """Spec-semantics enumeration of a strategy's (id, caption) entry set."""

    def var(i: int) -> int:
        return var_of[i] if var_of is not None else 0

    if name == "raw_all":
        entries = {(i, RAW) for i in ids}
    elif name == "syn_all":
        entries = {(i, var(i)) for i in ids}
    elif name == "raw_top":
        top, _ = oracle_top(raw, p)
        entries = {(i, RAW) for i in top}
    elif name == "syn_top":
        top, _ = oracle_top(syn, p)
        entries = {(i, var(i)) for i in top}
    elif name == "syn_on_raw_top":
        top, _ = oracle_top(raw, p)
        entries = {(i, var(i)) for i in top}
    elif name == "raw_top_plus_syn_rest":
        top, _ = oracle_top(raw, p)
        entries = {(i, RAW) for i in top}
        entries |= {(i, var(i)) for i in ids if i not in top}
    elif name == "raw_top_plus_syn_rest_filtered":
        top, tau = oracle_top(raw, p)
        entries = {(i, RAW) for i in top}
        if tau is not None:
            entries |= {(i, var(i)) for i in ids if i not in top and syn[i] >= tau}
    elif name == "syn_top_plus_raw_rest_filtered":
        top, tau = oracle_top(syn, p)
        entries = {(i, var(i)) for i in top}
        if tau is not None:
            entries |= {(i, RAW) for i in ids if i not in top and raw[i] >= tau}
    elif name == "concat_top_plus_syn_rest_filtered":
        top, tau = oracle_top(raw, p)
        entries = {(i, RAW) for i in top} | {(i, var(i)) for i in top}
        if tau is not None:
            entries |= {(i, var(i)) for i in ids if i not in top and syn[i] >= tau}
    elif name == "union_top_raw_top_syn":
        rtop, _ = oracle_top(raw, p)
        stop, _ = oracle_top(syn, p)
        entries = {(i, RAW) for i in rtop} | {(i, var(i)) for i in stop}
    else:
        raise AssertionError(f"oracle does not know strategy {name!r}")

    if in1k is not None:
        entries = {(i, c) for i, c in entries if i in in1k}
    return entries


@dataclass(frozen=True)
class CaptionVariant:
    source_name: str
    temperature: float
    text: str


@dataclass
class Record:
    """One image-text sample plus its generated caption variants, as
    ``record_columns`` takes it (a shard keeps each variant's source label)."""

    id: int
    raw_caption: str
    synthetic_variants: list[CaptionVariant] = field(default_factory=list)
    prov: int | None = None  # source record id in materialized pools; -1 reads as None


def record_columns(records) -> tuple[ShardColumns, list[str]]:
    """The caption columns of ``records`` and the labels they index, built
    record by record: each variant's source label numbered in order of first
    appearance, every row padded with -1 to the most variants any record
    has, and each caption encoded as UTF-8 on its own."""
    index: dict[str, int] = {}
    labels = [[index.setdefault(variant_source_label(v.source_name, v.temperature), len(index))
               for v in r.synthetic_variants] for r in records]
    width = max(map(len, labels), default=0)
    texts = [text.encode("utf-8") for r in records
             for text in [r.raw_caption, *(v.text for v in r.synthetic_variants)]]
    columns = ShardColumns(
        np.array([r.id for r in records], np.int64),
        np.array([-1 if r.prov is None else r.prov for r in records], np.int64),
        np.array([row + [-1] * (width - len(row)) for row in labels], np.int64).reshape(
            len(records), width),
        np.cumsum([0, *map(len, texts)]), b"".join(texts))
    return columns, list(index)


def write_records(records, embeddings, out_path, **options):
    """``write_pool`` of ``record_columns(records)``."""
    return write_pool(*record_columns(records), embeddings, out_path, **options)


def materialize_by_records(handle, curated, out_path):
    """``materialize`` entry by entry: one ``Record`` per curated entry from
    ``entry_captions``, one embedding row copied for each, then
    ``write_records``.  Each source's matrix is read once, by
    ``read_sidecar_rows``."""
    records, text_rows, rows, matrices = [], [], [], {}
    entries = curated.entries.tolist()
    for new_id, ((rec_id, _), (row, source, caption)) in enumerate(
            zip(entries, entry_captions(handle.path, entries))):
        records.append(Record(id=new_id, raw_caption=caption, prov=rec_id))
        rows.append(row)
        if source not in matrices:
            matrices[source] = read_sidecar_rows(handle.path, source)
        text_rows.append(matrices[source][row])
    image = read_sidecar_rows(handle.path, "image")[rows]
    text = np.stack(text_rows) if text_rows else np.zeros_like(image)
    return write_records(records, {"image": image, "raw": text}, out_path,
                         records_per_shard=handle.manifest.records_per_shard)


def _variant(label: str, text: str) -> CaptionVariant:
    """The variant a ``syn.{name}.{temp:.2f}`` label stands for."""
    name, whole, frac = label.removeprefix("syn.").rsplit(".", 2)
    return CaptionVariant(name, float(f"{whole}.{frac}"), text)


def read_sidecar_rows(pool_dir, source: str) -> np.ndarray:
    """Every embedding row of one source, in pool order: each
    ``shard-NNNNN.{source}.f32`` unpacked here, its header (magic, dim, row
    count) with ``struct`` and its float32 payload with ``np.frombuffer``."""
    pool_dir = Path(pool_dir)
    manifest = json.loads((pool_dir / "manifest.json").read_text(encoding="utf-8"))
    parts = [np.zeros((0, manifest["embedding_dim"]), np.float32)]
    for k in range(manifest["num_shards"]):
        blob = (pool_dir / f"shard-{k:05d}.{source}.f32").read_bytes()
        assert blob[:4] == b"EMB1"
        dim, rows = struct.unpack_from("<IQ", blob, 4)
        assert len(blob) == 16 + 4 * rows * dim
        parts.append(np.frombuffer(blob, "<f4", offset=16).reshape(rows, dim))
    return np.concatenate(parts)


def read_records(pool_dir) -> list[Record]:
    """Every record of a pool, each shard unpacked with ``struct`` one column
    at a time, as objects.  A variant's name and temperature are
    read back from its label, so a temperature keeps two decimals."""
    pool_dir = Path(pool_dir)
    manifest = json.loads((pool_dir / "manifest.json").read_text(encoding="utf-8"))
    records = []
    for k in range(manifest["num_shards"]):
        blob = (pool_dir / f"shard-{k:05d}.cap").read_bytes()
        assert blob[:4] == b"CAP2"
        width, n = struct.unpack_from("<IQ", blob, 4)
        ids = struct.unpack_from(f"<{n}q", blob, 16)
        prov = struct.unpack_from(f"<{n}q", blob, 16 + 8 * n)
        flat = struct.unpack_from(f"<{n * width}h", blob, 16 + 16 * n)
        labels = [[j for j in flat[i * width : (i + 1) * width] if j >= 0] for i in range(n)]
        start = 16 + 16 * n + 2 * n * width
        count = n + sum(map(len, labels))
        offsets = struct.unpack_from(f"<{count + 1}Q", blob, start)
        start += 8 * (count + 1)
        assert start + offsets[-1] == len(blob)
        texts = iter([blob[start + a : start + b].decode("utf-8")
                      for a, b in zip(offsets, offsets[1:])])
        for i in range(n):
            raw = next(texts)
            records.append(Record(
                id=ids[i],
                raw_caption=raw,
                synthetic_variants=[
                    _variant(manifest["caption_labels"][j], next(texts)) for j in labels[i]],
                prov=None if prov[i] == -1 else prov[i],
            ))
    return records


def record_captions(records) -> list[tuple[int, list[tuple[str, str]]]]:
    """Each record's id and the (source label, text) of its raw caption and
    then of each variant."""
    return [
        (r.id, [("raw", r.raw_caption)] + [
            (variant_source_label(v.source_name, v.temperature), v.text)
            for v in r.synthetic_variants
        ])
        for r in records
    ]


def entry_captions(pool_dir, entries) -> list[tuple[int, str, str]]:
    """(pool row, source label, text) of each curated (id, caption choice)
    entry, looked up one at a time in ``read_records``.  The first unknown
    id, else the first choice its record lacks, is the DataError that
    ``PoolHandle`` raises for it."""
    records = read_records(pool_dir)
    row_of = {r.id: row for row, r in enumerate(records)}
    for rec_id, _ in entries:
        if rec_id not in row_of:
            raise DataError(f"curated entry references unknown record id {rec_id}")
    found = []
    for rec_id, cap in entries:
        row = row_of[rec_id]
        [(_, captions)] = record_captions([records[row]])
        if not -1 <= cap < len(captions) - 1:
            raise DataError(f"curated entry references variant {cap} of record {rec_id} "
                            f"which has {len(captions) - 1} variants")
        found.append((row, *captions[cap + 1]))
    return found


def handle_captions(handle) -> list[tuple[int, list[tuple[str, str]]]]:
    """``record_captions`` as a pool handle's caption table reads them: one
    ``caption_ids`` call over every caption choice its records hold."""
    table = handle.records()
    held = [(row, cap) for row in range(len(table))
            for cap in range(-1, int((table.labels[row] >= 0).sum()))]
    rows, caps = np.array(held, np.int64).reshape(-1, 2).T
    sources, numbers = handle.caption_ids(rows, caps)
    captions: list[list[tuple[str, str]]] = [[] for _ in range(len(table))]
    for row, source, i in zip(rows.tolist(), sources.tolist(), numbers.tolist()):
        text = table.text[table.offsets[i] : table.offsets[i + 1]].decode()
        captions[row].append((table.sources[source], text))
    return list(zip(table.ids.tolist(), captions))


class VariantScores(NamedTuple):
    record_id: int
    scores: list[float]  # aligned with the record's synthetic_variants


def variant_scores(handle, record_index: int) -> VariantScores:
    """Cosine of each synthetic variant of one record against its image."""
    rec = read_records(handle.path)[record_index]
    if not rec.synthetic_variants:
        raise DataError(f"record {rec.id} has no synthetic variants")
    image = read_sidecar_rows(handle.path, "image")[record_index]
    scores = []
    for variant in rec.synthetic_variants:
        label = variant_source_label(variant.source_name, variant.temperature)
        scores.append(cosine(image, read_sidecar_rows(handle.path, label)[record_index]))
    return VariantScores(record_id=rec.id, scores=scores)


def select_best_variant(handle, record_index: int) -> int:
    """Index of the record's highest-scoring variant; ties go to the lowest."""
    return int(np.argmax(variant_scores(handle, record_index).scores))


def pairs(curated) -> list[tuple[int, int]]:
    """A curated set's (id, caption choice) entries as a list of tuples."""
    return list(map(tuple, curated.entries.tolist()))


def write_checked_curated(path, entries, /, **header) -> bytes:
    """Write, and return, a curated file of ``entries`` ((id, caption choice)
    pairs, in the order given, repeats kept), one compact JSON line each,
    under a ``raw_all`` header whose fields ``header`` replaces or adds to.
    Its ``"crc32"`` is the one ``read_curated`` checks: zlib's CRC-32 of the
    other header fields as compact JSON, then the entries as little-endian
    int64.  So a hand-made file reaches the checks that come after it."""
    header = {"strategy": "raw_all", "tau_used": None, "entries": len(entries),
              "spec": {"name": "raw_all"}, **header}
    header.pop("crc32", None)
    fields = json.dumps(header, ensure_ascii=False, separators=(",", ":")).encode()
    words = [value for entry in entries for value in entry]
    header["crc32"] = f"{zlib.crc32(fields + struct.pack(f'<{len(words)}q', *words)):08x}"
    lines = [header] + [{"id": i, "cap": "raw" if c == RAW else c} for i, c in entries]
    blob = "".join(json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n"
                   for obj in lines).encode()
    Path(path).write_bytes(blob)
    return blob


def scalar_fisher_yates(n: int, total: int, seed: int) -> list[int]:
    """First n positions of a Fisher-Yates shuffle of range(total), one
    rng.integers(i, total) call per swap."""
    rng = np.random.default_rng(seed)
    idx = list(range(total))
    for i in range(n):
        j = int(rng.integers(i, total))
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:n]


def oracle_kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding with one exact distance pass per centre, drawing
    from the generator in the order ``kmeans_trace``'s init must."""
    n = points.shape[0]
    centers = [points[int(rng.integers(n))].copy()]
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


def oracle_kmeans_trace(points: np.ndarray, params):
    """Lloyd iterations with one exact distance column per centroid.

    The per-centroid form ``kmeans_trace`` must match bit for bit, with the
    same init draws, update, empty-cluster re-seeding and stopping rule.
    The init is ``oracle_kmeans_pp_init`` and the update ``np.add.at``, so no
    step shares the library's code.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    centroids = oracle_kmeans_pp_init(points, params.k, np.random.default_rng(params.seed))

    def assign():
        dists = np.empty((n, params.k))
        for j in range(params.k):
            dists[:, j] = ((points - centroids[j]) ** 2).sum(axis=1)
        assignments = np.argmin(dists, axis=1)
        return assignments, dists[np.arange(n), assignments]

    prev_sse = None
    for iteration in range(params.max_iters):
        assignments, min_dists = assign()
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
    assignments, min_dists = assign()
    yield KMeansStep(params.max_iters, centroids.copy(), assignments, float(min_dists.sum()))


def traced_peak(fn, *args):
    """``fn(*args)`` and the most bytes that Python objects and numpy arrays
    allocated during the call held at once, by ``tracemalloc``."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def oracle_trigrams(captions: list[str], tokenizer) -> int:
    """Brute-force unique trigram count via a string set."""
    seen: set[str] = set()
    for caption in captions:
        toks = tokenizer(caption)
        for i in range(len(toks) - 2):
            seen.add(" ".join(toks[i : i + 3]))
    return len(seen)


def oracle_quality_report(handle, curated, get_table, *, vocab, lexicon, sample_size, seed):
    """A report row caption by caption: every entry's caption and score
    looked up one at a time, its sample tokenized caption by caption, float
    sums added left to right, trigrams and nouns collected in sets."""
    cos_sum = 0.0
    clip_sum = 0.0
    for row, label, _ in entry_captions(handle.path, curated.entries.tolist()):
        score = float(get_table(label).scores[row])
        cos_sum += score
        clip_sum += 2.5 * max(score, 0.0)
    count = len(curated.entries)

    n_sample = min(sample_size, count)
    sample = curated.entries[sample_subset(count, n_sample, seed)]
    word_sum = 0
    ground_sum = 0.0
    trigrams: set[tuple[str, str, str]] = set()
    nouns: set[str] = set()
    for _, _, caption in entry_captions(handle.path, sample.tolist()):
        tokens = tokenize(caption)
        word_sum += len(tokens)
        if tokens:
            ground_sum += sum(1 for t in tokens if t in vocab) / len(tokens)
        trigrams.update(zip(tokens, tokens[1:], tokens[2:]))
        nouns.update(t for t in tokens if t in lexicon)
    return QualityReport(
        strategy=curated.spec.name,
        entries=count,
        tau_used=curated.tau_used,
        mean_cosine=cos_sum / count if count else 0.0,
        mean_clip_s=clip_sum / count if count else 0.0,
        mean_word_count=word_sum / n_sample if n_sample else 0.0,
        mean_grounding_ratio=ground_sum / n_sample if n_sample else 0.0,
        unique_trigrams=len(trigrams),
        unique_nouns=len(nouns),
        sample_size=n_sample,
        sample_seed=seed,
    )


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


def oracle_shard_records(config, shard_index: int, size: int) -> list[Record]:
    """A generated shard's records one by one: concept ids deduplicated by
    ``dict.fromkeys``, each raw caption shuffled by its own stable argsort
    and each variant rendered slot by slot.  The draws are the generator's,
    in its order; the embedding draws only advance the stream."""
    rng = shard_rng(config.seed, shard_index)
    zipf_cum = _zipf_cumulative(config.concept_vocab_size, config.zipf_exponent)
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

    rcounts = np.minimum([len(c) for c in concepts], 1 + r_extra)
    order_keys = rng.random(int((rcounts + fcounts).sum()))
    rng.normal(config.raw_alignment_mean, config.raw_alignment_sd, size)
    rng.standard_normal((size, dim))
    t_idx = []
    for src in config.syn_sources:
        _, tcum = _template_cumulative(src.diversity_factor)
        t_idx.append(np.searchsorted(tcum, rng.random(size), side="right"))
        rng.normal(config.syn_alignment_mean, config.syn_alignment_sd, size)
        rng.standard_normal((size, dim))

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
        for src, t in zip(config.syn_sources, t_idx):
            text = _render_syn(
                SYN_TEMPLATES[int(t[i])],
                concepts[i],
                _captioner_vocab(src.diversity_factor),
            )
            variants.append(CaptionVariant(src.source_name, src.temperature, text))
        records.append(Record(id=base_id + i, raw_caption=raw_caption, synthetic_variants=variants))
    return records


def unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    mat = rng.standard_normal((n, dim))
    return (mat / np.linalg.norm(mat, axis=1, keepdims=True)).astype(np.float32)


# One sidecar of a 5-record dim-4 pool replaced by a matrix of another shape
# under a matching checksum: case -> (records_per_shard, file, shape).
RESHAPED_SIDECARS = {
    "raw_4_rows": (5, "shard-00000.raw.f32", (4, 4)),
    "raw_dim_3": (5, "shard-00000.raw.f32", (5, 3)),
    "image_dim_3": (5, "shard-00000.image.f32", (5, 3)),
    "second_image_dim_3": (3, "shard-00001.image.f32", (2, 3)),
}


def write_reshaped_pool(out_dir, case: str) -> str:
    """Write the pool ``RESHAPED_SIDECARS[case]`` describes; returns the file
    it replaced."""
    records_per_shard, victim, shape = RESHAPED_SIDECARS[case]
    rng = np.random.default_rng(0)
    write_records([Record(i, f"raw {i}") for i in range(5)],
                  {s: unit_rows(rng, 5, 4) for s in ("image", "raw")}, out_dir,
                  records_per_shard=records_per_shard)
    replace_pool_file(out_dir, victim, fileio.encode_embeddings(unit_rows(rng, *shape)))
    return victim


def replace_pool_file(pool_dir, name: str, blob: bytes) -> None:
    """Replace a pool file by ``blob`` under a matching manifest checksum."""
    (Path(pool_dir) / name).write_bytes(blob)
    manifest_path = Path(pool_dir) / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["checksums"][name] = fileio.crc32c_hex(blob)
    manifest_path.write_text(json.dumps(manifest))


def break_pool(pool_dir, violation: str, k: int, row: int, what) -> None:
    """Rewrite one file of a valid pool as an encoder would write it, under a
    matching checksum, to break one pool invariant at ``row`` of shard ``k``:
    "id" gives the record id ``what``; "label" lists its second variant label
    in place of its first; "source" drops caption label ``what`` and its
    sidecars from the manifest; "raw" renames caption label ``what`` to
    "raw" in the manifest; "zero" zeroes the row of sidecar source ``what``,
    and "nan" or "inf" sets its entry 0 to NaN or -infinity."""
    pool_dir = Path(pool_dir)
    shard = f"shard-{k:05d}.cap"
    if violation in ("id", "label"):
        ids, labels, offsets, text = decode_shard(
            (pool_dir / shard).read_bytes(), context=shard, num_labels=2**15 - 1)
        if violation == "id":
            ids[row] = what
        else:
            labels[row, 0] = labels[row, 1]
        replace_pool_file(pool_dir, shard, encode_shard(
            ShardColumns(ids, np.full(len(ids), -1), labels, offsets, text)))
    elif violation == "source":
        manifest = json.loads((pool_dir / "manifest.json").read_text())
        manifest["embedding_sources"].remove(what)
        for name in [name for name in manifest["checksums"] if f".{what}." in name]:
            del manifest["checksums"][name]
            (pool_dir / name).unlink()
        (pool_dir / "manifest.json").write_text(json.dumps(manifest))
    elif violation == "raw":
        manifest = json.loads((pool_dir / "manifest.json").read_text())
        labels = manifest["caption_labels"]
        labels[labels.index(what)] = "raw"
        (pool_dir / "manifest.json").write_text(json.dumps(manifest))
    else:
        name = f"shard-{k:05d}.{what}.f32"
        mat = fileio.read_embeddings(pool_dir / name).copy()
        mat[row, slice(None) if violation == "zero" else 0] = {
            "zero": 0.0, "nan": np.nan, "inf": -np.inf}[violation]
        replace_pool_file(pool_dir, name, fileio.encode_embeddings(mat))


class BrokenPool(NamedTuple):
    violation: str  # and `what`: as ``break_pool`` takes them
    what: object
    file: str  # the file it rewrites
    read_error: str  # what reading that file raises
    write_error: str  # the DataError of ``write_pool`` on the same record


# A 5-record dim-4 pool at two records a shard, every record listing variants
# "syn.a.1.00" and "syn.b.1.00", with pool row 3 (row 1 of shard 1) broken.
BROKEN_POOLS = {
    "repeated_id": BrokenPool("id", 1, "shard-00001.cap", "id 1 appears more than once",
                              "id 1 appears more than once"),
    "repeated_label": BrokenPool("label", None, "shard-00001.cap",
                                 "shard-00001.cap: row 1 lists a variant label twice",
                                 "captions: row 3 lists a variant label twice"),
    "label_without_embeddings": BrokenPool(
        "source", "syn.b.1.00", "manifest.json",
        "manifest.json: manifest field 'caption_labels' lists 'syn.b.1.00', which "
        "'embedding_sources' lacks", "manifest.json: manifest field 'caption_labels' lists "
        "'syn.b.1.00', which 'embedding_sources' lacks"),
    "raw_label": BrokenPool(
        "raw", "syn.b.1.00", "manifest.json",
        "manifest.json: manifest field 'caption_labels' lists 'raw', which names the raw "
        "captions' source", "manifest.json: manifest field 'caption_labels' lists 'raw', "
        "which names the raw captions' source"),
    "zero_row": BrokenPool("zero", "raw", "shard-00001.raw.f32",
                           "shard-00001.raw.f32: zero-norm embedding at pool row 3",
                           "source raw: zero-norm embedding at row 3"),
}


def broken_pool_inputs(case: str | None):
    """(columns, caption labels, embeddings) for ``write_pool``: valid for
    case None, else breaking ``BROKEN_POOLS[case]``'s invariant in record 3,
    or for "raw_label" in the caption labels."""
    rng = np.random.default_rng(0)
    records = [Record(i, f"raw {i}", [CaptionVariant("a", 1.0, f"a {i}"),
                                      CaptionVariant("b", 1.0, f"b {i}")]) for i in range(5)]
    embeddings = {s: unit_rows(rng, 5, 4) for s in ("image", "raw", "syn.a.1.00", "syn.b.1.00")}
    if case == "repeated_id":
        records[3].id = 1
    elif case == "repeated_label":
        records[3].synthetic_variants[0] = CaptionVariant("b", 1.0, "b again")
    elif case == "label_without_embeddings":
        del embeddings["syn.b.1.00"]
    elif case == "zero_row":
        embeddings["raw"][3] = 0.0
    columns, labels = record_columns(records)
    if case == "raw_label":
        labels[labels.index("syn.b.1.00")] = "raw"
    return columns, labels, embeddings


def write_broken_pool(out_dir, case: str) -> None:
    """The valid pool of ``broken_pool_inputs``, then ``BROKEN_POOLS[case]``'s
    rewrite."""
    write_pool(*broken_pool_inputs(None), out_dir, records_per_shard=2)
    break_pool(out_dir, BROKEN_POOLS[case].violation, 1, 1, BROKEN_POOLS[case].what)


def set_sidecar_entry(pool_dir, name: str, row: int, value: float) -> None:
    """Set entry 0 of ``row`` in embedding sidecar ``name`` to ``value``,
    under a matching checksum."""
    mat = fileio.read_embeddings(Path(pool_dir) / name).copy()
    mat[row, 0] = value
    replace_pool_file(pool_dir, name, fileio.encode_embeddings(mat))


def write_nan_raw_pool(out_dir) -> None:
    """A 5-record dim-4 pool whose ``shard-00000.raw.f32`` holds a NaN in row 2."""
    rng = np.random.default_rng(0)
    write_records([Record(i, f"raw {i}") for i in range(5)],
                  {s: unit_rows(rng, 5, 4) for s in ("image", "raw")}, out_dir)
    set_sidecar_entry(out_dir, "shard-00000.raw.f32", 2, np.nan)


def build_plain_pool(
    out_dir,
    n: int,
    *,
    dim: int = 8,
    variants: list[tuple[str, float]] = (("blip2", 0.75),),
    records_per_shard: int = 50,
    seed: int = 0,
):
    """Pool with arbitrary unit embeddings; scores get injected separately."""
    rng = np.random.default_rng(seed)
    records = [
        Record(
            id=i,
            raw_caption=f"raw caption {i}",
            synthetic_variants=[
                CaptionVariant(src, temp, f"syn {src} {temp} {i}")
                for src, temp in variants
            ],
        )
        for i in range(n)
    ]
    embeddings = {"image": unit_rows(rng, n, dim), "raw": unit_rows(rng, n, dim)}
    for src, temp in variants:
        embeddings[f"syn.{src}.{temp:.2f}"] = unit_rows(rng, n, dim)
    return write_records(records, embeddings, out_dir, records_per_shard=records_per_shard)
