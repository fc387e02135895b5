"""Shared test helpers: independent oracles and small pool builders.

The oracles deliberately avoid the library's code paths: selection uses a
plain stable sort over (score desc, id asc) and strategies are enumerated
with Python sets, so agreement with the fast implementations is meaningful.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from capforge.pool import CaptionVariant, Record, write_pool

RAW = -1


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


def oracle_trigrams(captions: list[str], tokenizer) -> int:
    """Brute-force unique trigram count via a string set."""
    seen: set[str] = set()
    for caption in captions:
        toks = tokenizer(caption)
        for i in range(len(toks) - 2):
            seen.add(" ".join(toks[i : i + 3]))
    return len(seen)


def unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    mat = rng.standard_normal((n, dim))
    return (mat / np.linalg.norm(mat, axis=1, keepdims=True)).astype(np.float32)


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
    manifest = write_pool(
        records, embeddings, out_dir, records_per_shard=records_per_shard
    )
    return manifest
