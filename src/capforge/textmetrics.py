"""Caption-quality statistics: token counts, grounding ratio, n-gram
diversity, subset sampling, and diversity scaling curves.

Tokenization is fixed: NFC-normalize, lowercase, treat every character
outside [a-z0-9] as a separator.  Nouns are identified against a lexicon
file rather than a tagger, so all metrics are deterministic.
"""

from __future__ import annotations

import re
import unicodedata
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .curation import CuratedSet
from .errors import DataError, DomainError
from .pool import PoolHandle

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase [a-z0-9] token sequence of a caption."""
    return _TOKEN_RE.findall(unicodedata.normalize("NFC", text).lower())


def word_count(text: str) -> int:
    return len(tokenize(text))


def grounding_ratio(text: str, vocab: set[str]) -> float:
    """Fraction of tokens that name a visual concept; 0 for empty captions."""
    if not vocab:
        raise DomainError("grounding ratio requires a nonempty vocabulary")
    return grounded_fraction(tokenize(text), vocab)


def grounded_fraction(tokens: Sequence[str], vocab: set[str]) -> float:
    """Fraction of `tokens` in `vocab`; 0 for no tokens."""
    if not tokens:
        return 0.0
    return sum(1 for t in tokens if t in vocab) / len(tokens)


def iter_trigrams(tokens: Sequence[str]) -> Iterator[tuple[str, str, str]]:
    for i in range(len(tokens) - 2):
        yield (tokens[i], tokens[i + 1], tokens[i + 2])


def unique_trigrams(captions: Iterable[str]) -> int:
    """Distinct consecutive 3-token windows across all captions."""
    seen: set[tuple[str, str, str]] = set()
    for caption in captions:
        seen.update(iter_trigrams(tokenize(caption)))
    return len(seen)


def unique_nouns(captions: Iterable[str], noun_lexicon: set[str]) -> int:
    """Distinct lexicon tokens appearing across all captions."""
    if not noun_lexicon:
        raise DomainError("unique_nouns requires a nonempty lexicon")
    seen: set[str] = set()
    for caption in captions:
        seen.update(t for t in tokenize(caption) if t in noun_lexicon)
    return len(seen)


# ---------------------------------------------------------------------------
# subset sampling


def _partial_fisher_yates(n: int, total: int, seed: int) -> np.ndarray:
    """First n positions of a seeded Fisher-Yates shuffle of range(total)."""
    rng = np.random.default_rng(seed)
    idx = np.arange(total, dtype=np.int64)
    for i in range(n):
        j = int(rng.integers(i, total))
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:n]


def sample_subset(curated: CuratedSet, n: int, seed: int) -> CuratedSet:
    """Uniform sample of n entries without replacement, re-sorted."""
    total = len(curated.entries)
    if n > total or n < 0:
        raise DomainError(f"cannot sample {n} of {total} entries")
    chosen = _partial_fisher_yates(n, total, seed) if total else np.zeros(0, np.int64)
    entries = [curated.entries[i] for i in chosen]
    return CuratedSet(entries=entries, spec=curated.spec, tau_used=curated.tau_used)


def entry_caption(handle: PoolHandle, entry: tuple[int, int]) -> str:
    """Caption text a curated entry selects."""
    rec_id, cap = entry
    return handle.caption(int(handle.rows([rec_id])[0]), cap)[1]


class DiversityPoint(NamedTuple):
    subset_size: int
    unique_trigrams: int
    unique_nouns: int


def diversity_curve(
    handle: PoolHandle,
    curated: CuratedSet,
    sizes: Sequence[int],
    seed: int,
    noun_lexicon: set[str],
) -> list[DiversityPoint]:
    """Diversity counts over nested random subsets of the curated captions.

    One seeded shuffle defines the sample order; each requested size is a
    prefix of it, so counts are nondecreasing in size by construction.
    """
    total = len(curated.entries)
    if not sizes:
        return []
    if list(sizes) != sorted(set(int(s) for s in sizes)):
        raise DomainError("sizes must be strictly increasing")
    if sizes[0] < 0 or sizes[-1] > total:
        raise DomainError(f"sizes must lie in [0, {total}]")
    if not noun_lexicon:
        raise DomainError("diversity_curve requires a nonempty lexicon")

    order = np.random.default_rng(seed).permutation(total)
    rows = handle.rows(curated.ids()).tolist()
    trigram_seen: set[tuple[str, str, str]] = set()
    noun_seen: set[str] = set()
    points: list[DiversityPoint] = []
    pos = 0
    for size in sizes:
        for i in order[pos:size].tolist():
            tokens = tokenize(handle.caption(rows[i], curated.entries[i][1])[1])
            trigram_seen.update(iter_trigrams(tokens))
            noun_seen.update(t for t in tokens if t in noun_lexicon)
        pos = size
        points.append(DiversityPoint(int(size), len(trigram_seen), len(noun_seen)))
    return points


# ---------------------------------------------------------------------------
# vocabulary files


def load_token_file(path: str | Path) -> set[str]:
    """One lowercase token per line; blank lines and # comments ignored."""
    tokens: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            word = line.strip()
            if word and not word.startswith("#"):
                tokens.add(word)
    if not tokens:
        raise DataError(f"{path}: no tokens found")
    return tokens


def _load_packaged(name: str) -> set[str]:
    text = resources.files("capforge").joinpath("data", name).read_text(encoding="utf-8")
    return {
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.startswith("#")
    }


def default_visual_vocab() -> set[str]:
    return _load_packaged("visual_vocab.txt")


def default_noun_lexicon() -> set[str]:
    return _load_packaged("noun_lexicon.txt")
