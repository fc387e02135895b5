"""Caption-quality statistics: token counts, grounding ratio, n-gram
diversity, subset sampling, and diversity scaling curves.

Tokenization is fixed: NFC-normalize, lowercase, treat every character
outside [a-z0-9] as a separator.  Nouns are identified against a lexicon
file rather than a tagger, so all metrics are deterministic.

Every metric reads one ``CaptionFeatures`` object: each distinct caption
text is tokenized once, on the first sample that needs it, into a word
count, a grounded fraction and int token ids.  A sample's statistics are
then gathers over those arrays: an integer word sum, a float sum in sample
order, and distinct counts of the trigram keys and noun token ids of its
distinct texts.
"""

from __future__ import annotations

import re
import unicodedata
from array import array
from importlib import resources
from itertools import islice
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import fileio
from .curation import CuratedSet
from .errors import DataError, DomainError
from .pool import PoolHandle

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase [a-z0-9] token sequence of a caption."""
    return _TOKEN_RE.findall(unicodedata.normalize("NFC", text).lower())


def ordered_sum(values: np.ndarray) -> float:
    """Float64 sum added left to right from 0.0, as a Python loop adds;
    ``np.sum`` adds pairwise and can differ in the last bits."""
    return float(np.add.accumulate(values, dtype=np.float64)[-1]) if len(values) else 0.0


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values: ``np.unique`` by one sort, which for int64
    runs several times faster than numpy 2.4's hashed ``np.unique``."""
    ordered = np.sort(values)
    return ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))[: len(ordered)]]


def _positions_in_text(lengths: np.ndarray) -> np.ndarray:
    """Each token's position inside its text, for texts of ``lengths``
    tokens concatenated."""
    return np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def _window_starts(lengths: np.ndarray) -> np.ndarray:
    """Positions in texts concatenated (``lengths`` tokens each) where a
    window of three tokens inside one text starts."""
    return np.flatnonzero(_positions_in_text(lengths) < np.repeat(lengths - 2, lengths))


def trigram_keys(tokens: np.ndarray, lengths: np.ndarray, vocab_size: int) -> np.ndarray:
    """One int64 key per window of three consecutive token ids inside each
    text of ``tokens`` (texts concatenated, ``lengths`` tokens each); equal
    keys mean equal trigrams.  Bigrams are ranked first, so keys stay below
    windows * vocab_size rather than vocab_size**3."""
    first = _window_starts(lengths)
    _, bigram = np.unique(tokens[first] * vocab_size + tokens[first + 1], return_inverse=True)
    return bigram * vocab_size + tokens[first + 2]


class SampleStats(NamedTuple):
    word_sum: int
    ground_sum: float
    unique_trigrams: int
    unique_nouns: int


class CaptionFeatures:
    """Features of each text of ``texts``, computed once, on demand.

    Per text: its word count, the fraction of its tokens in ``vocab``, and
    its token ids, stored in one flat array at an offset.  Token ids number
    the distinct tokens in order of first appearance; ``is_noun`` flags the
    ids in ``lexicon``.
    """

    def __init__(self, texts: Sequence[str], vocab: set[str], lexicon: set[str]):
        self.texts = texts
        self.vocab = vocab
        self.lexicon = lexicon
        self.words = np.full(len(texts), -1, np.int64)  # -1: not computed yet
        self.grounded = np.zeros(len(texts))
        self.offsets = np.zeros(len(texts), np.int64)
        self.tokens = np.zeros(0, np.int64)
        self.is_noun = np.zeros(0, bool)
        self._is_visual = np.zeros(0, bool)
        self._token_ids: dict[str, int] = {}

    def _fill(self, text_ids: np.ndarray) -> None:
        """Compute the features of the texts not seen yet."""
        todo = _distinct(text_ids[self.words[text_ids] < 0])
        if not todo.size:
            return
        index = self._token_ids
        seen = len(index)
        ids, counts = array("q"), array("q")  # 8 bytes an id, where a list takes 36
        for text_id in todo.tolist():
            tokens = tokenize(self.texts[text_id])
            counts.append(len(tokens))
            ids.extend([index.setdefault(tok, len(index)) for tok in tokens])
        ids, counts = np.frombuffer(ids, np.int64), np.frombuffer(counts, np.int64)
        new = list(islice(index, seen, None))
        self.is_noun = np.append(self.is_noun, np.array([t in self.lexicon for t in new], bool))
        self._is_visual = np.append(self._is_visual, np.array([t in self.vocab for t in new], bool))
        ends = np.cumsum(counts)
        visual = np.concatenate(([0], np.cumsum(self._is_visual[ids])))
        self.words[todo] = counts
        self.grounded[todo] = np.divide(
            visual[ends] - visual[ends - counts], counts,
            out=np.zeros(len(counts)), where=counts > 0,
        )
        self.offsets[todo] = len(self.tokens) + ends - counts
        self.tokens = np.concatenate((self.tokens, ids))

    def token_ids(self, text_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Token ids of the texts, concatenated, and each text's length."""
        self._fill(text_ids)
        lengths = self.words[text_ids]
        at = np.repeat(self.offsets[text_ids], lengths) + _positions_in_text(lengths)
        return self.tokens[at], lengths

    def sample_stats(self, text_ids: np.ndarray) -> SampleStats:
        """Statistics of a caption sample given by text id, in sample order."""
        text_ids = np.asarray(text_ids, np.int64)
        tokens, lengths = self.token_ids(_distinct(text_ids))
        return SampleStats(
            word_sum=int(self.words[text_ids].sum()),
            ground_sum=ordered_sum(self.grounded[text_ids]),
            unique_trigrams=len(_distinct(trigram_keys(tokens, lengths, len(self.is_noun)))),
            unique_nouns=len(_distinct(tokens[self.is_noun[tokens]])),
        )


def _caption_stats(captions: Iterable[str], vocab=frozenset(), lexicon=frozenset()) -> SampleStats:
    texts = tuple(captions)
    return CaptionFeatures(texts, vocab, lexicon).sample_stats(np.arange(len(texts)))


def word_count(text: str) -> int:
    return _caption_stats([text]).word_sum


def grounding_ratio(text: str, vocab: set[str]) -> float:
    """Fraction of tokens that name a visual concept; 0 for empty captions."""
    if not vocab:
        raise DomainError("grounding ratio requires a nonempty vocabulary")
    return _caption_stats([text], vocab=vocab).ground_sum


def unique_trigrams(captions: Iterable[str]) -> int:
    """Distinct consecutive 3-token windows across all captions."""
    return _caption_stats(captions).unique_trigrams


def unique_nouns(captions: Iterable[str], noun_lexicon: set[str]) -> int:
    """Distinct lexicon tokens appearing across all captions."""
    if not noun_lexicon:
        raise DomainError("unique_nouns requires a nonempty lexicon")
    return _caption_stats(captions, lexicon=noun_lexicon).unique_nouns


# ---------------------------------------------------------------------------
# subset sampling


def _partial_fisher_yates(n: int, total: int, seed: int) -> np.ndarray:
    """First n positions of a seeded Fisher-Yates shuffle of range(total)."""
    # one call draws the same stream as one rng.integers(i, total) per i
    targets = np.random.default_rng(seed).integers(np.arange(n), total).tolist()
    idx = np.arange(total, dtype=np.int64)
    for i, j in enumerate(targets):
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:n]


def sample_subset(curated: CuratedSet, n: int, seed: int) -> CuratedSet:
    """Uniform sample of n entries without replacement, re-sorted."""
    total = len(curated.entries)
    if n > total or n < 0:
        raise DomainError(f"cannot sample {n} of {total} entries")
    chosen = _partial_fisher_yates(n, total, seed)
    return CuratedSet(
        entries=curated.entries[chosen], spec=curated.spec, tau_used=curated.tau_used
    )


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
    _, text_ids = handle.caption_ids(handle.rows(curated.ids()), curated.entries[:, 1])
    features = CaptionFeatures(handle.records().texts, frozenset(), noun_lexicon)
    # a distinct text enters the nested samples at its first position in order
    distinct, first = np.unique(text_ids[order], return_index=True)
    tokens, lengths = features.token_ids(distinct)
    owner = np.repeat(first, lengths)
    keys = trigram_keys(tokens, lengths, len(features.is_noun))
    key_owner = owner[_window_starts(lengths)]
    noun = features.is_noun[tokens]
    return [
        DiversityPoint(
            int(size),
            len(_distinct(keys[key_owner < size])),
            len(_distinct(tokens[noun & (owner < size)])),
        )
        for size in sizes
    ]


# ---------------------------------------------------------------------------
# vocabulary files


def load_token_file(path: str | Path) -> set[str]:
    """One lowercase token per line; blank lines and # comments ignored."""
    # read_text turns \r and \r\n into \n, so these are the file's lines
    lines = fileio.read_text(path).split("\n")
    tokens = {w for w in map(str.strip, lines) if w and not w.startswith("#")}
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
