"""Caption-quality statistics: token counts, grounding ratio, n-gram
diversity and subset sampling.

Tokenization is fixed: NFC-normalize, lowercase, treat every character
outside [a-z0-9] as a separator.  Nouns are identified against a lexicon
file rather than a tagger, so all metrics are deterministic.

Every metric reads one ``CaptionFeatures`` object over a pool's UTF-8
caption bytes: each caption is tokenized once, in numpy, on the first
sample that needs it, into a word count, a grounded fraction and int token
ids.  A sample's statistics are then gathers over those arrays: an integer
word sum, a float sum in sample order, and distinct counts of the trigram
keys and noun token ids of its distinct captions, read a block of captions
at a time.
"""

from __future__ import annotations

import re
import unicodedata
from importlib import resources
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from . import fileio
from .errors import DataError, DomainError

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_DIRECT_KEY_VOCAB = 2**21  # the largest V whose trigram key (a*V + b)*V + c fits int64


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


def _windows(tokens: np.ndarray, lengths: np.ndarray,
             vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Each trigram window's bigram a*V + b and last token id c."""
    first = _window_starts(lengths)
    return tokens[first] * vocab_size + tokens[first + 1], tokens[first + 2]


def trigram_keys(tokens: np.ndarray, lengths: np.ndarray, vocab_size: int,
                 bigrams: np.ndarray | None = None) -> np.ndarray:
    """One int64 key per window of three consecutive token ids inside each
    text of ``tokens`` (texts concatenated, ``lengths`` tokens each); equal
    keys mean equal trigrams.  The key (a*V + b)*V + c fits int64 while
    V = vocab_size <= _DIRECT_KEY_VOCAB; past that, the bigram a*V + b is
    replaced by its rank in ``bigrams``, the sorted distinct bigrams of every
    call whose keys are compared (by default this call's), so keys stay
    below len(bigrams) * V."""
    bigram, last = _windows(tokens, lengths, vocab_size)
    if vocab_size > _DIRECT_KEY_VOCAB:
        bigram = np.searchsorted(_distinct(bigram) if bigrams is None else bigrams, bigram)
    return bigram * vocab_size + last


def _count_distinct(parts: list[np.ndarray]) -> int:
    """Distinct values among the parts: one in-place sort of their
    concatenation, then a count of the adjacent values that differ."""
    values = np.concatenate(parts)
    values.sort()
    return int(values.size and 1 + np.count_nonzero(values[1:] != values[:-1]))


class SampleStats(NamedTuple):
    word_sum: int
    ground_sum: float
    unique_trigrams: int
    unique_nouns: int


_CHUNK_BYTES = 1 << 17  # caption text tokenized per numpy pass; bounds its scratch arrays
_STATS_BLOCK = 1 << 14  # distinct captions per block of a sample's trigrams and nouns
_KEY_CHARS = 12  # token characters packed into one key, in base 37: 37**12 < 2**64
_LONG_KEY = 37**_KEY_CHARS  # keys from here on number the longer tokens
_HASH_MULTIPLIER = 0x9E3779B97F4A7C15  # 2**64 over the golden ratio: Fibonacci hashing
_NO_KEY = np.uint64(2**64 - 1)  # an empty hash slot's key, above every token key
_BYTE_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)  # the low k bytes
# a byte's base-37 digit: 1-10 for 0-9, 11-36 for a-z and A-Z, 0 for a separator
_DIGIT = np.zeros(256, np.uint8)
_DIGIT[np.frombuffer(b"0123456789abcdefghijklmnopqrstuvwxyz", np.uint8)] = np.arange(1, 37)
_DIGIT[np.frombuffer(b"ABCDEFGHIJKLMNOPQRSTUVWXYZ", np.uint8)] = np.arange(11, 37)


def _base37(words: np.ndarray) -> np.ndarray:
    """The eight base-37 digits in the bytes of each uint64, lowest byte
    first and most significant, as one number: adjacent lanes merge in
    three steps, each lane holding what its width can."""
    words = (words & 0x00FF00FF00FF00FF) * 37 + ((words >> 8) & 0x00FF00FF00FF00FF)
    words = (words & 0x0000FFFF0000FFFF) * 37**2 + ((words >> 16) & 0x0000FFFF0000FFFF)
    return (words & 0xFFFFFFFF) * 37**4 + (words >> 32)


def _fold(caption: bytes) -> bytes:
    """A non-ASCII caption as ``tokenize`` reads it: NFC and ``lower()``,
    then each non-ASCII character a '?'.  After those two steps no
    non-ASCII character is a token character, so the tokens are the same."""
    text = unicodedata.normalize("NFC", caption.decode("utf-8", "surrogatepass")).lower()
    return text.encode("ascii", "replace")


class CaptionFeatures:
    """Features of each caption of a UTF-8 buffer, caption i being
    ``text[offsets[i]:offsets[i + 1]]``, computed once, on demand.

    Per caption: its word count, the fraction of its tokens in ``vocab``, and
    its token ids, stored in one flat array at an offset.  Token ids number
    the distinct tokens as they are first seen; ``is_noun`` flags the ids in
    ``lexicon``.

    Captions are tokenized in numpy, about _CHUNK_BYTES of text at a time,
    exactly as ``tokenize`` would: an ASCII caption's tokens are its maximal
    runs of [A-Za-z0-9], lowercased, and a non-ASCII caption takes the scalar
    ``_fold`` first, once per distinct text: a repeat shares the features of
    its first caption.  Each token gets an exact key (up to _KEY_CHARS
    characters packed in base 37, a longer token a number from _LONG_KEY on),
    looked up in a hash table of the keys seen; only keys not seen before are
    decoded to strings.
    """

    def __init__(self, text: bytes | bytearray, offsets: np.ndarray, vocab: set[str],
                 lexicon: set[str]):
        self.vocab = vocab
        self.lexicon = lexicon
        self._text = np.frombuffer(text, np.uint8)
        self._bounds = np.asarray(offsets, np.int64)
        count = len(self._bounds) - 1
        self.words = np.full(count, -1, np.int32)  # -1: not computed yet
        self.grounded = np.zeros(count)
        self.offsets = np.zeros(count, np.int64)
        self.tokens = np.zeros(0, np.int32)
        self.is_noun = np.zeros(0, bool)
        self._is_visual = np.zeros(0, bool)
        self._keys = np.zeros(0, np.uint64)  # sorted keys of the tokens seen
        self._key_ids = np.zeros(0, np.int32)  # the token id of each key
        self._hash_table()
        self._long_keys: dict[bytes, int] = {}
        self._wide: dict[bytes, int] = {}  # each non-ASCII text: the first caption holding it

    def _fill(self, caption_ids: np.ndarray) -> None:
        """Compute the features of the captions not seen yet."""
        todo = _distinct(caption_ids[self.words[caption_ids] < 0])
        if not todo.size:
            return
        lens = self._bounds[todo + 1] - self._bounds[todo]
        parts = np.split(todo, np.flatnonzero(np.diff(np.cumsum(lens) // _CHUNK_BYTES)) + 1)
        repeats: list[tuple[int, int]] = []  # (caption, the first caption of its text)
        ids = [self._fill_chunk(part, repeats) for part in parts]
        self.offsets[todo] = len(self.tokens) + np.cumsum(self.words[todo]) - self.words[todo]
        self.tokens = np.concatenate((self.tokens, *ids))
        if repeats:
            repeat, first = np.array(repeats).T
            for column in (self.words, self.grounded, self.offsets):
                column[repeat] = column[first]

    def _fill_chunk(self, captions: np.ndarray, repeats: list[tuple[int, int]]) -> np.ndarray:
        """Word counts and grounded fractions of ``captions``; returns their
        token ids, concatenated.  A non-ASCII caption whose text was seen
        before gets no tokens here and is added to ``repeats``."""
        lens = self._bounds[captions + 1] - self._bounds[captions]
        at = np.cumsum(lens) - lens  # where each caption starts in the chunk
        text = self._text.take(np.repeat(self._bounds[captions] - at, lens) + np.arange(lens.sum()))
        wide = _distinct(np.searchsorted(at, np.flatnonzero(text >= 0x80), "right") - 1)
        raw = text.tobytes()
        if wide.size:  # the non-ASCII captions
            begins, stops = at[wide].tolist(), (at + lens)[wide].tolist()
            spans = list(zip(begins, stops, captions[wide].tolist()))
            seen = self._wide.setdefault
            # each text's first caption; the repeats of a text share its features
            owners = [seen(raw[begin:stop], c) for begin, stop, c in spans]
            folded = [_fold(raw[begin:stop]) if o == c else b""
                      for (begin, stop, c), o in zip(spans, owners)]
            repeats += [(c, o) for (_, _, c), o in zip(spans, owners) if o != c]
            pieces = [b""] * (2 * len(spans) + 1)  # the text between them, then each folded
            pieces[::2] = [raw[stop:begin]
                           for stop, begin in zip([0, *stops], [*begins, len(raw)])]
            pieces[1::2] = folded
            raw = b"".join(pieces)
            text = np.frombuffer(raw, np.uint8)
            lens[wide] = [len(f) for f in folded]
            at = np.cumsum(lens) - lens
        digits = _DIGIT.take(text)  # take: about twice as fast as [] here
        is_token = digits > 0
        heads, tails = is_token.copy(), is_token.copy()
        heads[1:] &= ~is_token[:-1]
        tails[:-1] &= ~is_token[1:]
        firsts = at[lens > 0]  # a caption start breaks a run
        lasts = firsts + lens[lens > 0] - 1
        heads[firsts], tails[lasts] = is_token[firsts], is_token[lasts]
        starts = np.flatnonzero(heads)
        sizes = np.flatnonzero(tails) + 1 - starts

        # a token's first _KEY_CHARS digits in base 37, from two 8-byte windows
        digits = np.concatenate((digits, np.zeros(16, np.uint8)))
        windows = np.ndarray((len(digits) - 7,), "<u8", digits, strides=(1,))
        head = windows[starts] & _BYTE_MASKS[np.minimum(sizes, 4)]
        rest = windows[starts + 4] & _BYTE_MASKS[np.clip(sizes - 4, 0, 8)]
        keys = _base37(head) * 37**4 + _base37(rest)
        long = np.flatnonzero(sizes > _KEY_CHARS)
        if long.size:
            index = self._long_keys
            keys[long] = _LONG_KEY + np.array(
                [index.setdefault(raw[start:end].lower(), len(index)) for start, end in
                 zip(starts[long].tolist(), (starts + sizes)[long].tolist())], np.uint64)
        ids = self._token_ids(keys, lambda i: raw[starts[i] : starts[i] + sizes[i]].lower()
                              .decode("ascii"))

        ends = np.searchsorted(starts, np.append(at, len(text)))  # each caption's tokens
        counts = np.diff(ends)
        visual = np.concatenate(([0], np.cumsum(self._is_visual[ids])))
        self.words[captions] = counts
        self.grounded[captions] = np.divide(visual[ends[1:]] - visual[ends[:-1]], counts,
                                            out=np.zeros(len(counts)), where=counts > 0)
        return ids

    def _hash_table(self) -> None:
        """Index the keys seen in a table of at least four slots per key, each
        slot holding the key hashed to it (one of them, if several are) and
        its token id, or ``_NO_KEY``."""
        size = 1 << (4 * len(self._keys)).bit_length()
        owner = np.full(size, -1, np.intp)  # -1 picks the appended empty slot
        owner[self._slots(self._keys, size)] = np.arange(len(self._keys))
        self._slot_keys = np.append(self._keys, _NO_KEY)[owner]
        self._slot_ids = np.append(self._key_ids, np.int32(0))[owner]

    @staticmethod
    def _slots(keys: np.ndarray, size: int) -> np.ndarray:
        """Each key's slot in a hash table of ``size`` (a power of two) slots:
        the top bits of the key times ``_HASH_MULTIPLIER``, modulo 2**64."""
        return (keys * np.uint64(_HASH_MULTIPLIER)) >> np.uint64(65 - size.bit_length())

    def _token_ids(self, keys: np.ndarray, token) -> np.ndarray:
        """Token id of each key; a key not seen before gets the next id, and
        ``token(i)`` gives the string of key i.  A key found in its hash slot
        takes the slot's id; the others (new keys, and keys another holds
        the slot of) go through ``_sorted_token_ids``."""
        slots = self._slots(keys, len(self._slot_keys))
        ids = self._slot_ids[slots]
        missed = np.flatnonzero(self._slot_keys[slots] != keys)
        if missed.size:
            ids[missed] = self._sorted_token_ids(keys[missed], lambda i: token(missed[i]))
        return ids

    def _sorted_token_ids(self, keys: np.ndarray, token) -> np.ndarray:
        """``_token_ids`` by a binary search of the sorted keys seen; new keys
        are added to them and to the hash table."""
        order = np.argsort(keys)  # sorted, the lookups run several times faster
        keys = keys[order]
        at = np.searchsorted(self._keys, keys)
        seen = at < len(self._keys)
        seen[seen] = self._keys[at[seen]] == keys[seen]
        if not seen.all():
            new = np.flatnonzero(~seen & np.concatenate(([True], keys[1:] != keys[:-1])))
            strings = [token(i) for i in order[new].tolist()]
            new_ids = np.arange(len(self.is_noun), len(self.is_noun) + len(new), dtype=np.int32)
            self.is_noun = np.append(self.is_noun, [t in self.lexicon for t in strings])
            self._is_visual = np.append(self._is_visual, [t in self.vocab for t in strings])
            self._keys = np.insert(self._keys, at[new], keys[new])
            self._key_ids = np.insert(self._key_ids, at[new], new_ids)
            self._hash_table()
            at = np.searchsorted(self._keys, keys)
        ids = np.empty(len(keys), np.int32)
        ids[order] = self._key_ids[at]
        return ids

    def token_ids(self, caption_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Token ids (int64) of the captions, concatenated, and each
        caption's length."""
        self._fill(caption_ids)
        lengths = self.words[caption_ids]
        at = np.repeat(self.offsets[caption_ids], lengths) + _positions_in_text(lengths)
        return self.tokens[at].astype(np.int64), lengths

    def _blocks(self, caption_ids: np.ndarray):
        """``token_ids`` of the captions, _STATS_BLOCK captions at a time (one
        block if there are none)."""
        for start in range(0, max(len(caption_ids), 1), _STATS_BLOCK):
            yield self.token_ids(caption_ids[start : start + _STATS_BLOCK])

    def sample_stats(self, caption_ids: np.ndarray) -> SampleStats:
        """Statistics of a caption sample given by caption index, in sample
        order.  Trigrams and nouns are read from its distinct captions block
        by block, so their scratch is bounded by _STATS_BLOCK captions; each
        block keeps only its distinct trigram keys and marks its nouns."""
        caption_ids = np.asarray(caption_ids, np.int64)
        distinct = _distinct(caption_ids)
        self._fill(distinct)
        size = len(self.is_noun)  # V: no token id is added from here on
        bigrams = None  # past _DIRECT_KEY_VOCAB, keys rank bigrams among the whole sample's
        if size > _DIRECT_KEY_VOCAB:
            bigrams = _distinct(np.concatenate([_distinct(_windows(tokens, lengths, size)[0])
                                                for tokens, lengths in self._blocks(distinct)]))
        trigrams, nouns = [], np.zeros(size, bool)
        for tokens, lengths in self._blocks(distinct):
            trigrams.append(_distinct(trigram_keys(tokens, lengths, size, bigrams)))
            nouns[tokens[self.is_noun[tokens]]] = True
        return SampleStats(
            word_sum=int(self.words[caption_ids].sum(dtype=np.int64)),
            ground_sum=ordered_sum(self.grounded[caption_ids]),
            unique_trigrams=_count_distinct(trigrams),
            unique_nouns=int(np.count_nonzero(nouns)),
        )


def _caption_stats(captions: Iterable[str], vocab=frozenset(), lexicon=frozenset()) -> SampleStats:
    texts = [c.encode("utf-8", "surrogatepass") for c in captions]
    offsets = np.cumsum([0, *map(len, texts)])
    return CaptionFeatures(b"".join(texts), offsets, vocab, lexicon).sample_stats(
        np.arange(len(texts)))


def unique_trigrams(captions: Iterable[str]) -> int:
    """Distinct consecutive 3-token windows across all captions."""
    return _caption_stats(captions).unique_trigrams


# ---------------------------------------------------------------------------
# subset sampling


def _partial_fisher_yates(n: int, total: int, seed: int) -> np.ndarray:
    """First n positions of a seeded Fisher-Yates shuffle of range(total)."""
    # one call draws the same stream as one rng.integers(i, total) per i
    targets = np.random.default_rng(seed).integers(np.arange(n), total)
    if not n:
        return targets
    # Step i swaps positions i and targets[i] >= i, so position i is final
    # after it and holds what targets[i] held just before: the original
    # value if no earlier step targeted it, else what the last such step j
    # took from position j.  That in turn is what position j held before
    # step j, found the same way.  Each lookup is a link to an earlier step;
    # pointer jumping follows the chains to their roots.
    steps = np.arange(n)
    keys = targets * n + steps  # by target, then step; exact while total * n < 2**63
    order = np.argsort(keys)
    keys, by_target = keys[order], targets[order]
    same = by_target[1:] == by_target[:-1]
    last_before = np.full(n, -1)  # the last earlier step with step i's target
    last_before[order[1:][same]] = order[:-1][same]
    at = np.searchsorted(keys, steps * n + steps) - 1  # the last step before j to target j
    source = np.where((at >= 0) & (by_target[at] == steps), order[at], steps)
    while True:
        root = source[source]
        if (root == source).all():
            break
        source = root
    return np.where(last_before >= 0, source[last_before], targets)


def sample_subset(total: int, n: int, seed: int) -> np.ndarray:
    """Uniform sample of n of ``total`` positions without replacement, sorted."""
    if n > total or n < 0:
        raise DomainError(f"cannot sample {n} of {total} entries")
    if n == total:  # a whole shuffle, sorted, is every position whatever the seed
        return np.arange(total)
    return np.sort(_partial_fisher_yates(n, total, seed))


# ---------------------------------------------------------------------------
# vocabulary files


def _parse_tokens(text: str, name: str | Path) -> set[str]:
    """One lowercase token per line; blank lines and # comments ignored.  A
    line that is no [a-z0-9]+ token could never match one, so it raises."""
    tokens = set()
    for number, line in enumerate(text.split("\n"), 1):
        word = line.strip()
        if word and not word.startswith("#"):
            if not _TOKEN_RE.fullmatch(word):
                raise DataError(f"{name}: line {number} is not a [a-z0-9]+ token: {word!r}")
            tokens.add(word)
    if not tokens:
        raise DataError(f"{name}: no tokens found")
    return tokens


def load_token_file(path: str | Path) -> set[str]:
    """The tokens of a vocabulary or lexicon file (see ``_parse_tokens``)."""
    # read_text turns \r and \r\n into \n, so these are the file's lines
    return _parse_tokens(fileio.read_text(path), path)


def _load_packaged(name: str) -> set[str]:
    text = resources.files("capforge").joinpath("data", name).read_text(encoding="utf-8")
    return _parse_tokens(text, name)


def default_visual_vocab() -> set[str]:
    return _load_packaged("visual_vocab.txt")


def default_noun_lexicon() -> set[str]:
    return _load_packaged("noun_lexicon.txt")
