from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capforge import textmetrics
from capforge.cli import cli_main
from capforge.curation import CuratedSet, StrategySpec, apply_strategy, write_curated
from capforge.errors import DataError, DomainError
from capforge.textmetrics import (
    _caption_stats,
    _partial_fisher_yates,
    CaptionFeatures,
    default_noun_lexicon,
    default_visual_vocab,
    load_token_file,
    sample_subset,
    tokenize,
    trigram_keys,
    unique_trigrams,
)
from capforge.pool import variant_source_label
from capforge.report import MetricConfig, build_quality_report, caption_features
from capforge.scoring import ScoreTables
from helpers import (
    RAW, entry_captions, oracle_quality_report, oracle_trigrams, read_records,
    scalar_fisher_yates, traced_peak,
)


def test_tokenize_paper_caption():
    assert tokenize("Italien - Ligurien") == ["italien", "ligurien"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_punctuation_and_digits():
    assert tokenize("C240 sedan, Leather!") == ["c240", "sedan", "leather"]


def test_tokenize_unicode_nfc():
    # decomposed e + combining acute normalizes, then drops to separator
    assert tokenize("café dog") == ["caf", "dog"]
    assert tokenize("Ünal") == ["nal"]


@given(st.text(max_size=60))
@settings(max_examples=200, deadline=None)
def test_tokenize_idempotent_on_own_output(text):
    tokens = tokenize(text)
    assert tokenize(" ".join(tokens)) == tokens


def _grounding_ratio(text: str, vocab: set[str]) -> float:
    """Fraction of ``tokenize``'s tokens in ``vocab``; 0 for no tokens."""
    tokens = tokenize(text)
    return sum(t in vocab for t in tokens) / len(tokens) if tokens else 0.0


def _unique_nouns(captions: list[str], lexicon: set[str]) -> int:
    """Distinct ``tokenize`` tokens of the captions that are in ``lexicon``."""
    return len({t for c in captions for t in tokenize(c) if t in lexicon})


def test_word_count_examples():
    for text, words in [("", 0), ("a white button with the word more info", 8), ("single", 1)]:
        assert _caption_stats([text]).word_sum == len(tokenize(text)) == words


def test_grounding_ratio_examples():
    for text, ratio in [("a red dog runs", 0.5), ("dog red", 1.0), ("", 0.0)]:
        got = _caption_stats([text], vocab={"dog", "red"}).ground_sum
        assert got == _grounding_ratio(text, {"dog", "red"}) == ratio


@pytest.mark.parametrize("field", ["vocab", "lexicon"])
def test_caption_features_refuse_an_empty_vocabulary_or_lexicon(gen_pool, field):
    with pytest.raises(DomainError, match="nonempty"):
        caption_features(gen_pool, MetricConfig(**{field: set()}))


def test_unique_trigrams_examples():
    assert unique_trigrams(["a b c d"]) == 2
    assert unique_trigrams(["a b"]) == 0
    assert unique_trigrams(["a b c", "a b c"]) == 1


def test_unique_trigrams_matches_bruteforce_oracle():
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(30)]
    captions = [
        " ".join(rng.choice(words, size=rng.integers(0, 9)))
        for _ in range(400)
    ]
    assert unique_trigrams(captions) == oracle_trigrams(captions, tokenize)


def test_unique_trigrams_union_monotone():
    rng = np.random.default_rng(1)
    words = [f"w{i}" for i in range(12)]
    captions = [" ".join(rng.choice(words, size=5)) for _ in range(120)]
    for _ in range(20):
        cut = int(rng.integers(1, len(captions)))
        a, b = captions[:cut], captions[cut:]
        whole = unique_trigrams(captions)
        assert whole >= max(unique_trigrams(a), unique_trigrams(b))


@pytest.mark.parametrize("vocab_size", [2**21 + 2, 2**22 + 5, 2**31])
def test_trigram_keys_exact_for_token_ids_past_2_21(vocab_size):
    """(a*V + b)*V + c wraps int64 once V >= 2**21; the ranked key does not."""
    rng = np.random.default_rng(vocab_size)
    ids = np.array([0, 1, 2**21 - 1, 2**21, 2**21 + 1, vocab_size - 1], np.int64)
    lengths = rng.integers(0, 7, size=300)
    tokens = rng.choice(ids, size=int(lengths.sum()))
    expected, pos = set(), 0
    for n in lengths.tolist():
        text = tokens[pos : pos + n].tolist()
        expected.update(zip(text, text[1:], text[2:]))
        pos += n
    keys = trigram_keys(tokens, lengths, vocab_size)
    assert np.unique(keys).size == len(expected)
    assert keys.size == int(np.maximum(lengths - 2, 0).sum())


@settings(max_examples=300, deadline=None)
@given(
    captions=st.lists(st.lists(st.sampled_from(["a", "b", "c", "dd"]), max_size=7).map(" ".join),
                      max_size=12),
    block=st.sampled_from([1, 2, 3]),
    direct=st.sampled_from([0, 1, 3]),
    data=st.data(),
)
def test_sample_stats_blocks_count_as_one_sample(captions, block, direct, data):
    """Trigram keys and nouns of blocks of a few captions compare across
    blocks, also where V exceeds the direct-key limit and bigrams are ranked."""
    texts = [c.encode() for c in captions]
    sample = data.draw(st.lists(st.integers(0, len(captions) - 1), max_size=20)
                       if captions else st.just([]))
    picked = [captions[i] for i in sample]
    lexicon = {"a", "dd"}

    def stats():
        features = CaptionFeatures(b"".join(texts), np.cumsum([0, *map(len, texts)]), set(),
                                   lexicon)
        return features.sample_stats(np.array(sample, np.int64))

    default = stats()
    with mock.patch.multiple(textmetrics, _STATS_BLOCK=block, _DIRECT_KEY_VOCAB=direct):
        blocked = stats()
    assert blocked == default
    assert blocked.unique_trigrams == oracle_trigrams(picked, tokenize)
    assert blocked.unique_nouns == _unique_nouns(picked, lexicon)


def test_sample_stats_scratch_is_bounded_by_its_blocks():
    """200k captions of 8 tokens: the call, tokenizing included, peaks below
    24 bytes per token; int64 trigram keys over the whole sample take about 43."""
    rng = np.random.default_rng(0)
    words = [b"w%d" % i for i in range(2000)]
    texts = [b" ".join([words[i] for i in row]) for row in rng.integers(0, 2000, (200_000, 8))
             .tolist()]
    features = CaptionFeatures(b"".join(texts), np.cumsum([0, *map(len, texts)]), {"w1"}, {"w2"})
    stats, peak = traced_peak(features.sample_stats, np.arange(len(texts)))
    assert stats.word_sum == 8 * len(texts)
    assert peak < 24 * stats.word_sum


def test_caption_features_fill_only_the_texts_asked_for():
    texts = [b"a red dog", b"dog", b"", b"red red red red", b"a red dog"]
    features = CaptionFeatures(b"".join(texts), np.cumsum([0, *map(len, texts)]), {"red"}, {"dog"})
    stats = features.sample_stats(np.array([1, 1, 2]))
    assert features.words.tolist() == [-1, 1, 0, -1, -1]
    assert stats == (2, 0.0, 0, 1)
    stats = features.sample_stats(np.array([4, 0, 3]))
    assert features.words.tolist() == [3, 1, 0, 4, 3]
    assert stats.word_sum == 10
    assert stats.ground_sum == 1 / 3 + 1 / 3 + 1.0
    assert (stats.unique_trigrams, stats.unique_nouns) == (2, 1)


# caption pieces: arbitrary Unicode, the characters where NFC, lower() or
# the ASCII fast path could disagree with ``tokenize``, and token runs of the
# lengths around the 8-byte windows and the 12 characters one key packs
_PIECES = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["A", "Z9", "\0", "\n", " ", "-", "?", "é", "e\u0301", "\u0301", "Σ",
                     "\u212a", "\u0130", "ＦＵＬＬ", "ﬁ", "ß", "\u0131", "\U0001f600"]),
    st.builds(str.__mul__, st.sampled_from("aZ7é"), st.sampled_from([8, 9, 12, 13, 17, 100])),
    st.text("abyzABYZ0189", min_size=1, max_size=20),
)


@settings(max_examples=300, deadline=None)
@given(
    captions=st.lists(st.lists(_PIECES, max_size=6).map("".join), max_size=25),
    chunk=st.sampled_from([1, 5, 64, 1 << 17]),
    multiplier=st.sampled_from([textmetrics._HASH_MULTIPLIER, 0]),
    data=st.data(),
)
def test_caption_features_tokenize_as_tokenize_does(captions, chunk, multiplier, data):
    """With a hash multiplier of 0, every key hashes to one slot, so all keys
    but that slot's go through the sorted search."""
    if captions:  # repeats, so non-ASCII texts are met again, in the same chunk or a later one
        captions += data.draw(st.lists(st.sampled_from(captions), max_size=10))
    texts = [c.encode("utf-8") for c in captions]
    vocab, lexicon = {"a", "zzzzzzzzzzzzz", "9999", "k", "i"}, {"aaaaaaaa", "z9", "ss", "fi"}
    features = CaptionFeatures(b"".join(texts), np.cumsum([0, *map(len, texts)]), vocab, lexicon)
    # fill a few captions first, so later fills meet tokens seen before
    first = data.draw(st.lists(st.integers(0, max(len(captions) - 1, 0)), max_size=5))
    ids: dict[str, int] = {}
    with mock.patch.object(textmetrics, "_CHUNK_BYTES", chunk), \
            mock.patch.object(textmetrics, "_HASH_MULTIPLIER", multiplier):
        features.token_ids(np.array(first if captions else [], np.int64))
        for i, caption in enumerate(captions):
            tokens, lengths = features.token_ids(np.array([i]))
            want = tokenize(caption)
            # equal ids exactly where tokenize's strings are equal
            assert [ids.setdefault(t, n) for t, n in zip(want, tokens.tolist())] == tokens.tolist()
            assert lengths.tolist() == [len(want)] == [features.words[i]]
            grounded = sum(t in vocab for t in want) / len(want) if want else 0.0
            assert features.grounded[i] == grounded
            assert [bool(features.is_noun[t]) for t in tokens] == [t in lexicon for t in want]
            assert [bool(features._is_visual[t]) for t in tokens] == [t in vocab for t in want]
    assert len(set(ids.values())) == len(ids)


@pytest.mark.parametrize("line", ["Dog", "red car", "café", "dog,", "x-ray"])
def test_token_file_line_no_caption_can_match_exits_2(gen_pool, tmp_path, capsys, line):
    vocab = tmp_path / "vocab.txt"
    vocab.write_text(f"# visual words\ndog\n\n{line}\ncat\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"^{vocab}: line 4 is not a \\[a-z0-9\\]\\+ token"):
        load_token_file(vocab)
    curated = tmp_path / "curated.jsonl"
    write_curated(CuratedSet(entries=[(0, RAW)], spec=StrategySpec("raw_all")), curated)
    argv = ["metrics", "--pool", str(gen_pool.path), "--curated", str(curated),
            "--out", str(tmp_path / "metrics.json"), "--vocab", str(vocab)]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(vocab) in err and "line 4" in err
    assert not (tmp_path / "metrics.json").exists()


def test_unique_nouns_examples():
    lex = {"dog", "cat"}
    for captions, nouns in [(["dog cat dog"], 2), (["xyz"], 0), (["dog here", "there cat"], 2)]:
        assert _caption_stats(captions, lexicon=lex).unique_nouns == _unique_nouns(
            captions, lex) == nouns


def test_metrics_order_independent():
    rng = np.random.default_rng(9)
    words = [f"w{i}" for i in range(15)]
    captions = [" ".join(rng.choice(words, size=6)) for _ in range(80)]
    lex = set(words[:7])
    shuffled = list(reversed(captions))
    assert unique_trigrams(captions) == unique_trigrams(shuffled)
    assert _caption_stats(captions, lexicon=lex).unique_nouns == _caption_stats(
        shuffled, lexicon=lex).unique_nouns


# ---------------------------------------------------------------------------
# sampling


def test_sample_subset_full_is_identity():
    assert sample_subset(20, 20, seed=3).tolist() == list(range(20))


@given(st.integers(0, 3000), st.integers(0, 2**64 - 1))
@settings(max_examples=100, deadline=None)
def test_sample_subset_of_every_entry_is_a_whole_shuffle_sorted(total, seed):
    assert sample_subset(total, total, seed).tolist() == \
        np.sort(_partial_fisher_yates(total, total, seed)).tolist()


def test_sample_subset_empty():
    assert sample_subset(5, 0, seed=0).tolist() == []
    assert sample_subset(0, 0, seed=0).tolist() == []


def test_sample_subset_deterministic_and_sorted():
    a = sample_subset(50, 10, seed=7).tolist()
    assert a == sample_subset(50, 10, seed=7).tolist()
    assert a == sorted(set(a))
    assert sample_subset(50, 10, seed=8).tolist() != a


def test_sample_subset_is_the_sorted_prefix_of_one_shuffle():
    assert sample_subset(50, 10, seed=7).tolist() == sorted(scalar_fisher_yates(10, 50, 7))


def test_sample_subset_out_of_range():
    for n in (4, -1):
        with pytest.raises(DomainError, match=f"^cannot sample {n} of 3 entries$"):
            sample_subset(3, n, seed=0)


@given(st.integers(0, 3000), st.data(), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_partial_fisher_yates_matches_scalar_draws(total, data, seed):
    n = data.draw(st.integers(0, total))
    assert _partial_fisher_yates(n, total, seed).tolist() == scalar_fisher_yates(n, total, seed)


@pytest.mark.parametrize("n, total", [(100_000, 100_000), (60_000, 100_000), (1, 100_000)])
def test_partial_fisher_yates_matches_scalar_draws_at_scale(n, total):
    """Long chains of steps that target the same positions."""
    assert _partial_fisher_yates(n, total, 5).tolist() == scalar_fisher_yates(n, total, 5)


def test_sample_subset_uniformity_smoke():
    # every entry should appear at roughly the expected frequency
    counts = np.zeros(10)
    for seed in range(300):
        counts[sample_subset(10, 5, seed=seed)] += 1
    assert counts.min() > 0.5 * 150
    assert counts.max() < 1.5 * 150


# ---------------------------------------------------------------------------
# diversity over report samples: each sample is a prefix of one seeded shuffle


def _entry_texts(handle, entries):
    return [text for _, _, text in entry_captions(handle.path, entries.tolist())]


def test_entry_caption_resolution(gen_pool):
    rec = read_records(gen_pool.path)[3]
    table = gen_pool.records()
    sources, numbers = gen_pool.caption_ids(gen_pool.rows([rec.id, rec.id]), np.array([RAW, 1]))
    variant = rec.synthetic_variants[1]
    assert [table.sources[s] for s in sources.tolist()] == [
        "raw", variant_source_label(variant.source_name, variant.temperature)]
    assert [table.text[table.offsets[i] : table.offsets[i + 1]].decode()
            for i in numbers.tolist()] == [rec.raw_caption, variant.text]


def _sample_rows(handle, curated, sizes, seed):
    """``report``'s row for each sample size, one features object shared."""
    features = caption_features(handle, MetricConfig())
    tables = ScoreTables(handle)
    return [build_quality_report(handle, curated, tables, features, sample_size=size, seed=seed)
            for size in sizes]


def test_report_full_sample_matches_the_whole_set(gen_pool):
    lexicon = default_noun_lexicon()
    entries = [(i, RAW) for i in gen_pool.ids()[:400].tolist()]
    curated = CuratedSet(entries=entries, spec=StrategySpec("raw_all"))
    [row] = _sample_rows(gen_pool, curated, [400], seed=0)
    captions = _entry_texts(gen_pool, curated.entries)
    assert row.unique_trigrams == unique_trigrams(captions)
    assert row.unique_nouns == _unique_nouns(captions, lexicon)


def test_report_samples_are_prefixes_of_one_shuffle(gen_pool):
    lexicon = default_noun_lexicon()
    ids = gen_pool.ids()[:900].tolist()
    entries = [(i, RAW) for i in ids[:600]] + [(i, i % 2) for i in ids[300:]]
    curated = CuratedSet(entries=entries, spec=StrategySpec("raw_top_plus_syn_rest"))
    sizes = [0, 1, 37, 600, len(curated)]
    order = scalar_fisher_yates(len(curated), len(curated), 4)
    captions = _entry_texts(gen_pool, curated.entries[order])
    for row, size in zip(_sample_rows(gen_pool, curated, sizes, seed=4), sizes):
        prefix = captions[:size]
        assert (row.sample_size, row.unique_trigrams, row.unique_nouns) == (
            size, oracle_trigrams(prefix, tokenize),
            len({t for c in prefix for t in tokenize(c) if t in lexicon}))


def test_report_sample_counts_never_decrease_as_it_grows(gen_pool):
    entries = [(i, RAW) for i in gen_pool.ids().tolist()]
    curated = CuratedSet(entries=entries, spec=StrategySpec("raw_all"))
    sizes = [100, 500, 1000, 3000]
    samples = [set(sample_subset(len(curated), size, seed=1).tolist()) for size in sizes]
    for small, large in zip(samples, samples[1:]):
        assert small < large
    rows = _sample_rows(gen_pool, curated, sizes, seed=1)
    assert [row.sample_size for row in rows] == sizes
    for a, b in zip(rows, rows[1:]):
        assert b.unique_trigrams >= a.unique_trigrams
        assert b.unique_nouns >= a.unique_nouns


def test_report_matches_the_oracle_when_every_key_shares_one_hash_slot(gen_pool):
    """A hash multiplier of 0 sends every token key to slot 0: the token ids
    are those of the default multiplier, and a report row is the
    caption-by-caption oracle's."""
    tables = ScoreTables(gen_pool)
    spec = StrategySpec("raw_top_plus_syn_rest", p=30, syn_source="syn.blip2.0.75")
    curated = apply_strategy(gen_pool, spec, tables)
    everything = np.arange(len(gen_pool.records().offsets) - 1)
    rows, features = [], []
    for multiplier in (textmetrics._HASH_MULTIPLIER, 0):
        with mock.patch.object(textmetrics, "_HASH_MULTIPLIER", multiplier):
            features.append(caption_features(gen_pool, MetricConfig()))
            rows.append(build_quality_report(gen_pool, curated, tables, features[-1],
                                             sample_size=3000, seed=4))
            features[-1].token_ids(everything)  # then the captions the sample left out
    assert np.count_nonzero(features[1]._slot_keys != textmetrics._NO_KEY) == 1
    want = oracle_quality_report(gen_pool, curated, tables.__getitem__, vocab=features[0].vocab,
                                 lexicon=features[0].lexicon, sample_size=3000, seed=4)
    assert rows == [want, want]
    assert features[1].tokens.tolist() == features[0].tokens.tolist()


def test_report_syn_sample_stays_below_raw_at_every_size(tmp_path):
    from capforge.pool import open_pool
    from capforge.poolgen import GenConfig, SynSource, generate_pool

    config = GenConfig(
        num_records=4000,
        seed=13,
        records_per_shard=1000,
        syn_sources=[SynSource("blip2", 0.75, 0.5)],
    )
    generate_pool(config, tmp_path)
    handle = open_pool(tmp_path)
    raw = CuratedSet(
        entries=[(i, RAW) for i in handle.ids().tolist()], spec=StrategySpec("raw_all")
    )
    syn = CuratedSet(
        entries=[(i, 0) for i in handle.ids().tolist()],
        spec=StrategySpec("syn_all", syn_source="blip2"),
    )
    sizes = [100, 400, 1000, 2500, 4000]
    raw_rows = _sample_rows(handle, raw, sizes, seed=2)
    syn_rows = _sample_rows(handle, syn, sizes, seed=2)
    for rr, sr in zip(raw_rows, syn_rows):
        assert sr.unique_trigrams < rr.unique_trigrams, rr.sample_size
        assert sr.unique_nouns < rr.unique_nouns, rr.sample_size


# ---------------------------------------------------------------------------
# vocabulary files


def test_load_token_file(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("# comment\ndog\n\ncat\n")
    assert load_token_file(path) == {"dog", "cat"}


def test_default_files_load():
    vocab = default_visual_vocab()
    lexicon = default_noun_lexicon()
    assert "dog" in vocab and "red" in vocab
    assert len(vocab) > 300
    assert "dog" in lexicon
    assert len(lexicon) == 4000
