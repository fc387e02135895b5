import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capforge.curation import (
    ClusterParams,
    CuratedSet,
    FilterSpec,
    StrategySpec,
    STRATEGIES,
    STRATEGY_NAMES,
    apply_strategy,
    curated_filename,
    in1k_cluster_mask,
    kmeans,
    kmeans_trace,
    read_curated,
    resolve_syn_source,
    threshold_filter,
    top_fraction,
    write_curated,
)
from capforge.errors import ConfigError, DataError, DomainError
from capforge.pool import (
    CaptionVariant, Record, ScoreTable, SelectionMask, open_pool, write_pool,
)
from capforge.report import strategy_tables
from capforge.scoring import score_pool, select_best_variant
from helpers import RAW, build_plain_pool, oracle_strategy, oracle_top, unit_rows


def _table(values, source="raw"):
    return ScoreTable(source, np.asarray(values, dtype=np.float32))


# ---------------------------------------------------------------------------
# top_fraction / threshold_filter


def test_top_fraction_descending_example():
    scores = _table([0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0])
    mask, tau = top_fraction(scores, 30)
    assert set(mask.indices().tolist()) == {0, 1, 2}
    assert tau == pytest.approx(0.7)


def test_top_fraction_full_pool():
    scores = _table([0.3, 0.9, 0.5])
    mask, tau = top_fraction(scores, 100)
    assert mask.cardinality == 3
    assert tau == pytest.approx(0.3)


def test_top_fraction_all_ties_low_ids_win():
    scores = _table([0.5] * 10)
    mask, tau = top_fraction(scores, 30)
    assert set(mask.indices().tolist()) == {0, 1, 2}
    assert tau == pytest.approx(0.5)


def test_top_fraction_k_zero():
    mask, tau = top_fraction(_table([0.5, 0.6]), 10)
    assert mask.cardinality == 0
    assert tau is None


def test_top_fraction_domain_checks():
    with pytest.raises(DomainError):
        top_fraction(_table([0.1]), 0)
    with pytest.raises(DomainError):
        top_fraction(_table([0.1]), 101)
    with pytest.raises(DomainError):
        top_fraction(_table([]), 50)


@given(
    st.lists(
        st.sampled_from([0.0, 0.1, 0.25, 0.25, 0.5, 0.5, 0.5, 0.9]),
        min_size=1,
        max_size=60,
    ),
    st.sampled_from([1, 10, 30, 50, 99, 100]),
)
@settings(max_examples=200, deadline=None)
def test_top_fraction_matches_sort_oracle(values, p):
    scores = _table(values)
    mask, tau = top_fraction(scores, p)
    want_ids, want_tau = oracle_top(
        {i: float(v) for i, v in enumerate(scores.scores)}, p
    )
    assert set(mask.indices().tolist()) == want_ids
    if want_tau is None:
        assert tau is None
    else:
        assert tau == pytest.approx(want_tau)


@given(st.integers(1, 1000), st.integers(1, 2999))
@example(184, 375)  # p=18.4: floor(18.4*375/100.0) is 68 in binary floating point
@settings(max_examples=300, deadline=None)
def test_top_fraction_count_is_exact(tenths, n):
    p = tenths / 10
    mask, _ = top_fraction(_table(np.zeros(n)), p)
    assert mask.cardinality == tenths * n // 1000  # floor(p*n/100) in integers


def test_threshold_filter_extremes():
    scores = _table([0.1, 0.28, 0.5])
    assert threshold_filter(scores, -2.0).cardinality == 3
    assert threshold_filter(scores, 2.0).cardinality == 0


def test_threshold_filter_inclusive():
    scores = _table([0.1, 0.28, 0.5])
    mask = threshold_filter(scores, 0.28)
    assert set(mask.indices().tolist()) == {1, 2}


def test_threshold_superset_of_top_fraction():
    rng = np.random.default_rng(3)
    for _ in range(25):
        values = rng.choice([0.1, 0.2, 0.2, 0.3, 0.5, 0.5, 0.7], size=40)
        scores = _table(values)
        mask, tau = top_fraction(scores, 30)
        if tau is None:
            continue
        thresholded = threshold_filter(scores, tau)
        assert set(mask.indices().tolist()) <= set(thresholded.indices().tolist())


def test_threshold_equals_top_fraction_without_ties():
    rng = np.random.default_rng(6)
    values = rng.permutation(np.linspace(0.0, 1.0, 40)).astype(np.float32)
    scores = _table(values)
    mask, tau = top_fraction(scores, 25)
    thresholded = threshold_filter(scores, tau)
    assert set(mask.indices().tolist()) == set(thresholded.indices().tolist())


def test_filter_spec_validation():
    FilterSpec("top_fraction", p=30).validate()
    FilterSpec("threshold", tau=0.28).validate()
    with pytest.raises(ConfigError):
        FilterSpec("top_fraction", p=150).validate()
    with pytest.raises(ConfigError):
        FilterSpec("top_fraction", tau=0.1).validate()
    with pytest.raises(ConfigError):
        FilterSpec("bogus").validate()


# ---------------------------------------------------------------------------
# k-means


def test_kmeans_analytic_two_cluster_instance():
    points = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    centroids, assignments = kmeans(points, ClusterParams(k=2, seed=0, tol=0.0))
    sse = sum(
        float(((points[i] - centroids[assignments[i]]) ** 2).sum()) for i in range(4)
    )
    assert sse == pytest.approx(1.0, abs=1e-9)
    got = sorted(centroids.tolist())
    assert got[0] == pytest.approx([0.0, 0.5])
    assert got[1] == pytest.approx([10.0, 0.5])
    assert assignments[0] == assignments[1]
    assert assignments[2] == assignments[3]


def test_kmeans_k_equals_n_zero_sse():
    rng = np.random.default_rng(1)
    points = rng.standard_normal((6, 3))
    centroids, assignments = kmeans(points, ClusterParams(k=6, seed=5, tol=0.0))
    dists = ((points - centroids[assignments]) ** 2).sum(axis=1)
    assert float(dists.sum()) == pytest.approx(0.0, abs=1e-18)


def test_kmeans_deterministic():
    rng = np.random.default_rng(2)
    points = rng.standard_normal((50, 4))
    params = ClusterParams(k=5, seed=9)
    c1, a1 = kmeans(points, params)
    c2, a2 = kmeans(points, params)
    assert np.array_equal(a1, a2)
    assert np.array_equal(c1, c2)


def test_kmeans_k_exceeds_points():
    with pytest.raises(DomainError):
        kmeans(np.zeros((3, 2)), ClusterParams(k=4))


def test_kmeans_sse_nonincreasing_and_argmin_consistent():
    rng = np.random.default_rng(4)
    for trial in range(10):
        points = rng.standard_normal((80, 5))
        steps = list(kmeans_trace(points, ClusterParams(k=6, seed=trial, tol=0.0, max_iters=40)))
        sses = [s.sse for s in steps]
        for a, b in zip(sses, sses[1:]):
            assert b <= a * (1 + 1e-12)
        final = steps[-1]
        # every assignment is a true argmin against the final centroids
        for i in range(points.shape[0]):
            dists = [float(((points[i] - c) ** 2).sum()) for c in final.centroids]
            assert final.assignments[i] == int(np.argmin(dists))


# ---------------------------------------------------------------------------
# in1k cluster mask


def _two_cluster_pool(tmp_path, n_a=30, n_b=20, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    a = np.zeros((n_a, dim))
    a[:, 0] = 1.0
    b = np.zeros((n_b, dim))
    b[:, 1] = 1.0
    pts = np.concatenate([a, b]) + 0.05 * rng.standard_normal((n_a + n_b, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    from capforge.pool import Record, write_pool

    records = [Record(id=i, raw_caption=f"r{i}") for i in range(n_a + n_b)]
    write_pool(
        records,
        {"image": pts.astype(np.float32), "raw": pts.astype(np.float32)},
        tmp_path,
    )
    return open_pool(tmp_path), pts


def test_in1k_mask_references_equal_centroids_keep_all(tmp_path):
    handle, pts = _two_cluster_pool(tmp_path)
    params = ClusterParams(k=2, seed=3)
    centroids, _ = kmeans(handle.embeddings("image").astype(np.float64), params)
    mask = in1k_cluster_mask(handle, centroids, params)
    assert mask.cardinality == handle.num_records


def test_in1k_mask_single_cluster_geometry(tmp_path):
    handle, pts = _two_cluster_pool(tmp_path)
    params = ClusterParams(k=2, seed=3)
    centroids, assignments = kmeans(handle.embeddings("image").astype(np.float64), params)
    refs = np.tile(centroids[0], (3, 1)) + 0.01
    mask = in1k_cluster_mask(handle, refs, params)
    assert set(mask.indices().tolist()) == set(np.flatnonzero(assignments == 0).tolist())
    assert 0 < mask.cardinality < handle.num_records


def test_in1k_mask_nonempty_and_dim_check(tmp_path):
    handle, _ = _two_cluster_pool(tmp_path)
    params = ClusterParams(k=4, seed=1)
    refs = np.random.default_rng(0).standard_normal((5, 6))
    assert in1k_cluster_mask(handle, refs, params).cardinality > 0
    with pytest.raises(DomainError):
        in1k_cluster_mask(handle, np.ones((2, 3)), params)
    with pytest.raises(DomainError):
        in1k_cluster_mask(handle, np.ones((0, 6)), params)


# ---------------------------------------------------------------------------
# strategies


@pytest.fixture(scope="module")
def strategy_pool(tmp_path_factory):
    path = tmp_path_factory.mktemp("strategy") / "pool"
    build_plain_pool(path, 10, variants=[("blip2", 0.75), ("coca", 1.0)])
    return open_pool(path)


SYN_LABEL = "syn.coca.1.00"
VAR_IDX = 1  # coca is the second variant of every record


def _tables(raw_values, syn_values):
    return {
        "raw": _table(raw_values, "raw"),
        SYN_LABEL: _table(syn_values, SYN_LABEL),
    }


def _spec(name, p=None):
    return StrategySpec(name=name, p=p, syn_source=SYN_LABEL)


def test_filtered_mix_spec_example(strategy_pool):
    # ids 0..2 on top for raw at p=30 with tau 0.7; exactly 4 of ids 3..9
    # have synthetic score >= 0.7
    raw = [0.9, 0.8, 0.7, 0.5, 0.45, 0.4, 0.35, 0.3, 0.25, 0.2]
    syn = [0.0, 0.0, 0.0, 0.9, 0.75, 0.7, 0.71, 0.3, 0.2, 0.1]
    curated = apply_strategy(
        strategy_pool, _spec("raw_top_plus_syn_rest_filtered", p=30), _tables(raw, syn)
    )
    assert curated.tau_used == pytest.approx(0.7)
    assert len(curated) == 7
    assert curated.entries == [
        (0, RAW), (1, RAW), (2, RAW), (3, VAR_IDX), (4, VAR_IDX), (5, VAR_IDX), (6, VAR_IDX),
    ]


def test_concat_spec_example(strategy_pool):
    raw = [0.9, 0.8, 0.7, 0.5, 0.45, 0.4, 0.35, 0.3, 0.25, 0.2]
    syn = [0.0, 0.0, 0.0, 0.9, 0.75, 0.7, 0.71, 0.3, 0.2, 0.1]
    curated = apply_strategy(
        strategy_pool, _spec("concat_top_plus_syn_rest_filtered", p=30), _tables(raw, syn)
    )
    assert len(curated) == 10  # 3*2 + 4
    assert (0, RAW) in set(curated.entries) and (0, VAR_IDX) in set(curated.entries)


def test_unfiltered_mix_covers_pool(strategy_pool):
    rng = np.random.default_rng(0)
    raw = rng.random(10)
    syn = rng.random(10)
    curated = apply_strategy(
        strategy_pool, _spec("raw_top_plus_syn_rest", p=30), _tables(raw, syn)
    )
    assert len(curated) == 10
    top_ids = {i for i, c in curated.entries if c == RAW}
    rest_ids = {i for i, c in curated.entries if c == VAR_IDX}
    assert top_ids | rest_ids == set(range(10))
    assert not top_ids & rest_ids


def test_all_strategies_match_enumeration_oracle(strategy_pool):
    rng = np.random.default_rng(12)
    ids = list(range(10))
    var_of = {i: VAR_IDX for i in ids}
    for trial in range(30):
        # heavy ties to stress tie-breaking
        raw = rng.choice([0.1, 0.2, 0.2, 0.5, 0.5, 0.9], size=10)
        syn = rng.choice([0.1, 0.2, 0.2, 0.5, 0.5, 0.9], size=10)
        tables = _tables(raw, syn)
        p = float(rng.choice([10, 25, 30, 50, 100]))
        mask_ids = set(rng.choice(10, size=6, replace=False).tolist())
        in1k = SelectionMask.from_indices(sorted(mask_ids), 10)
        for name in STRATEGY_NAMES:
            if name == "syn_best_variant_all":
                continue
            spec = StrategySpec(name=name, p=p, syn_source=SYN_LABEL)
            got = apply_strategy(strategy_pool, spec, tables)
            want = oracle_strategy(
                name,
                ids,
                {i: float(np.float32(raw[i])) for i in ids},
                {i: float(np.float32(syn[i])) for i in ids},
                p=p,
                var_of=var_of,
            )
            assert set(got.entries) == want, (name, trial)
            spec_i = StrategySpec(
                name=name, p=p, syn_source=SYN_LABEL, in1k_intersect=True
            )
            got_i = apply_strategy(strategy_pool, spec_i, tables, in1k)
            assert set(got_i.entries) == {
                (i, c) for i, c in want if i in mask_ids
            }, (name, trial)
            # intersection output is a subset by id
            assert {i for i, _ in got_i.entries} <= {i for i, _ in got.entries}


def test_syn_best_variant_all(strategy_pool):
    rng = np.random.default_rng(5)
    t075 = rng.random(10).astype(np.float32)
    t100 = rng.random(10).astype(np.float32)
    tables = {
        "syn.blip2.0.75": _table(t075, "syn.blip2.0.75"),
        "syn.coca.1.00": _table(t100, "syn.coca.1.00"),
    }
    curated = apply_strategy(
        strategy_pool, StrategySpec(name="syn_best_variant_all"), tables
    )
    for i, cap in curated.entries:
        want = 0 if t075[i] >= t100[i] else 1
        assert cap == want


def _mixed_order_pool(path, override=None):
    """Records list blip2/coca in either order or only one of them; every
    fifth record gives both variants the same embedding, an exact tie.
    `override` maps a row to the variant list it gets instead."""
    n, dim = 40, 8
    rng = np.random.default_rng(9)
    blip2, coca = unit_rows(rng, n, dim), unit_rows(rng, n, dim)
    coca[::5] = blip2[::5]
    layouts = [("blip2", "coca"), ("coca", "blip2"), ("coca",), ("blip2",)]
    temps = {"blip2": 0.75, "coca": 1.0}
    records = [
        Record(id=i, raw_caption=f"raw {i}", synthetic_variants=[
            CaptionVariant(s, temps[s], f"{s} {i}") for s in layouts[i % 4]
        ])
        for i in range(n)
    ]
    for i, variants in (override or {}).items():
        records[i].synthetic_variants = variants
    embeddings = {"image": unit_rows(rng, n, dim), "raw": unit_rows(rng, n, dim),
                  "syn.blip2.0.75": blip2, "syn.coca.1.00": coca}
    write_pool(records, embeddings, path, records_per_shard=16)
    handle = open_pool(path)
    tables = {label: score_pool(handle, label, write_sidecar=False)
              for label in ("syn.blip2.0.75", "syn.coca.1.00")}
    return handle, tables


def test_syn_best_variant_all_matches_per_record_oracle(tmp_path):
    handle, tables = _mixed_order_pool(tmp_path / "pool")
    spec = StrategySpec(name="syn_best_variant_all")
    curated = apply_strategy(handle, spec, tables)
    assert [i for i, _ in curated.entries] == list(range(40))
    for i, cap in curated.entries:
        assert cap == select_best_variant(handle, i), i
    assert {cap for i, cap in curated.entries if i % 5 == 0 and i % 4 < 2} == {0}

    handle, tables = _mixed_order_pool(tmp_path / "empty", {7: []})
    with pytest.raises(DataError, match="record 7 has no synthetic variants"):
        apply_strategy(handle, spec, tables)
    ghost = [CaptionVariant("blip2", 0.75, "b"), CaptionVariant("ghost", 1.0, "g")]
    handle, tables = _mixed_order_pool(tmp_path / "ghost", {9: ghost})
    with pytest.raises(DataError, match="record 9: no embeddings for variant 'syn.ghost.1.00'"):
        apply_strategy(handle, spec, tables)


def test_monotonicity_smaller_p_never_adds(strategy_pool):
    rng = np.random.default_rng(8)
    raw = rng.random(10)
    tables = {"raw": _table(raw, "raw")}
    prev = None
    for p in (100, 70, 40, 20, 10):
        got = set(
            apply_strategy(strategy_pool, StrategySpec("raw_top", p=p), tables).entries
        )
        if prev is not None:
            assert got <= prev
        prev = got


def test_union_can_duplicate_records(strategy_pool):
    raw = [0.9] + [0.1] * 9
    syn = [0.9] + [0.1] * 9
    curated = apply_strategy(
        strategy_pool, _spec("union_top_raw_top_syn", p=10), _tables(raw, syn)
    )
    assert curated.entries == [(0, RAW), (0, VAR_IDX)]


def test_strategy_missing_table_raises(strategy_pool):
    with pytest.raises(DataError, match="missing score table"):
        apply_strategy(strategy_pool, _spec("raw_top", p=30), {})


def test_strategy_requires_in1k_mask(strategy_pool):
    spec = StrategySpec("raw_all", in1k_intersect=True)
    with pytest.raises(DataError, match="in1k"):
        apply_strategy(strategy_pool, spec, {})


def test_strategy_table_names_exactly_the_needed_score_tables(strategy_pool):
    rng = np.random.default_rng(4)
    pool_tables = {
        label: _table(rng.random(10), label)
        for label in ("raw", "syn.blip2.0.75", SYN_LABEL)
    }
    both = {"raw", SYN_LABEL}
    expected = {
        "raw_all": set(),
        "syn_all": set(),
        "syn_best_variant_all": {"syn.blip2.0.75", SYN_LABEL},
        "raw_top": {"raw"},
        "syn_top": {SYN_LABEL},
        "syn_on_raw_top": {"raw"},
        "raw_top_plus_syn_rest": {"raw"},
        "raw_top_plus_syn_rest_filtered": both,
        "syn_top_plus_raw_rest_filtered": both,
        "concat_top_plus_syn_rest_filtered": both,
        "union_top_raw_top_syn": both,
    }
    assert set(expected) == set(STRATEGIES)
    for name in STRATEGIES:
        spec = _spec(name, p=30)
        tables = strategy_tables(strategy_pool, spec, pool_tables.__getitem__)
        assert set(tables) == expected[name], name
        apply_strategy(strategy_pool, spec, tables)
        for label in tables:
            fewer = {k: v for k, v in tables.items() if k != label}
            with pytest.raises(DataError, match="missing score table"):
                apply_strategy(strategy_pool, spec, fewer)


def test_strategy_spec_validation():
    with pytest.raises(ConfigError):
        StrategySpec("nope").validate()
    with pytest.raises(ConfigError):
        StrategySpec("raw_top").validate()  # p missing
    with pytest.raises(ConfigError):
        StrategySpec("raw_top", p=200).validate()
    with pytest.raises(ConfigError):
        StrategySpec("syn_all").validate()  # syn_source missing
    StrategySpec("raw_all").validate()
    needs_p = set(STRATEGY_NAMES) - {"raw_all", "syn_all", "syn_best_variant_all"}
    needs_syn = {
        "syn_all", "syn_top", "syn_on_raw_top", "raw_top_plus_syn_rest",
        "raw_top_plus_syn_rest_filtered", "syn_top_plus_raw_rest_filtered",
        "concat_top_plus_syn_rest_filtered", "union_top_raw_top_syn",
    }
    for name in STRATEGY_NAMES:
        StrategySpec(name, p=30, syn_source="blip2").validate()
        for spec, required in (
            (StrategySpec(name, syn_source="blip2"), name in needs_p),
            (StrategySpec(name, p=30), name in needs_syn),
        ):
            if required:
                with pytest.raises(ConfigError, match="requires"):
                    spec.validate()
            else:
                spec.validate()


def test_strategy_spec_in1k_intersect_must_be_boolean():
    spec = StrategySpec.from_dict({"name": "raw_all", "in1k_intersect": False})
    assert spec.in1k_intersect is False
    with pytest.raises(ConfigError, match="in1k_intersect"):
        StrategySpec.from_dict({"name": "raw_all", "in1k_intersect": "false"})
    with pytest.raises(ConfigError, match="in1k_intersect"):
        StrategySpec.from_dict({"name": "raw_all", "in1k_intersect": 1})


def test_resolve_syn_source(strategy_pool):
    labels = strategy_pool.manifest.embedding_sources
    assert resolve_syn_source(labels, "syn.blip2.0.75") == "syn.blip2.0.75"
    assert resolve_syn_source(labels, "coca") == "syn.coca.1.00"
    with pytest.raises(DataError):
        resolve_syn_source(labels, "missing")
    assert resolve_syn_source(["syn.a.0.50", "syn.a.1.00"], "syn.a.0.50") == "syn.a.0.50"
    with pytest.raises(ConfigError):
        resolve_syn_source(["syn.a.0.50", "syn.a.1.00"], "a")


def test_curated_set_sorts_and_dedups():
    spec = StrategySpec("raw_all")
    curated = CuratedSet(entries=[(3, 0), (1, RAW), (3, 0), (1, 2)], spec=spec)
    assert curated.entries == [(1, RAW), (1, 2), (3, 0)]


def test_curated_roundtrip(tmp_path):
    spec = StrategySpec("raw_top_plus_syn_rest_filtered", p=30, syn_source="blip2")
    curated = CuratedSet(entries=[(0, RAW), (2, 1), (5, RAW)], spec=spec, tau_used=0.7)
    path = tmp_path / curated_filename(spec.name)
    write_curated(curated, path)
    back = read_curated(path)
    assert back.entries == curated.entries
    assert back.tau_used == pytest.approx(0.7)
    assert back.spec.name == spec.name
    assert back.spec.p == spec.p
