import contextlib
import json
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capforge import curation
from capforge.curation import (
    ClusterParams,
    CuratedSet,
    StrategySpec,
    STRATEGIES,
    STRATEGY_NAMES,
    apply_strategy,
    in1k_cluster_mask,
    kmeans,
    kmeans_trace,
    read_curated,
    resolve_syn_source,
    threshold_filter,
    top_fraction,
    write_curated,
)
from capforge.errors import ConfigError, DataError, DomainError, FormatError
from capforge.pool import open_pool
from capforge.scoring import ScoreTable, score_pool
from helpers import (
    RAW, CaptionVariant, Record, build_plain_pool, oracle_kmeans_trace, oracle_strategy,
    oracle_top, pairs, select_best_variant, traced_peak, unit_rows, write_checked_curated,
    write_records,
)


NAN = float("nan")


def _table(values, source="raw"):
    return ScoreTable(source, np.asarray(values, dtype=np.float32))


# ---------------------------------------------------------------------------
# top_fraction / threshold_filter


def test_top_fraction_descending_example():
    scores = _table([0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0])
    mask, tau = top_fraction(scores, 30, np.arange(10))
    assert set(np.flatnonzero(mask).tolist()) == {0, 1, 2}
    assert tau == pytest.approx(0.7)


def test_top_fraction_full_pool():
    scores = _table([0.3, 0.9, 0.5])
    mask, tau = top_fraction(scores, 100, np.arange(3))
    assert int(mask.sum()) == 3
    assert tau == pytest.approx(0.3)


def test_top_fraction_all_ties_low_ids_win():
    scores = _table([0.5] * 10)
    mask, tau = top_fraction(scores, 30, np.arange(10))
    assert set(np.flatnonzero(mask).tolist()) == {0, 1, 2}
    assert tau == pytest.approx(0.5)


def test_top_fraction_k_zero():
    mask, tau = top_fraction(_table([0.5, 0.6]), 10, np.arange(2))
    assert int(mask.sum()) == 0
    assert tau is None


def test_top_fraction_domain_checks():
    with pytest.raises(DomainError):
        top_fraction(_table([0.1]), 0, np.arange(1))
    with pytest.raises(DomainError):
        top_fraction(_table([0.1]), 101, np.arange(1))
    mask, tau = top_fraction(_table([]), 50, np.arange(0))  # floor(50 * 0 / 100) = 0
    assert (mask.dtype, mask.shape, tau) == (np.dtype(bool), (0,), None)


@given(
    st.lists(
        st.sampled_from([0.0, 0.1, 0.25, 0.25, 0.5, 0.5, 0.5, 0.9]),
        min_size=1,
        max_size=60,
    ),
    st.sampled_from([1, 10, 30, 50, 99, 100]),
    st.lists(st.integers(-2**63, 2**63 - 1), min_size=60, max_size=60, unique=True),
)
@example([0.5, 0.5, 0.9, 0.5], 75, [9, 7, 1, 3])  # two of three tied 0.5s: ids 3 and 7
@settings(max_examples=200, deadline=None)
def test_top_fraction_matches_sort_oracle(values, p, ids):
    """Ties at the cut go to the lower ids, not the lower rows: the ids are
    distinct int64 values in any order (p=1 below 100 records keeps none)."""
    ids = np.array(ids[: len(values)], np.int64)
    scores = _table(values)
    mask, tau = top_fraction(scores, p, ids)
    want_ids, want_tau = oracle_top(dict(zip(ids.tolist(), scores.scores.tolist())), p)
    assert set(ids[mask].tolist()) == want_ids
    assert tau == want_tau


@pytest.mark.parametrize("values, ids, p, kept, tau", [
    ([NAN, 0.5, NAN, 0.2], [4, 3, 2, 1], 75, [1, 2, 3], NAN),
    ([NAN, 0.5, NAN, 0.2], [4, 3, 2, 1], 50, [1, 3], 0.2),
    ([NAN, NAN], [5, 1], 50, [1], NAN),
    ([0.1, NAN, 0.1, 0.3], [9, 8, 7, 6], 50, [2, 3], 0.1),
])
def test_top_fraction_ranks_a_nan_score_last(values, ids, p, kept, tau):
    """As a sort by descending score does: NaN rows fill the cut only after
    every number, the lower ids first."""
    mask, got = top_fraction(_table(values), p, np.array(ids))
    assert np.flatnonzero(mask).tolist() == kept
    assert got == pytest.approx(tau, nan_ok=True)


@given(st.integers(1, 1000), st.integers(1, 2999))
@example(184, 375)  # p=18.4: floor(18.4*375/100.0) is 68 in binary floating point
@settings(max_examples=300, deadline=None)
def test_top_fraction_count_is_exact(tenths, n):
    p = tenths / 10
    mask, _ = top_fraction(_table(np.zeros(n)), p, np.arange(n))
    assert int(mask.sum()) == tenths * n // 1000  # floor(p*n/100) in integers


def test_threshold_filter_extremes():
    scores = _table([0.1, 0.28, 0.5])
    assert int(threshold_filter(scores, -2.0).sum()) == 3
    assert int(threshold_filter(scores, 2.0).sum()) == 0


def test_threshold_filter_inclusive():
    scores = _table([0.1, 0.28, 0.5])
    mask = threshold_filter(scores, 0.28)
    assert set(np.flatnonzero(mask).tolist()) == {1, 2}


def test_threshold_filter_compares_tau_exactly():
    """tau is not rounded to float32: a score one float64 step below tau is
    dropped, and a tau past float32's range keeps nothing without a warning."""
    score = np.float32(0.2)
    scores = _table([score])
    assert threshold_filter(scores, float(score)).tolist() == [True]
    assert threshold_filter(scores, float(np.nextafter(np.float64(score), 1.0))).tolist() == [False]
    assert threshold_filter(scores, float(np.nextafter(np.float64(score), 0.0))).tolist() == [True]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert threshold_filter(scores, 1e300).tolist() == [False]
        assert threshold_filter(scores, -1e300).tolist() == [True]


def test_threshold_superset_of_top_fraction():
    rng = np.random.default_rng(3)
    for _ in range(25):
        values = rng.choice([0.1, 0.2, 0.2, 0.3, 0.5, 0.5, 0.7], size=40)
        scores = _table(values)
        mask, tau = top_fraction(scores, 30, np.arange(40))
        if tau is None:
            continue
        thresholded = threshold_filter(scores, tau)
        assert set(np.flatnonzero(mask).tolist()) <= set(np.flatnonzero(thresholded).tolist())


def test_threshold_equals_top_fraction_without_ties():
    rng = np.random.default_rng(6)
    values = rng.permutation(np.linspace(0.0, 1.0, 40)).astype(np.float32)
    scores = _table(values)
    mask, tau = top_fraction(scores, 25, np.arange(40))
    thresholded = threshold_filter(scores, tau)
    assert set(np.flatnonzero(mask).tolist()) == set(np.flatnonzero(thresholded).tolist())


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


@st.composite
def _kmeans_instances(draw):
    """Points where GEMM ranking is hardest: exact ties on an integer lattice,
    repeated points, k = n, and a 1e8 offset that cancels in |x|^2 - 2x.c."""
    kind = draw(st.sampled_from(["lattice", "repeated", "k_equals_n", "offset"]))
    n, dim = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "lattice":
        points = rng.integers(-2, 3, size=(n, dim)).astype(np.float64)
    elif kind == "repeated":
        distinct = rng.standard_normal((draw(st.integers(1, 4)), dim))
        points = distinct[rng.integers(0, len(distinct), n)]
    elif kind == "offset":
        points = 1e8 + rng.standard_normal((n, dim))
    else:
        points = rng.standard_normal((n, dim))
    k = n if kind == "k_equals_n" else draw(st.integers(1, n))
    params = ClusterParams(k=k, seed=draw(st.integers(0, 2**16)),
                           tol=draw(st.sampled_from([0.0, 1e-4])),
                           max_iters=draw(st.integers(1, 12)))
    return points, params


@settings(max_examples=150, deadline=None)
@given(_kmeans_instances())
def test_kmeans_trace_equals_per_centroid_oracle_bit_for_bit(instance):
    _assert_same_trace(*instance)


def _assert_same_trace(points, params):
    got = list(kmeans_trace(points, params))
    want = list(oracle_kmeans_trace(points, params))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.iteration == b.iteration
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.assignments, b.assignments)
        assert a.assignments.dtype == b.assignments.dtype
        assert a.sse == b.sse


def test_kmeans_trace_equals_oracle_over_several_blocks():
    # 4,000 points at k = 40 take two GEMM blocks in _assign, and 20 columns
    # take two bincount blocks (16 + 4) in the update
    points = np.random.default_rng(5).standard_normal((4000, 20))
    _assert_same_trace(points, ClusterParams(k=40, seed=3, tol=0.0, max_iters=4))


def test_kmeans_trace_equals_oracle_when_init_runs_out_of_distance():
    # three distinct rows and k = 6: once all three are centres every d2 is 0,
    # so the rest of the init draws with rng.integers
    rng = np.random.default_rng(8)
    points = rng.standard_normal((3, 7))[rng.integers(0, 3, 500)]
    _assert_same_trace(points, ClusterParams(k=6, seed=1, tol=0.0, max_iters=3))


def test_assign_duplicated_centroids_tie_to_lower_index_through_repair(monkeypatch):
    rng = np.random.default_rng(11)
    points = rng.standard_normal((300, 5))
    distinct = rng.standard_normal((3, 5))
    centroids = np.concatenate([distinct, distinct[::-1]])  # centroid j ties with 5 - j
    exact_form, repaired = curation._distances, []

    def spy(pts, cents):
        repaired.append(len(pts))
        return exact_form(pts, cents)

    monkeypatch.setattr(curation, "_distances", spy)
    monkeypatch.setattr(curation, "_BLOCK_CELLS", 6 * 64)  # blocks of 64 points
    sq_norms = (points * points).sum(axis=1)
    nearest, dists = curation._assign(points, sq_norms, centroids)
    full = exact_form(points, centroids)
    assert sum(repaired) == len(points)  # every point ties, so every point is re-checked
    assert len(repaired) == 5
    assert np.array_equal(nearest, np.argmin(full, axis=1))
    assert (nearest < 3).all()
    assert np.array_equal(dists, full[np.arange(len(points)), nearest])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kmeans_rejects_non_finite_points(bad):
    points = np.zeros((5, 3))
    points[3, 1] = bad
    with pytest.raises(DomainError, match="point 3 is not finite"):
        kmeans(points, ClusterParams(k=2))


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
    records = [Record(id=i, raw_caption=f"r{i}") for i in range(n_a + n_b)]
    write_records(
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
    assert int(mask.sum()) == handle.num_records


def test_in1k_mask_single_cluster_geometry(tmp_path):
    handle, pts = _two_cluster_pool(tmp_path)
    params = ClusterParams(k=2, seed=3)
    centroids, assignments = kmeans(handle.embeddings("image").astype(np.float64), params)
    refs = np.tile(centroids[0], (3, 1)) + 0.01
    mask = in1k_cluster_mask(handle, refs, params)
    assert set(np.flatnonzero(mask).tolist()) == set(np.flatnonzero(assignments == 0).tolist())
    assert 0 < int(mask.sum()) < handle.num_records


def test_in1k_mask_nonempty_and_dim_check(tmp_path):
    handle, _ = _two_cluster_pool(tmp_path)
    params = ClusterParams(k=4, seed=1)
    refs = np.random.default_rng(0).standard_normal((5, 6))
    assert int(in1k_cluster_mask(handle, refs, params).sum()) > 0
    with pytest.raises(DomainError):
        in1k_cluster_mask(handle, np.ones((2, 3)), params)
    with pytest.raises(DomainError):
        in1k_cluster_mask(handle, np.ones((0, 6)), params)


@pytest.mark.parametrize("row, value, problem", [
    (2, np.nan, "reference row 2 is not finite"),
    (1, np.inf, "reference row 1 is not finite"),
    (3, 0.0, "reference row 3 has zero norm"),
])
def test_in1k_mask_rejects_non_finite_and_zero_references(tmp_path, row, value, problem):
    handle, _ = _two_cluster_pool(tmp_path)
    refs = np.random.default_rng(0).standard_normal((5, 6))
    refs[row] = value
    refs[4, 0] = np.nan  # a later bad row is not the one named
    with pytest.raises(DomainError, match=problem):
        in1k_cluster_mask(handle, refs, ClusterParams(k=2, seed=3))


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
    assert pairs(curated) == [
        (0, RAW), (1, RAW), (2, RAW), (3, VAR_IDX), (4, VAR_IDX), (5, VAR_IDX), (6, VAR_IDX),
    ]


def test_concat_spec_example(strategy_pool):
    raw = [0.9, 0.8, 0.7, 0.5, 0.45, 0.4, 0.35, 0.3, 0.25, 0.2]
    syn = [0.0, 0.0, 0.0, 0.9, 0.75, 0.7, 0.71, 0.3, 0.2, 0.1]
    curated = apply_strategy(
        strategy_pool, _spec("concat_top_plus_syn_rest_filtered", p=30), _tables(raw, syn)
    )
    assert len(curated) == 10  # 3*2 + 4
    assert (0, RAW) in set(pairs(curated)) and (0, VAR_IDX) in set(pairs(curated))


def test_unfiltered_mix_covers_pool(strategy_pool):
    rng = np.random.default_rng(0)
    raw = rng.random(10)
    syn = rng.random(10)
    curated = apply_strategy(
        strategy_pool, _spec("raw_top_plus_syn_rest", p=30), _tables(raw, syn)
    )
    assert len(curated) == 10
    top_ids = {i for i, c in pairs(curated) if c == RAW}
    rest_ids = {i for i, c in pairs(curated) if c == VAR_IDX}
    assert top_ids | rest_ids == set(range(10))
    assert not top_ids & rest_ids


def test_all_strategies_match_enumeration_oracle(strategy_pool, monkeypatch):
    rng = np.random.default_rng(12)
    ids = list(range(10))
    var_of = {i: VAR_IDX for i in ids}
    refs = strategy_pool.embeddings("image")[:2]
    for trial in range(30):
        # heavy ties to stress tie-breaking
        raw = rng.choice([0.1, 0.2, 0.2, 0.5, 0.5, 0.9], size=10)
        syn = rng.choice([0.1, 0.2, 0.2, 0.5, 0.5, 0.9], size=10)
        tables = _tables(raw, syn)
        p = float(rng.choice([10, 25, 30, 50, 100]))
        mask_ids = set(rng.choice(10, size=6, replace=False).tolist())
        in1k, masks = np.isin(np.arange(10), sorted(mask_ids)), {}
        monkeypatch.setattr(curation, "in1k_cluster_mask", lambda handle, refs, params: in1k)
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
            assert set(pairs(got)) == want, (name, trial)
            spec_i = StrategySpec(
                name=name, p=p, syn_source=SYN_LABEL, in1k_intersect=True
            )
            got_i = apply_strategy(strategy_pool, spec_i, tables, refs, seed=7, masks=masks)
            assert set(pairs(got_i)) == {
                (i, c) for i, c in want if i in mask_ids
            }, (name, trial)
            # intersection output is a subset by id
            assert {i for i, _ in pairs(got_i)} <= {i for i, _ in pairs(got)}


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
    for i, cap in pairs(curated):
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
    write_records(records, embeddings, path, records_per_shard=16)
    handle = open_pool(path)
    tables = {label: score_pool(handle, label)
              for label in ("syn.blip2.0.75", "syn.coca.1.00")}
    return handle, tables


def test_syn_best_variant_all_matches_per_record_oracle(tmp_path):
    handle, tables = _mixed_order_pool(tmp_path / "pool")
    spec = StrategySpec(name="syn_best_variant_all")
    curated = apply_strategy(handle, spec, tables)
    assert [i for i, _ in pairs(curated)] == list(range(40))
    for i, cap in pairs(curated):
        assert cap == select_best_variant(handle, i), i
    assert {cap for i, cap in pairs(curated) if i % 5 == 0 and i % 4 < 2} == {0}

    handle, tables = _mixed_order_pool(tmp_path / "empty", {7: []})
    with pytest.raises(DataError, match="record 7 has no synthetic variants"):
        apply_strategy(handle, spec, tables)


def test_monotonicity_smaller_p_never_adds(strategy_pool):
    rng = np.random.default_rng(8)
    raw = rng.random(10)
    tables = {"raw": _table(raw, "raw")}
    prev = None
    for p in (100, 70, 40, 20, 10):
        got = set(
            pairs(apply_strategy(strategy_pool, StrategySpec("raw_top", p=p), tables))
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
    assert pairs(curated) == [(0, RAW), (0, VAR_IDX)]


def test_strategy_missing_table_raises(strategy_pool):
    with pytest.raises(DataError, match="missing score table"):
        apply_strategy(strategy_pool, _spec("raw_top", p=30), {})


def test_strategy_requires_in1k_mask(strategy_pool):
    spec = StrategySpec("raw_all", in1k_intersect=True)
    with pytest.raises(ConfigError, match="^strategy raw_all: in1k_intersect requires reference "
                                          "embeddings$"):
        apply_strategy(strategy_pool, spec, {})


@pytest.mark.parametrize("refs, problem", [
    (np.ones((2, 3)), "reference dim 3 != pool dim 8"),  # wrong width
    (np.ones(8), r"reference set must be a nonempty \(n, dim\) matrix"),  # not 2-d
    (np.ones((2, 2, 8)), r"reference set must be a nonempty \(n, dim\) matrix"),  # 3-d
    (np.ones((0, 8)), r"reference set must be a nonempty \(n, dim\) matrix"),  # no rows
    (np.vstack([np.ones(8), np.zeros(8)]), "reference row 1 has zero norm"),
])
def test_strategy_rejects_malformed_in1k_refs(strategy_pool, refs, problem):
    spec, masks = StrategySpec("raw_all", in1k_intersect=True), {}
    with pytest.raises(DomainError, match=f"^{problem}$"):
        apply_strategy(strategy_pool, spec, {}, refs, seed=7, masks=masks)
    assert masks == {}  # a refused reference set caches no mask


class _RecordingTables(dict):
    """Score tables that log every label read from them."""

    def __init__(self, tables):
        super().__init__(tables)
        self.read = set()

    def __getitem__(self, label):
        self.read.add(label)
        return super().__getitem__(label)


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
        tables = _RecordingTables(pool_tables)
        apply_strategy(strategy_pool, spec, tables)
        assert tables.read == expected[name], name
        for label in expected[name]:
            fewer = {k: v for k, v in pool_tables.items() if k != label}
            with pytest.raises(DataError, match="missing score table"):
                apply_strategy(strategy_pool, spec, fewer)


def test_syn_best_variant_all_needs_no_table_of_a_source_no_record_lists(tmp_path):
    rng = np.random.default_rng(3)
    records = [Record(id=i, raw_caption=f"raw {i}",
                      synthetic_variants=[CaptionVariant("blip2", 0.75, f"b {i}")])
               for i in range(6)]
    sources = ("image", "raw", "syn.blip2.0.75", "syn.spare.1.00")
    write_records(records, {s: unit_rows(rng, 6, 4) for s in sources}, tmp_path / "pool")
    handle = open_pool(tmp_path / "pool")
    tables = {"syn.blip2.0.75": _table(np.linspace(0, 0.5, 6), "syn.blip2.0.75")}
    curated = apply_strategy(handle, StrategySpec("syn_best_variant_all"), tables)
    assert pairs(curated) == [(i, 0) for i in range(6)]


def test_syn_best_variant_all_needs_a_variant_source(tmp_path):
    path = tmp_path / "pool"
    rng = np.random.default_rng(3)
    records = [Record(id=i, raw_caption=f"raw {i}") for i in range(4)]
    write_records(records, {s: unit_rows(rng, 4, 4) for s in ("image", "raw")}, path)
    with pytest.raises(DataError, match="pool has no synthetic caption sources"):
        apply_strategy(open_pool(path), StrategySpec("syn_best_variant_all"), {})


def test_apply_strategy_clusters_once_per_params(strategy_pool, monkeypatch):
    calls = []

    def counted(handle, refs, params):
        calls.append(params)
        return np.arange(10) % 2 == 0

    monkeypatch.setattr(curation, "in1k_cluster_mask", counted)
    refs = strategy_pool.embeddings("image")[:2]
    explicit = ClusterParams(k=3, seed=1)
    specs = [StrategySpec("raw_all", in1k_intersect=True),
             StrategySpec("raw_all", in1k_intersect=True, cluster_params=explicit),
             StrategySpec("raw_top", p=50, in1k_intersect=True),
             StrategySpec("raw_top", p=50)]
    tables, masks = {"raw": _table(np.linspace(0, 0.9, 10))}, {}
    got = [pairs(apply_strategy(strategy_pool, spec, tables, refs, seed=7, masks=masks))
           for spec in specs]
    assert calls == [ClusterParams(k=10, seed=7), explicit]
    assert list(masks) == calls
    assert got[0] == got[1] == [(i, RAW) for i in range(0, 10, 2)]
    assert got[2] == [(i, RAW) for i in (6, 8)]
    assert got[3] == [(i, RAW) for i in range(5, 10)]
    with pytest.raises(ConfigError, match="requires reference embeddings"):
        apply_strategy(strategy_pool, specs[0], tables, None, seed=7, masks={})
    with pytest.raises(ConfigError, match="requires p"):
        apply_strategy(strategy_pool, StrategySpec("raw_top", in1k_intersect=True), tables, refs,
                       seed=7, masks={})
    assert len(calls) == 2


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


def test_strategy_spec_reads_integer_numbers_as_floats():
    spec = StrategySpec.from_dict({"name": "raw_top", "p": 30,
                                   "cluster_params": {"k": 2, "tol": 0}})
    assert (type(spec.p), type(spec.cluster_params.tol)) == (float, float)
    assert spec.to_dict() == {"name": "raw_top", "p": 30.0, "cluster_params": {
        "k": 2, "max_iters": 100, "tol": 0.0, "seed": 0}}
    assert json.dumps(spec.to_dict()["p"]) == "30.0"


@pytest.mark.parametrize("obj, match", [
    ({"name": "syn_all", "syn_source": 5}, "^strategy field 'syn_source' must be a string "
     "or null, got 5$"),
    ({"name": 5}, "^strategy field 'name' must be a string, got 5$"),
    ({"name": "raw_top", "p": None}, "^strategy raw_top requires p$"),
    ({"name": "raw_all", "cluster_params": {"k": None}}, "^cluster_params field 'k' must be "
     "an integer, got None$"),
    ({"name": "raw_all", "cluster_params": {"k": 2, "tol": 10**400}}, "^cluster_params "
     "field 'tol' is too large for a float"),
])
def test_strategy_spec_checks_each_field_type(obj, match):
    with pytest.raises(ConfigError, match=match):
        StrategySpec.from_dict(obj)


def test_apply_strategy_refuses_a_score_table_of_another_size(strategy_pool):
    tables = _tables(np.zeros(9), np.zeros(10))
    with pytest.raises(DataError, match="^score table 'raw' has 9 scores for 10 records$"):
        apply_strategy(strategy_pool, StrategySpec("raw_top", p=30), tables)


def test_resolve_syn_source(strategy_pool):
    labels = strategy_pool.manifest.embedding_sources
    assert resolve_syn_source(labels, "syn.blip2.0.75") == "syn.blip2.0.75"
    assert resolve_syn_source(labels, "coca") == "syn.coca.1.00"
    with pytest.raises(DataError):
        resolve_syn_source(labels, "missing")
    assert resolve_syn_source(["syn.a.0.50", "syn.a.1.00"], "syn.a.0.50") == "syn.a.0.50"
    with pytest.raises(ConfigError):
        resolve_syn_source(["syn.a.0.50", "syn.a.1.00"], "a")
    # a captioner name lies between "syn." and the temperature, dots and all
    assert resolve_syn_source(["syn.a.b.0.50"], "a.b") == "syn.a.b.0.50"
    with pytest.raises(DataError, match="no synthetic source matching 'a'"):
        resolve_syn_source(["syn.a.b.0.50"], "a")
    assert resolve_syn_source(["syn.a.0.50", "syn.a.b.0.50"], "a") == "syn.a.0.50"
    assert resolve_syn_source(["syn.a.0.50", "syn.a.b.0.50"], "a.b") == "syn.a.b.0.50"


def test_curated_set_sorts_and_dedups():
    spec = StrategySpec("raw_all")
    curated = CuratedSet(entries=[(3, 0), (1, RAW), (3, 0), (1, 2)], spec=spec)
    assert pairs(curated) == [(1, RAW), (1, 2), (3, 0)]


# each part: an id order of one choice per id, as apply_strategy builds them
_PARTS = st.lists(st.dictionaries(st.integers(0, 30), st.integers(-1, 3), max_size=20)
                  .map(lambda part: sorted(part.items())), min_size=1, max_size=4)


@given(_PARTS)
@example([[(1, 0), (2, RAW)], [(1, 2), (3, 1)]])  # each id's choices increase: no lexsort
@example([[(1, 0), (2, RAW)], [(1, RAW), (2, RAW)]])  # id 1's second choice is lower
@settings(max_examples=200, deadline=None)
def test_curated_set_of_id_ordered_parts_matches_the_lexsort_oracle(parts):
    """Parts in id order, concatenated with overlapping ids, take at most one
    stable sort by id; the (id, choice) lexsort runs only where an id's
    choices then decrease, and both give the lexsort oracle's sorted
    distinct pairs."""
    entries = np.array([pair for part in parts for pair in part], np.int64).reshape(-1, 2)
    oracle = entries[np.lexsort((entries[:, 1], entries[:, 0]))]
    oracle = [pair for i, pair in enumerate(map(tuple, oracle.tolist()))
              if i == 0 or pair != tuple(oracle[i - 1])]
    choices: dict[int, list[int]] = {}
    for rec_id, choice in entries.tolist():
        choices.setdefault(rec_id, []).append(choice)
    decreasing = any(b < a for seen in choices.values() for a, b in zip(seen, seen[1:]))
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
        curated = CuratedSet(entries=entries, spec=StrategySpec("raw_all"))
    assert lexsort.called == decreasing
    assert pairs(curated) == oracle


@given(st.lists(st.tuples(st.integers(-2**62, 2**62), st.integers(-1, 5)), max_size=40)
       | st.lists(st.tuples(st.integers(-3, 3), st.integers(-1, 1)), max_size=40))
@example([])
@settings(max_examples=200, deadline=None)
def test_curated_set_entries_are_the_sorted_distinct_pairs(entries):
    curated = CuratedSet(entries=entries, spec=StrategySpec("raw_all"))
    assert curated.entries.dtype == np.int64 and curated.entries.shape == (len(curated), 2)
    assert pairs(curated) == sorted(set(entries))
    assert curated.ids().tolist() == [i for i, _ in sorted(set(entries))]


def test_curated_roundtrip(tmp_path):
    spec = StrategySpec("raw_top_plus_syn_rest_filtered", p=30, syn_source="blip2")
    curated = CuratedSet(entries=[(0, RAW), (2, 1), (5, RAW)], spec=spec, tau_used=0.7)
    path = tmp_path / f"curated.{spec.name}.jsonl"
    write_curated(curated, path)
    back = read_curated(path)
    assert pairs(back) == pairs(curated)
    assert back.tau_used == pytest.approx(0.7)
    assert back.spec.name == spec.name
    assert back.spec.p == spec.p


_SPECS = [StrategySpec("raw_all"), StrategySpec("raw_top", p=12.5),
          StrategySpec("raw_top_plus_syn_rest_filtered", p=30, syn_source="bl\u00e9ip\"2")]


@given(entries=st.lists(st.tuples(st.integers(-2**63, 2**63 - 1), st.integers(-1, 9)),
                        max_size=60),
       spec=st.sampled_from(_SPECS),
       tau=st.none() | st.floats(allow_nan=False, allow_infinity=False),
       chunk=st.sampled_from([1, 2, 7, curation._CURATED_CHUNK]))
@example(entries=[], spec=_SPECS[0], tau=None, chunk=1)
@example(entries=[(2**63 - 1, RAW), (-2**63, 0), (5, 2**63 - 1), (3, -2**63)], spec=_SPECS[0],
         tau=None, chunk=1)  # each int64 bound, as an id and as a cap
@settings(max_examples=150, deadline=None)
def test_curated_files_roundtrip_through_the_canonical_lines(entries, spec, tau, chunk):
    curated = CuratedSet(entries=entries, spec=spec, tau_used=tau)
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(curation, "_CURATED_CHUNK", chunk)
        path = Path(tmp) / "c.jsonl"
        write_curated(curated, path)
        text = path.read_bytes()
        assert text == write_checked_curated(
            Path(tmp) / "oracle.jsonl", curated.entries.tolist(), strategy=spec.name,
            tau_used=tau, entries=len(curated), spec=spec.to_dict())
        body = text.decode().partition("\n")[2]
        assert curation._canonical_entries(body).tolist() == curated.entries.tolist()
        back = read_curated(path)
    assert pairs(back) == pairs(curated)
    assert back.tau_used == tau and back.spec == spec


@pytest.mark.parametrize("body, count, problem", [
    pytest.param('{"id": 5, "cap": "raw"}\n{"id":2,"cap":0}\n', 2, "line 2", id="spaces"),
    pytest.param('{"cap":1,"id":3}\n', 1, "line 2", id="key_order"),
    pytest.param('{"id":-0,"cap":-0}\n{"id":4,"cap":"raw"}\n', 2, "line 2", id="minus_zero"),
    pytest.param('{"id":01,"cap":"raw"}\n', 1, "line 2", id="leading_zero"),
    pytest.param('{"id":1,"cap":01}\n', 1, "line 2", id="cap_leading_zero"),
    pytest.param('\n{"id":1,"cap":"raw"}\n  \n\n{"id":3,"cap":2}\n\n', 2, "line 2",
                 id="blank_lines"),
    pytest.param('{"id":1,"cap":"raw"}', 1, "line 2", id="no_final_newline"),
    pytest.param('{"id":1,"cap":"raw"}\r\n{"id":2,"cap":"raw"}\r\n', 2, "line 2", id="crlf"),
    pytest.param('{"id":1,"cap":"raw"}\n{"id":1e2,"cap":"raw"}\n', 2, "line 3", id="exponent"),
    pytest.param('{"id":1,"cap":"raw"}\n{"id":2,"cap":"raw"}garbage\n', 2, "line 3",
                 id="trailing_text"),
    pytest.param('{"id":1,"cap":"raw"}\n{"id":2,"cap":"RAW"}\n', 2, "line 3", id="cap_upper"),
    pytest.param('{"id":1,"cap":"raw","x":0}\n', 1, "line 2", id="extra_key"),
    pytest.param('{"id":1,"cap":"raw"}\n', 2, "header counts 2 entries, file holds 1",
                 id="count_too_high"),
    pytest.param('{"id":1,"cap":"raw"}\n{"id":1,"cap":"raw"}\n', 2,
                 "1 entry line(s) repeat an earlier one", id="repeated_line"),
    pytest.param('{"id":3,"cap":0}\n{"id": 3, "cap": 0}\n', 2, "line 3", id="repeated_entry"),
])
def test_curated_files_mix_does_not_write_are_refused(tmp_path, body, count, problem):
    """Only ``write_curated``'s lines read, even under the header and crc32
    of the entries each line holds as JSON: the first line written otherwise
    is named, and a file of ``mix``'s own lines still meets the count and
    repeat checks."""
    entries = []
    for line in filter(str.strip, body.split("\n")):
        with contextlib.suppress(ValueError):  # a line json cannot read holds no entry
            obj = json.loads(line)
            entries.append((obj["id"], RAW if obj["cap"] == "raw" else obj["cap"]))
    path = tmp_path / "c.jsonl"
    head = write_checked_curated(path, [e for e in entries if {type(v) for v in e} == {int}],
                                 entries=count).partition(b"\n")[0]
    path.write_bytes(head + b"\n" + body.encode())
    if problem.startswith("line"):
        problem += " is not an entry line as mix writes one"
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: not a curated file: "
                                          f"{re.escape(problem)}$"):
        read_curated(path)


def test_read_curated_of_a_large_file_holds_a_few_copies_of_it(tmp_path):
    """The entry-line check keeps no state per line: reading 200k entries
    peaks below four times the file's size, and a bad line near the end is
    still the one named."""
    rng = np.random.default_rng(0)
    entries = np.stack([np.arange(200_000) * 3, rng.integers(-1, 3, 200_000)], axis=1)
    path = tmp_path / "c.jsonl"
    write_curated(CuratedSet(entries=entries, spec=StrategySpec("raw_all")), path)
    back, peak = traced_peak(read_curated, path)
    assert np.array_equal(back.entries, entries)
    assert peak < 4 * path.stat().st_size
    blob = path.read_bytes()
    at = blob.rindex(b'{"id":', 0, len(blob) - 100)
    path.write_bytes(blob[:at] + b" " + blob[at:])
    line = blob.count(b"\n", 0, at) + 1
    with pytest.raises(FormatError, match=f"line {line} is not an entry line as mix writes one$"):
        read_curated(path)


@pytest.mark.parametrize("field", ["id", "cap"])
@pytest.mark.parametrize("number", ["9223372036854775808", "-9223372036854775809",
                                    "9999999999999999999"])
def test_a_checksum_valid_number_past_int64_is_refused_not_saturated(tmp_path, field, number):
    """``np.fromstring`` reads a number past int64 as one of its bounds; a
    file whose crc32 matches that reading is refused all the same."""
    saturated = int(np.fromstring(number, dtype=np.int64, sep=" ")[0])
    assert saturated in (2**63 - 1, -2**63)
    entry = {"id": (saturated, 0), "cap": (4, saturated)}[field]
    path = tmp_path / "c.jsonl"
    blob = write_checked_curated(path, [(1, RAW), entry])
    edited = blob.replace(f'"{field}":{saturated}'.encode(), f'"{field}":{number}'.encode())
    path.write_bytes(edited)
    assert edited != blob
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: not a curated file: "
                                          "an entry holds a number outside int64$"):
        read_curated(path)


def test_write_curated_failing_halfway_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "curated.jsonl"
    write_curated(CuratedSet(entries=[(7, RAW)], spec=StrategySpec("raw_all")), path)
    old = path.read_bytes()
    write_atomic = curation.fileio.write_atomic
    written = []

    def failing_on_the_second_entry_chunk(target, chunks):
        def passed():
            for chunk in chunks:
                if len(written) == 2:  # the header and one chunk of entries
                    raise OSError("disk full")
                written.append(chunk)
                yield chunk
        write_atomic(target, passed())

    monkeypatch.setattr(curation, "_CURATED_CHUNK", 2)
    monkeypatch.setattr(curation.fileio, "write_atomic", failing_on_the_second_entry_chunk)
    curated = CuratedSet(entries=[(0, RAW), (2, 1), (5, RAW)], spec=StrategySpec("raw_all"))
    with pytest.raises(OSError, match="disk full"):
        write_curated(curated, path)
    assert written[1] == b'{"id":0,"cap":"raw"}\n{"id":2,"cap":1}\n'
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["curated.jsonl"]
