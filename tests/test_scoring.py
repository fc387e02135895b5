import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capforge.errors import DataError, DomainError
from capforge.pool import CaptionVariant, Record, open_pool, write_pool
from capforge.scoring import (
    clip_s,
    cosine,
    recall_at_1,
    score_pool,
    select_best_variant,
    variant_scores,
)

finite_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def test_cosine_identical():
    assert cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0


def test_cosine_orthogonal():
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_cosine_hand_computed():
    # (3,4).(4,3) = 24, norms 5*5 = 25
    assert cosine(np.array([3.0, 4.0]), np.array([4.0, 3.0])) == pytest.approx(0.96, abs=1e-12)


def test_cosine_domain_errors():
    with pytest.raises(DomainError):
        cosine(np.zeros(3), np.ones(3))
    with pytest.raises(DomainError):
        cosine(np.ones(3), np.ones(4))


@given(
    st.lists(finite_floats, min_size=2, max_size=8),
    st.lists(finite_floats, min_size=2, max_size=8),
    st.floats(1e-3, 1e3),
)
@settings(max_examples=200, deadline=None)
def test_cosine_symmetric_and_scale_invariant(u, v, c):
    n = min(len(u), len(v))
    u = np.array(u[:n])
    v = np.array(v[:n])
    if np.linalg.norm(u) == 0 or np.linalg.norm(v) == 0:
        return
    assert cosine(u, v) == pytest.approx(cosine(v, u), abs=1e-12)
    assert cosine(c * u, v) == pytest.approx(cosine(u, v), abs=1e-6)


def test_clip_s_values():
    assert clip_s(-0.3) == 0.0
    assert clip_s(0.208) == pytest.approx(0.52, abs=1e-12)
    assert clip_s(1.0) == 2.5


@given(st.floats(-1, 1), st.floats(-1, 1))
@settings(max_examples=100, deadline=None)
def test_clip_s_monotone(a, b):
    if a <= b:
        assert clip_s(a) <= clip_s(b)


# ---------------------------------------------------------------------------
# score_pool


def test_score_pool_matches_generator_alphas(gen_pool):
    table = score_pool(gen_pool, "raw", write_sidecar=False)
    truth = gen_pool.read_score_table("raw.alpha").scores
    assert np.abs(table.scores - truth).max() < 1e-6


def test_score_pool_single_identical_record(tmp_path):
    vec = np.array([[0.6, 0.8]], dtype=np.float32)
    write_pool(
        [Record(id=0, raw_caption="x")],
        {"image": vec, "raw": vec.copy()},
        tmp_path,
    )
    table = score_pool(open_pool(tmp_path), "raw", write_sidecar=False)
    assert table.scores.tolist() == [1.0]


def test_score_pool_missing_source(gen_pool):
    with pytest.raises(DataError):
        score_pool(gen_pool, "syn.nonexistent.0.10", write_sidecar=False)


def test_score_pool_writes_sidecar(tmp_path):
    from capforge.poolgen import GenConfig, generate_pool

    generate_pool(GenConfig(num_records=50, seed=1, records_per_shard=25), tmp_path)
    handle = open_pool(tmp_path)
    table = score_pool(handle, "raw")
    assert handle.has_scores("raw")
    assert np.array_equal(handle.read_score_table("raw").scores, table.scores)


# ---------------------------------------------------------------------------
# select_best_variant


def _variant_pool(tmp_path, cosines_per_record):
    """Pool where variant k of record i has cosine cosines_per_record[i][k]."""
    dim = 4
    image = np.tile(np.array([1.0, 0, 0, 0], dtype=np.float32), (len(cosines_per_record), 1))
    records = []
    variant_count = len(cosines_per_record[0])
    sources = {}
    temps = [0.5, 0.75, 1.0, 1.5][:variant_count]
    for k, temp in enumerate(temps):
        rows = []
        for cos_list in cosines_per_record:
            c = cos_list[k]
            rows.append([c, np.sqrt(1 - c * c), 0.0, 0.0])
        sources[f"syn.blip2.{temp:.2f}"] = np.array(rows, dtype=np.float32)
    for i, cos_list in enumerate(cosines_per_record):
        records.append(
            Record(
                id=i,
                raw_caption=f"r{i}",
                synthetic_variants=[
                    CaptionVariant("blip2", temp, f"v{k}") for k, temp in enumerate(temps)
                ],
            )
        )
    embeddings = {"image": image, "raw": image.copy(), **sources}
    write_pool(records, embeddings, tmp_path)
    return open_pool(tmp_path)


def test_select_best_variant_argmax(tmp_path):
    handle = _variant_pool(tmp_path, [[0.2, 0.25, 0.22]])
    assert select_best_variant(handle, 0) == 1
    vs = variant_scores(handle, 0)
    assert vs.record_id == 0
    assert vs.scores == pytest.approx([0.2, 0.25, 0.22], abs=1e-6)


def test_select_best_variant_single(tmp_path):
    handle = _variant_pool(tmp_path, [[0.4]])
    assert select_best_variant(handle, 0) == 0


def test_select_best_variant_tie_goes_low(tmp_path):
    handle = _variant_pool(tmp_path, [[0.3, 0.3]])
    assert select_best_variant(handle, 0) == 0


def test_select_best_variant_ignores_lower_appended(tmp_path):
    a = _variant_pool(tmp_path / "a", [[0.2, 0.25]])
    b = _variant_pool(tmp_path / "b", [[0.2, 0.25, 0.1]])
    assert select_best_variant(a, 0) == select_best_variant(b, 0) == 1


def test_select_best_variant_requires_variants(tmp_path):
    vec = np.ones((1, 4), dtype=np.float32)
    write_pool([Record(id=0, raw_caption="x")], {"image": vec}, tmp_path / "p")
    with pytest.raises(DataError):
        select_best_variant(open_pool(tmp_path / "p"), 0)


# ---------------------------------------------------------------------------
# recall@1


def test_recall_self_match():
    embs = np.eye(4)
    assert recall_at_1(embs, embs.copy()) == (1.0, 1.0, 1.0)


def test_recall_cyclic_shift_zero():
    image = np.eye(4)
    text = np.roll(image, shift=1, axis=0)
    assert recall_at_1(image, text) == (0.0, 0.0, 0.0)


def test_recall_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 16))
        dim = int(rng.integers(2, 10))
        img = rng.standard_normal((n, dim))
        txt = rng.standard_normal((n, dim))
        got = recall_at_1(img, txt)

        def unit(m):
            return m / np.linalg.norm(m, axis=1, keepdims=True)

        ui, ut = unit(img), unit(txt)
        i2t_hits = 0
        t2i_hits = 0
        for i in range(n):
            sims_t = [float(ui[i] @ ut[j]) for j in range(n)]
            if max(range(n), key=lambda j: (sims_t[j], -j)) == i:
                i2t_hits += 1
            sims_i = [float(ut[i] @ ui[j]) for j in range(n)]
            if max(range(n), key=lambda j: (sims_i[j], -j)) == i:
                t2i_hits += 1
        assert got[1] == pytest.approx(i2t_hits / n)
        assert got[0] == pytest.approx(t2i_hits / n)
        assert got[2] == pytest.approx((got[0] + got[1]) / 2)


def test_recall_domain_errors():
    with pytest.raises(DomainError):
        recall_at_1(np.zeros((0, 3)), np.zeros((0, 3)))
    with pytest.raises(DomainError):
        recall_at_1(np.ones((2, 3)), np.ones((3, 3)))
    bad = np.ones((2, 3))
    bad[0] = 0
    with pytest.raises(DomainError):
        recall_at_1(bad, np.ones((2, 3)))
