import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avembed.errors import CorruptFileError, UndefinedSimilarityError, ValidationError
from avembed.retrieval import build_index, load_index, rank, save_index
from oracles import cosine


def _random_index(n=200, r=8, seed=0):
    rng = np.random.default_rng(seed)
    emb = rng.normal(size=(n, r))
    labels = rng.integers(0, 5, size=n)
    ids = [f"mv{i:05d}" for i in range(n)]
    return build_index(emb, labels, ids), emb, ids


def _similarity(a, b):
    """rank's cosine similarity of query a to the one indexed vector b."""
    return rank(build_index(np.atleast_2d(b), np.zeros(1, dtype=int), ["b"]), a, 1).items[0][1]


class TestCosine:
    """rank's similarity is the cosine of query and indexed vector."""

    def test_self_similarity_is_one(self):
        v = np.random.default_rng(0).normal(size=9)
        assert _similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert _similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=6)
        b = rng.normal(size=6)
        assert abs(_similarity(2 * a, 3 * b) - _similarity(a, b)) < 1e-12

    def test_zero_norm_is_error(self):
        with pytest.raises(UndefinedSimilarityError):
            _similarity(np.zeros(3), np.ones(3))

    @given(scale=st.floats(0.01, 100), seed=st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance_property(self, scale, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=5)
        b = rng.normal(size=5)
        assert abs(_similarity(scale * a, b) - _similarity(a, b)) < 1e-10


class TestBuildIndex:
    def test_roundtrip_queries_identical(self, tmp_path):
        index, _, _ = _random_index(seed=2)
        path = tmp_path / "index.avix"
        save_index(index, path)
        loaded = load_index(path)
        q = np.random.default_rng(3).normal(size=8)
        assert rank(index, q, 10).items == rank(loaded, q, 10).items

    def test_empty_index(self):
        index = build_index(np.empty((0, 4)), np.empty(0, dtype=int), [])
        assert len(index) == 0
        assert rank(index, np.ones(4), 5).items == []

    def test_norm_cache_matches_direct(self):
        index, emb, ids = _random_index(n=1000, seed=4)
        order = np.argsort(ids)
        np.testing.assert_allclose(index.norms, np.linalg.norm(emb[order], axis=1), atol=1e-12)

    def test_duplicate_ids_rejected(self):
        emb = np.ones((2, 3))
        with pytest.raises(ValidationError):
            build_index(emb, np.zeros(2, dtype=int), ["a", "a"])

    def test_zero_norm_embedding_rejected(self):
        emb = np.vstack([np.ones(3), np.zeros(3)])
        with pytest.raises(ValidationError):
            build_index(emb, np.zeros(2, dtype=int), ["a", "b"])

    # finite, but its norm overflows float64; pytest turns numpy's overflow warning into an error
    def test_finite_row_of_overflowing_norm_rejected(self):
        emb = np.ones((3, 4))
        emb[1, 2] = 1e300
        with pytest.raises(ValidationError, match=r"non-finite-norm embeddings cannot be indexed: \['b'\]"):
            build_index(emb, np.zeros(3, dtype=int), ["a", "b", "c"])

    def test_loaded_row_of_overflowing_norm_names_the_file(self, tmp_path):
        index, _, ids = _random_index(n=10, seed=5)
        index.embeddings[4, 0] = 1e300
        path = tmp_path / "index.avix"
        save_index(index, path)
        with pytest.raises(CorruptFileError,
                           match=f"{path}: non-finite-norm embeddings cannot be indexed: \\['{index.ids[4]}'\\]"):
            load_index(path)


class TestRank:
    def test_stored_embedding_ranks_itself_first(self):
        index, emb, ids = _random_index(seed=5)
        got = rank(index, emb[17], 3)
        assert got.items[0][0] == ids[17]
        assert got.items[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_full_size_is_permutation(self):
        index, _, ids = _random_index(n=50, seed=6)
        got = rank(index, np.random.default_rng(7).normal(size=8), 50)
        assert sorted(got.video_ids) == sorted(ids)

    def test_matches_bruteforce_sort(self):
        index, _, _ = _random_index(n=200, seed=8)
        q = np.random.default_rng(9).normal(size=8)
        got = rank(index, q, 10)
        sims = [(vid, cosine(index.embeddings[i], q)) for i, vid in enumerate(index.ids)]
        expected = sorted(sims, key=lambda t: (-t[1], t[0]))[:10]
        assert [v for v, _ in got.items] == [v for v, _ in expected]
        np.testing.assert_allclose([s for _, s in got.items], [s for _, s in expected], atol=1e-12)

    def test_query_rescaling_invariance(self):
        index, _, _ = _random_index(seed=10)
        q = np.random.default_rng(11).normal(size=8)
        assert rank(index, q, 20).video_ids == rank(index, 37.0 * q, 20).video_ids

    def test_prefix_property(self):
        index, _, _ = _random_index(seed=12)
        q = np.random.default_rng(13).normal(size=8)
        small = rank(index, q, 5).video_ids
        big = rank(index, q, 25).video_ids
        assert big[:5] == small

    def test_insertion_order_independent(self):
        rng = np.random.default_rng(14)
        emb = rng.normal(size=(30, 4))
        labels = rng.integers(0, 3, size=30)
        ids = [f"v{i:03d}" for i in range(30)]
        perm = rng.permutation(30)
        i1 = build_index(emb, labels, ids)
        i2 = build_index(emb[perm], labels[perm], [ids[p] for p in perm])
        q = rng.normal(size=4)
        assert rank(i1, q, 30).items == rank(i2, q, 30).items

    def test_ties_break_by_ascending_id(self):
        emb = np.array([[1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])  # all same direction
        index = build_index(emb, np.zeros(3, dtype=int), ["zz", "aa", "mm"])
        got = rank(index, np.array([1.0, 0.0]), 3)
        assert got.video_ids == ["aa", "mm", "zz"]

    def test_n_beyond_size_returns_all(self):
        index, _, _ = _random_index(n=10, seed=15)
        assert len(rank(index, np.ones(8), 99)) == 10

    def test_zero_query_is_error(self):
        index, _, _ = _random_index(seed=16)
        with pytest.raises(UndefinedSimilarityError):
            rank(index, np.zeros(8), 5)

    @pytest.mark.parametrize("value", [1e300, np.inf, np.nan])
    def test_query_of_non_finite_norm_is_error(self, value):
        index, _, _ = _random_index(seed=17)
        query = np.ones(8)
        query[3] = value
        with pytest.raises(UndefinedSimilarityError, match="query of norm"):
            rank(index, query, 5)
