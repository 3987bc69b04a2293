import numpy as np
import pytest

from avembed.clustering import (
    expand_pairs,
    load_assignments,
    load_seed_sets,
    save_assignments,
    save_seed_sets,
    seeded_kmeans,
)
from avembed.errors import ValidationError


def make_blobs(k=10, per_cluster=100, dim=16, noise_std=0.1, sep_factor=14.0, seed=0):
    """Gaussian blobs whose minimum centroid separation is sep_factor * noise_std."""
    rng = np.random.default_rng(seed)
    centroids = rng.normal(size=(k, dim))
    gaps = [
        np.linalg.norm(centroids[a] - centroids[b]) for a in range(k) for b in range(a + 1, k)
    ]
    centroids *= sep_factor * noise_std / min(gaps)
    labels = np.repeat(np.arange(k), per_cluster)
    points = centroids[labels] + noise_std * rng.normal(size=(k * per_cluster, dim))
    return points, labels, centroids


class TestSeededKmeans:
    def test_single_cluster_is_global_mean(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 5))
        model = seeded_kmeans(x, [x[:1]])
        np.testing.assert_allclose(model.centroids[0], x.mean(axis=0), atol=1e-12)
        expected_inertia = float(((x - x.mean(axis=0)) ** 2).sum())
        assert abs(model.inertia - expected_inertia) < 1e-8

    def test_exact_recovery_on_separated_blobs(self):
        x, labels, _ = make_blobs(k=10, per_cluster=100, noise_std=0.1, seed=1)
        seeds = [x[labels == c][:3] for c in range(10)]
        model = seeded_kmeans(x, seeds)
        assert np.array_equal(model.labels, labels)
        assert model.k == 10

    def test_fixed_point_input(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(6, 4)) * 10
        model = seeded_kmeans(pts, [pts[i : i + 1] for i in range(6)])
        assert np.array_equal(model.labels, np.arange(6))
        assert model.inertia == 0.0
        np.testing.assert_allclose(model.centroids, pts)

    def test_inertia_monotone_nonincreasing(self):
        x, labels, _ = make_blobs(k=5, per_cluster=60, noise_std=0.8, sep_factor=3.0, seed=3)
        seeds = [x[labels == c][:3] for c in range(5)]
        model = seeded_kmeans(x, seeds)
        hist = model.inertia_history
        assert len(hist) == model.iterations_run
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
        assert model.inertia <= hist[-1] + 1e-9

    def test_centroids_are_member_means_at_convergence(self):
        x, labels, _ = make_blobs(k=4, per_cluster=50, noise_std=0.5, sep_factor=6.0, seed=4)
        seeds = [x[labels == c][:2] for c in range(4)]
        model = seeded_kmeans(x, seeds)
        for c in range(4):
            members = x[model.labels == c]
            np.testing.assert_allclose(model.centroids[c], members.mean(axis=0), atol=1e-9)

    def test_ties_go_to_lower_index(self):
        x = np.array([[0.0, 0.0], [0.0, 2.0]])
        seeds = [np.array([[1.0, 1.0]]), np.array([[-1.0, 1.0]])]  # equidistant from both points
        model = seeded_kmeans(x, seeds, max_iter=1)
        assert np.array_equal(model.labels, [0, 0])

    def test_empty_cluster_reseeded_not_dropped(self):
        # second seed far from every point: its cluster empties immediately
        x = np.vstack([np.zeros((5, 2)), np.ones((5, 2))])
        seeds = [np.zeros((1, 2)), np.full((1, 2), 100.0), np.ones((1, 2))]
        model = seeded_kmeans(x, seeds)
        assert model.k == 3
        assert len(np.unique(model.labels)) >= 2

    def test_argument_errors(self):
        x = np.random.default_rng(5).normal(size=(3, 2))
        with pytest.raises(ValueError):
            seeded_kmeans(x, [])
        with pytest.raises(ValueError):
            seeded_kmeans(x, [x[:1]] * 4)  # n < k
        with pytest.raises(ValueError):
            seeded_kmeans(x, [np.zeros((1, 3))])  # wrong dim


class TestExpandPairs:
    def test_f0_is_identity_pairing(self):
        labels = np.random.default_rng(6).integers(0, 10, size=8000)
        ps = expand_pairs(labels, f=0.0, seed=1)
        assert len(ps) == 8000
        assert np.array_equal(ps.audio_indices, np.arange(8000))
        assert np.array_equal(ps.visual_indices, np.arange(8000))

    def test_balanced_half_fraction_counts(self):
        labels = np.repeat(np.arange(10), 800)
        ps = expand_pairs(labels, f=0.5, seed=2)
        assert len(ps) == 8000 * 400  # round(0.5 * 800) partners per audio

    def test_target_count_exact(self):
        labels = np.repeat(np.arange(10), 800)
        ps = expand_pairs(labels, f=0.5, seed=3, target_count=800_000)
        assert len(ps) == 800_000
        # identities all present
        ident = ps.pairs[ps.pairs[:, 0] == ps.pairs[:, 1]]
        assert ident.shape[0] == 8000

    def test_exhaustive_full_fraction_count(self):
        labels = np.repeat(np.arange(10), 800)
        ps = expand_pairs(labels, f=1.0, seed=4)
        counts = np.bincount(labels)
        assert len(ps) == int((counts * counts).sum())  # 6.4M

    def test_two_items_same_cluster_full(self):
        ps = expand_pairs(np.array([0, 0]), f=1.0, seed=5)
        got = {tuple(row[:2]) for row in ps.pairs}
        assert got == {(0, 0), (1, 1), (0, 1), (1, 0)}

    def test_pairs_share_cluster_and_unique(self):
        rng = np.random.default_rng(7)
        labels = rng.integers(0, 4, size=60)
        ps = expand_pairs(labels, f=0.6, seed=8)
        seen = set()
        for a, v, c in ps.pairs:
            assert labels[a] == labels[v] == c
            assert (a, v) not in seen
            seen.add((a, v))
        for i in range(60):
            assert (i, i) in seen  # identities always present

    def test_deterministic_per_seed(self):
        labels = np.random.default_rng(9).integers(0, 5, size=100)
        p1 = expand_pairs(labels, f=0.4, seed=11)
        p2 = expand_pairs(labels, f=0.4, seed=11)
        p3 = expand_pairs(labels, f=0.4, seed=12)
        assert np.array_equal(p1.pairs, p2.pairs)
        assert not np.array_equal(p1.pairs, p3.pairs)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            expand_pairs(np.array([0, 1]), f=1.5)

    def test_target_below_identities_rejected(self):
        with pytest.raises(ValueError):
            expand_pairs(np.zeros(10, dtype=int), f=0.0, seed=0, target_count=5)


class TestSupervisionFiles:
    def test_assignments_roundtrip(self, tmp_path):
        path = tmp_path / "assignments.jsonl"
        save_assignments(["a", "b", "c"], np.array([2, 0, 1]), path)
        assert load_assignments(path) == {"a": 2, "b": 0, "c": 1}

    def test_seed_sets_roundtrip(self, tmp_path):
        path = tmp_path / "seeds.json"
        cats = {"angry": ["v1", "v2", "v3"], "calm": ["v4", "v5", "v6"]}
        save_seed_sets(cats, path)
        assert load_seed_sets(path) == cats

    def test_empty_category_rejected(self, tmp_path):
        path = tmp_path / "seeds.json"
        save_seed_sets({"angry": []}, path)
        with pytest.raises(ValidationError):
            load_seed_sets(path)
