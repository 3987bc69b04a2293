import json

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
from avembed.errors import FormatError, ValidationError
import oracles


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


def _two_blobs(*far):
    """Six points around the origin and six around (4, 4, 4), seeded by two of each and, between
    them, by one point at each value of far."""
    rng = np.random.default_rng(1)
    x = np.vstack([c + 0.3 * rng.normal(size=(6, 3)) for c in (np.zeros(3), np.full(3, 4.0))])
    return x, [x[:2], *(np.full((1, 3), v) for v in far), x[6:8]], {}


def _gaussian(**options):
    x = np.random.default_rng(3).normal(size=(40, 4))
    return x, [x[i::10][:2] for i in range(4)], options


# name -> (features, seed sets, options) of seeded_kmeans; each case ends its iterations in its own
# way, and the first two reach the reseed of an emptied cluster, which no program run is known to reach
_KMEANS_CASES = {
    # the seed at 50 takes no point in the first step and is reseeded; then the labels repeat
    "one-emptied": lambda: _two_blobs(50.0),
    # the seeds at 50 and 60 both empty in the first step and share their farthest point, which
    # the first takes, so the second is reseeded to the next farthest
    "two-emptied-at-once": lambda: _two_blobs(50.0, 60.0),
    # no improvement is below a tol of -inf: the labels repeating stops the run, after 5 steps
    "labels-converge": lambda: _gaussian(tol=-np.inf),
    # an improvement below 5.0 stops the run at step 4, while the labels still change
    "tol-converges": lambda: _gaussian(tol=5.0),
    # two steps run out before either test stops the run
    "max-iter-reached": lambda: _gaussian(max_iter=2),
}


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

    @pytest.mark.parametrize("case", list(_KMEANS_CASES))
    def test_equals_the_two_loop_reference_to_the_bit(self, case):
        x, seeds, options = _KMEANS_CASES[case]()
        got, want = seeded_kmeans(x, seeds, **options), oracles.seeded_kmeans(x, seeds, **options)
        assert got.centroids.tobytes() == want.centroids.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()
        assert (got.k, got.inertia, got.inertia_history, got.iterations_run) == (
            want.k, want.inertia, want.inertia_history, want.iterations_run)

    def test_argument_errors(self):
        x = np.random.default_rng(5).normal(size=(3, 2))
        with pytest.raises(ValueError):
            seeded_kmeans(x, [])
        with pytest.raises(ValueError):
            seeded_kmeans(x, [x[:1]] * 4)  # n < k
        with pytest.raises(ValueError):
            seeded_kmeans(x, [np.zeros((1, 3))])  # wrong dim

    def test_empty_seed_set_rejected(self):
        x = np.random.default_rng(5).normal(size=(3, 2))
        with pytest.raises(ValueError, match=r"^seed sets \[1\] are empty$"):
            seeded_kmeans(x, [x[:1], x[:0]])


def _three_column_pairs(labels, f, seed, target_pairs):
    """(audio, visual, label) rows as an earlier expand_pairs built them: the fraction loop drew
    partners with each row's own index added, then removed it; target_pairs sampled labelled cells."""
    la = np.asarray(labels, dtype=np.int64)
    n = la.shape[0]
    rng = np.random.default_rng(seed)
    identity = np.column_stack([np.arange(n), np.arange(n), la])
    members = {int(c): np.flatnonzero(la == c) for c in np.unique(la)}
    if target_pairs is not None:
        a_all, v_all, l_all = [], [], []
        for c, idx in sorted(members.items()):
            a, v = np.repeat(idx, idx.shape[0]), np.tile(idx, idx.shape[0])
            keep = a != v
            a_all.append(a[keep])
            v_all.append(v[keep])
            l_all.append(np.full(keep.sum(), c, dtype=np.int64))
        a_all, v_all, l_all = (np.concatenate(x) for x in (a_all, v_all, l_all))
        chosen = rng.choice(a_all.shape[0], size=target_pairs - n, replace=False)
        chosen.sort()
        return np.vstack([identity, np.column_stack([a_all[chosen], v_all[chosen], l_all[chosen]])])
    if f == 0.0:
        return identity
    rows = [identity]
    for i in range(n):
        cluster = members[int(la[i])]
        count = max(1, int(round(f * cluster.shape[0])))
        if count >= cluster.shape[0]:
            partners = cluster
        else:
            others = cluster[cluster != i]
            chosen = rng.choice(others, size=count - 1, replace=False) if count > 1 else np.empty(0, np.int64)
            partners = np.concatenate([[i], chosen])
        partners = np.sort(partners[partners != i])
        if partners.size:
            rows.append(np.column_stack([np.full(partners.size, i), partners, np.full(partners.size, la[i])]))
    return np.vstack(rows)


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
        ps = expand_pairs(labels, f=0.5, seed=3, target_pairs=800_000)
        assert len(ps) == 800_000
        # identities all present
        assert np.count_nonzero(ps.audio_indices == ps.visual_indices) == 8000

    def test_exhaustive_full_fraction_count(self):
        labels = np.repeat(np.arange(10), 800)
        ps = expand_pairs(labels, f=1.0, seed=4)
        counts = np.bincount(labels)
        assert len(ps) == int((counts * counts).sum())  # 6.4M

    def test_two_items_same_cluster_full(self):
        ps = expand_pairs(np.array([0, 0]), f=1.0, seed=5)
        got = set(zip(ps.audio_indices.tolist(), ps.visual_indices.tolist()))
        assert got == {(0, 0), (1, 1), (0, 1), (1, 0)}

    def test_pairs_share_cluster_and_unique(self):
        rng = np.random.default_rng(7)
        labels = rng.integers(0, 4, size=60)
        ps = expand_pairs(labels, f=0.6, seed=8)
        seen = set()
        for a, v in zip(ps.audio_indices, ps.visual_indices):
            assert labels[a] == labels[v]
            assert (a, v) not in seen
            seen.add((a, v))
        for i in range(60):
            assert (i, i) in seen  # identities always present

    def test_deterministic_per_seed(self):
        labels = np.random.default_rng(9).integers(0, 5, size=100)
        p1 = expand_pairs(labels, f=0.4, seed=11)
        p2 = expand_pairs(labels, f=0.4, seed=11)
        p3 = expand_pairs(labels, f=0.4, seed=12)
        assert np.array_equal(p1.audio_indices, p2.audio_indices)
        assert np.array_equal(p1.visual_indices, p2.visual_indices)
        assert not np.array_equal(p1.visual_indices, p3.visual_indices)

    @pytest.mark.parametrize("labels, f, target_pairs", [
        (np.random.default_rng(13).integers(0, 5, size=90), 0.0, None),
        (np.random.default_rng(13).integers(0, 5, size=90), 0.4, None),
        (np.random.default_rng(13).integers(0, 5, size=90), 0.5, None),
        (np.random.default_rng(13).integers(0, 5, size=90), 1.0, None),
        (np.array([0, 1, 1, 1, 2, 2, 2, 2, 2, 2]), 0.5, None),  # cluster 0 is a singleton
        (np.array([0, 0, 0, 0, 1, 1, 1, 1, 1, 1]), 0.2, None),  # round(0.2 * size) is 1: no draw
        (np.random.default_rng(13).integers(0, 5, size=90), 0.5, 700),
    ], ids=["f0", "f0.4", "f0.5", "f1", "singleton", "no-draw", "target-count"])
    def test_index_vectors_match_the_three_column_stream(self, labels, f, target_pairs):
        want = _three_column_pairs(labels, f, 14, target_pairs)
        got = expand_pairs(labels, f=f, seed=14, target_pairs=target_pairs)
        assert np.array_equal(got.audio_indices, want[:, 0])
        assert np.array_equal(got.visual_indices, want[:, 1])
        assert len(got) == want.shape[0]

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            expand_pairs(np.array([0, 1]), f=1.5)

    def test_target_below_identities_rejected(self):
        with pytest.raises(ValueError):
            expand_pairs(np.zeros(10, dtype=int), f=0.0, seed=0, target_pairs=5)


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

    @pytest.mark.parametrize("version, error", [
        ({}, None), ({"version": 1}, None),
        ({"version": 99}, "key 'version' is 99; only version 1 is supported"),
        ({"version": "1"}, "key 'version'"), ({"version": None}, "key 'version'"),
    ], ids=["absent", "1", "99", "str", "null"])
    def test_seeds_version_absent_reads_as_1_and_any_other_is_rejected(self, tmp_path, version, error):
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps({**version, "categories": {"calm": ["v1"]}}))
        if error is None:
            assert load_seed_sets(path) == {"calm": ["v1"]}
        else:
            with pytest.raises(FormatError, match=error):
                load_seed_sets(path)

    def test_empty_category_rejected(self, tmp_path):
        path = tmp_path / "seeds.json"
        save_seed_sets({"angry": []}, path)
        with pytest.raises(ValidationError):
            load_seed_sets(path)
