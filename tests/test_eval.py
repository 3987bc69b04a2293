import itertools

import numpy as np
import pytest

from avembed import evaluation
from avembed.cca import fit_cca, project
from avembed.errors import ValidationError
from avembed.evaluation import (
    EvalReport,
    RelevanceJudgment,
    average_precision,
    cross_validate,
    mean_ap,
    partition_folds,
    pr_curve_export,
    precision_recall,
    score_held_out,
)
from oracles import cross_validate_folds, oracle_ap, ranked_from_pattern


class TestPrecisionRecall:
    def test_all_relevant_prefix(self):
        ranked, judgment = ranked_from_pattern([1, 1, 1, 0, 0])
        got = precision_recall(ranked, judgment, [1, 2, 3])
        assert got == [(1, 1.0, 1 / 3), (2, 1.0, 2 / 3), (3, 1.0, 1.0)]

    def test_nothing_relevant_retrieved(self):
        ranked, _ = ranked_from_pattern([0, 0, 0, 0])
        judgment = RelevanceJudgment("q", {"other"})
        got = precision_recall(ranked, judgment, [1, 2, 4])
        assert all(p == 0.0 and r == 0.0 for _, p, r in got)

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(0)
        pattern = [0] * 15 + [1] * 5
        rng.shuffle(pattern)
        ranked, judgment = ranked_from_pattern(pattern)
        got = precision_recall(ranked, judgment, list(range(1, 21)))
        for s, p, r in got:
            hits = sum(pattern[:s])
            assert p == hits / s
            assert r == hits / 5

    def test_recall_monotone(self):
        rng = np.random.default_rng(1)
        pattern = list(rng.integers(0, 2, size=30))
        pattern[0] = 1
        ranked, judgment = ranked_from_pattern(pattern)
        got = precision_recall(ranked, judgment, list(range(1, 31)))
        recalls = [r for _, _, r in got]
        assert all(b >= a for a, b in zip(recalls, recalls[1:]))

    def test_empty_relevant_set_is_error(self):
        ranked, _ = ranked_from_pattern([0, 0])
        with pytest.raises(ValidationError):
            precision_recall(ranked, RelevanceJudgment("q", set()), [1])

    def test_bad_sizes(self):
        ranked, judgment = ranked_from_pattern([1, 0])
        with pytest.raises(ValueError):
            precision_recall(ranked, judgment, [2, 1])
        with pytest.raises(ValueError):
            precision_recall(ranked, judgment, [0])


class TestAveragePrecision:
    def test_perfect_prefix(self):
        ranked, judgment = ranked_from_pattern([1, 1, 0])
        assert average_precision(ranked, judgment) == 1.0

    def test_spec_pattern(self):
        ranked, judgment = ranked_from_pattern([0, 1, 0, 1])
        assert average_precision(ranked, judgment) == 0.5  # (1/2)(1/2 + 2/4)

    def test_exhaustive_all_placements(self):
        for positions in itertools.combinations(range(8), 3):
            pattern = [1 if i in positions else 0 for i in range(8)]
            ranked, judgment = ranked_from_pattern(pattern)
            assert average_precision(ranked, judgment) == oracle_ap(pattern)

    def test_truncated_n(self):
        pattern = [0, 1, 0, 1, 1]
        ranked, judgment = ranked_from_pattern(pattern)
        got = average_precision(ranked, judgment, n=3)
        assert got == oracle_ap(pattern[:3], n_relevant=3)

    def test_ap_bounds_and_top_block_iff_one(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            pattern = list(rng.integers(0, 2, size=8))
            if sum(pattern) == 0:
                continue
            ranked, judgment = ranked_from_pattern(pattern)
            ap = average_precision(ranked, judgment)
            assert 0.0 <= ap <= 1.0
            r = sum(pattern)
            assert (ap == 1.0) == (sum(pattern[:r]) == r)

    def test_empty_relevant_is_error(self):
        ranked, _ = ranked_from_pattern([0])
        with pytest.raises(ValidationError):
            average_precision(ranked, RelevanceJudgment("q", set()))


class TestMeanAp:
    def test_single(self):
        assert mean_ap([0.7]) == 0.7

    def test_two(self):
        assert mean_ap([0.2, 0.4]) == pytest.approx(0.3)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        aps = list(rng.random(20))
        shuffled = list(aps)
        rng.shuffle(shuffled)
        assert mean_ap(aps) == pytest.approx(mean_ap(shuffled), abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_ap([])


def clustered_corpus(n=120, k=4, seed=0):
    """Clusters far apart, with audio noisy enough that the held-out APs differ from query to
    query, so an AP credited to the wrong query shows."""
    rng = np.random.default_rng(seed)
    centroids = 4.0 * rng.normal(size=(k, 4))
    labels = np.repeat(np.arange(k), n // k)
    z = centroids[labels] + 0.5 * rng.normal(size=(n, 4))
    audio = z @ rng.normal(size=(4, 8)) + 0.2 * rng.normal(size=(n, 8))
    visual = z @ rng.normal(size=(4, 12)) + 0.2 * rng.normal(size=(n, 12))
    audio += 4.0 * rng.normal(size=audio.shape)
    ids = [f"mv{i:05d}" for i in range(n)]
    return audio, visual, labels, ids


def cca_fit(audio, visual, labels, r=3, reg=1e-4):
    model = fit_cca(audio, visual, r, reg)
    return (
        lambda m: project(model, np.atleast_2d(m), "x"),
        lambda m: project(model, np.atleast_2d(m), "y"),
    )


class TestCrossValidate:
    def test_folds_partition_laws(self):
        folds = partition_folds(103, 5, seed=4)
        all_rows = np.concatenate(folds)
        assert sorted(all_rows) == list(range(103))
        for a, b in itertools.combinations(folds, 2):
            assert len(np.intersect1d(a, b)) == 0

    def test_same_seed_same_folds(self):
        f1 = partition_folds(50, 5, seed=9)
        f2 = partition_folds(50, 5, seed=9)
        for a, b in zip(f1, f2):
            np.testing.assert_array_equal(a, b)

    def test_fewer_than_two_folds_rejected(self):
        with pytest.raises(ValueError, match="folds must be >= 2"):
            partition_folds(50, 1, seed=0)

    def test_aggregate_map_is_fold_mean(self):
        audio, visual, labels, ids = clustered_corpus(seed=5)
        report = cross_validate(
            audio, visual, labels, ids, cca_fit, folds=4, seed=1, pr_stride=5
        )
        assert report.map_score == pytest.approx(float(np.mean(report.per_fold_map)), abs=1e-12)
        assert 0.0 < report.map_score <= 1.0
        assert len(report.per_query_ap) == len(ids)
        want_ap, want_fold_map, _, _ = cross_validate_folds(
            audio, visual, labels, ids, cca_fit, partition_folds(len(ids), 4, seed=1), 5
        )
        assert len(set(want_ap.values())) > 20
        assert (report.per_query_ap, report.per_fold_map) == (want_ap, want_fold_map)

    def test_missing_cluster_in_fold_reports_census(self):
        audio, visual, labels, ids = clustered_corpus(n=40, k=4, seed=6)
        labels = labels.copy()
        labels[labels == 3] = 2
        labels[0] = 3  # cluster 3 has a single member: most folds miss it
        with pytest.raises(ValidationError, match="census"):
            cross_validate(audio, visual, labels, ids, cca_fit, folds=5, seed=2)

    @pytest.mark.parametrize("pr_stride", [0, -1])
    def test_pr_stride_below_one_rejected(self, pr_stride):
        audio, visual, labels, ids = clustered_corpus(seed=5)
        with pytest.raises(ValueError, match="pr_stride must be >= 1"):
            cross_validate(audio, visual, labels, ids, cca_fit, folds=4, seed=1, pr_stride=pr_stride)

    @pytest.mark.parametrize("pr_stride", [1, 5])
    def test_equals_the_query_by_query_oracle(self, pr_stride):
        audio, visual, labels, ids = clustered_corpus(seed=10)
        audio = audio + 4.0 * np.random.default_rng(10).normal(size=audio.shape)  # so the APs differ
        folds = partition_folds(len(ids), 7, seed=2)
        assert {len(f) for f in folds} == {17, 18}
        report = cross_validate(audio, visual, labels, ids, cca_fit, folds=7, seed=2, pr_stride=pr_stride)
        assert len(set(report.per_query_ap.values())) > 30
        got = (report.per_query_ap, report.per_fold_map, report.pr_points, report.map_score)
        assert got == cross_validate_folds(audio, visual, labels, ids, cca_fit, folds, pr_stride)

    def test_ranks_and_scores_each_row_once_in_order(self, monkeypatch):
        audio, visual, labels, ids = clustered_corpus(n=40, seed=11)
        seen = []
        for name in ("rank", "average_precision", "precision_recall"):
            def counted(*args, _name=name, _real=getattr(evaluation, name), **kwargs):
                seen.append((_name, kwargs["query_id"] if _name == "rank" else args[1].query_id))
                return _real(*args, **kwargs)

            monkeypatch.setattr(evaluation, name, counted)
        aps, pr = score_held_out(*cca_fit(audio, visual, labels), audio, visual, labels, ids, [1, 5])
        per_row = [(name, vid) for vid in ids for name in ("rank", "average_precision", "precision_recall")]
        assert seen == per_row
        assert len(aps) == len(pr) == 40 and all(len(points) == 2 for points in pr)
        seen.clear()
        cross_validate(audio, visual, labels, ids, cca_fit, folds=4, seed=3)
        assert sorted(seen) == sorted(per_row)

    def test_pr_recall_monotone(self):
        audio, visual, labels, ids = clustered_corpus(seed=7)
        report = cross_validate(
            audio, visual, labels, ids, cca_fit, folds=3, seed=3
        )
        recalls = [r for _, _, r in report.pr_points]
        assert all(b >= a - 1e-12 for a, b in zip(recalls, recalls[1:]))
        want_ap, _, want_pr, _ = cross_validate_folds(
            audio, visual, labels, ids, cca_fit, partition_folds(len(ids), 3, seed=3), 1
        )
        assert (report.per_query_ap, report.pr_points) == (want_ap, want_pr)


def read_pr_csv(path):
    """The (size, precision, recall) rows of a PR curve CSV, after its header."""
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    assert header == "size,precision,recall"
    return [(int(s), float(p), float(r)) for s, p, r in (row.split(",") for row in rows)]


class TestPrCurveExport:
    def _report(self):
        return EvalReport(
            per_query_ap={"q": 1.0},
            map_score=1.0,
            pr_points=[(1, 1.0, 0.25), (2, 0.5, 0.25), (3, 2 / 3, 0.5)],
        )

    def test_line_count(self, tmp_path):
        path = tmp_path / "pr.csv"
        pr_curve_export(self._report(), path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[0] == "size,precision,recall"

    def test_reimport_exact(self, tmp_path):
        report = self._report()
        path = tmp_path / "pr.csv"
        pr_curve_export(report, path)
        assert read_pr_csv(path) == report.pr_points

    def test_reimport_exact_on_awkward_floats(self, tmp_path):
        rng = np.random.default_rng(8)
        points = [(int(i + 1), float(p), float(r)) for i, (p, r) in enumerate(rng.random((50, 2)))]
        report = EvalReport(per_query_ap={}, map_score=0.0, pr_points=points)
        path = tmp_path / "pr.csv"
        pr_curve_export(report, path)
        assert read_pr_csv(path) == points

    def test_monotone_recall_on_synthetic_report(self, tmp_path):
        audio, visual, labels, ids = clustered_corpus(n=100, seed=9)
        report = cross_validate(
            audio, visual, labels, ids, cca_fit, folds=2, seed=4
        )
        path = tmp_path / "pr.csv"
        pr_curve_export(report, path)
        points = read_pr_csv(path)
        recalls = [r for _, _, r in points]
        assert all(b >= a - 1e-12 for a, b in zip(recalls, recalls[1:]))
