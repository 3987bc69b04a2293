"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured figure when the assertion holds (run with -s or check captured
output)."""

import itertools
import time

import numpy as np

from avembed.attention import (
    attention_distribution,
    bilstm_states,
    score_states,
    select_top_k,
)
from avembed.cca import fit_cca, fit_cluster_cca, fit_kcca
from avembed.clustering import seeded_kmeans
from avembed.data import SynthConfig
from avembed.deep import TrainConfig, corr_gradient, total_correlation, train_dcca, train_sdcca
from avembed.evaluation import average_precision, mean_ap, score_held_out
from avembed.pipeline import embedders, prepare_synthetic, seed_sets_from_labels
from oracles import oracle_ap, ranked_from_pattern


def report(n, name, detail):
    print(f"[criterion {n}] {name}: PASS ({detail})")


class TestCriterion1CcaPopulationCorrelation:
    def test_population_first_correlation(self):
        t0 = time.monotonic()
        deviations = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n = 5000
            z = rng.normal(size=(n, 1))
            noise = np.sqrt(0.25)
            x = np.hstack([z + noise * rng.normal(size=(n, 1)), rng.normal(size=(n, 3))])
            y = np.hstack([z + noise * rng.normal(size=(n, 1)), rng.normal(size=(n, 3))])
            model = fit_cca(x, y, 2, reg=1e-6)
            deviations.append(abs(model.correlations[0] - 0.8))
        elapsed = time.monotonic() - t0
        assert max(deviations) <= 0.03
        assert elapsed < 5.0
        report(1, "CCA population correlation 0.8 +- 0.03 over 5 seeds",
               f"max deviation {max(deviations):.4f}, {elapsed:.2f}s")


class TestCriterion2WhiteningConstraints:
    def test_fifty_random_fits(self):
        rng = np.random.default_rng(123)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(40, 300))
            dx = int(rng.integers(2, 10))
            dy = int(rng.integers(2, 10))
            x = rng.normal(size=(n, dx)) @ rng.normal(size=(dx, dx))
            y = rng.normal(size=(n, dy)) @ rng.normal(size=(dy, dy))
            r = min(dx, dy)
            model = fit_cca(x, y, r)
            for m, w, reg in ((x, model.wx, model.reg_x), (y, model.wy, model.reg_y)):
                c = m - m.mean(axis=0)
                sigma = c.T @ c / (n - 1) + reg * np.eye(m.shape[1])
                worst = max(worst, float(np.abs(w.T @ sigma @ w - np.eye(r)).max()))
        assert worst <= 1e-6
        report(2, "W^T Sigma W = I within 1e-6 on both views, 50/50 fits",
               f"worst deviation {worst:.2e}")


class TestCriterion3GradientVsFiniteDifferences:
    def test_twenty_instances(self):
        t0 = time.monotonic()
        h = 1e-5
        r, reg = 4, 1e-3
        worst = 0.0
        master = np.random.default_rng(7)
        for _ in range(20):
            rng = np.random.default_rng(int(master.integers(1 << 30)))
            base = rng.normal(size=(64, 6))
            fx = np.hstack([base, rng.normal(size=(64, 2))]) + 0.4 * rng.normal(size=(64, 8))
            fy = 0.6 * base + 0.8 * rng.normal(size=(64, 6))
            gx, gy = corr_gradient(fx, fy, r, reg)
            for mat, grad in ((fx, gx), (fy, gy)):
                fd = np.zeros_like(mat)
                it = np.nditer(mat, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = mat[idx]
                    mat[idx] = orig + h
                    up = total_correlation(fx, fy, r, reg)
                    mat[idx] = orig - h
                    down = total_correlation(fx, fy, r, reg)
                    mat[idx] = orig
                    fd[idx] = (up - down) / (2 * h)
                worst = max(worst, float(np.linalg.norm(grad - fd) / np.linalg.norm(fd)))
        elapsed = time.monotonic() - t0
        assert worst <= 1e-4
        assert elapsed < 10.0
        report(3, "gradient vs central differences (20 instances, n=64, 8x6, r=4)",
               f"max relative error {worst:.2e}, {elapsed:.2f}s")


class TestCriterion4ObjectiveConsistency:
    def test_twenty_batches(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(30, 120))
            p = int(rng.integers(3, 9))
            q = int(rng.integers(3, 9))
            shared = rng.normal(size=(n, min(p, q)))
            fx = np.pad(shared, ((0, 0), (0, p - shared.shape[1]))) + rng.normal(size=(n, p))
            fy = np.pad(shared, ((0, 0), (0, q - shared.shape[1]))) + rng.normal(size=(n, q))
            r = int(rng.integers(1, min(p, q) + 1))
            reg = 10.0 ** rng.uniform(-5, -2)
            gap = abs(total_correlation(fx, fy, r, reg) - float(fit_cca(fx, fy, r, reg).correlations.sum()))
            worst = max(worst, gap)
        assert worst <= 1e-6
        report(4, "total correlation equals sum of CCA correlations on 20 batches",
               f"worst gap {worst:.2e}")


class TestCriterion5KccaLinearDegeneracy:
    def test_linear_kernel_matches_cca(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(300, 5))
        y = x @ rng.normal(size=(5, 5)) + rng.normal(size=(300, 5))
        kappa = 1e-3
        km = fit_kcca(x, y, 4, beta=0.4, kappa=kappa, kernel="linear")
        cm = fit_cca(x, y, 4, reg=kappa)
        gap = float(np.abs(km.correlations - cm.correlations).max())
        assert gap <= 1e-3
        report(5, "linear-kernel KCCA matches CCA at n=300, d=5", f"max gap {gap:.2e}")


class TestCriterion6ApExactness:
    def test_all_placements(self):
        # the brute-force evaluator is oracles.oracle_ap, a literal transcription of the formula
        checked = 0
        for positions in itertools.combinations(range(8), 3):
            pattern = [1 if i in positions else 0 for i in range(8)]
            assert average_precision(*ranked_from_pattern(pattern)) == oracle_ap(pattern)
            checked += 1
        assert checked == 56
        report(6, "AP equals brute-force evaluator on all C(8,3) placements", "56/56 exact")


class TestCriterion7ChunkSelection:
    def test_exhaustive_match_over_fixture_draws(self, planted_attention):
        rng = np.random.default_rng(31)
        configs = ((3, 1), (6, 2), (6, 3), (9, 3))
        checked = 0
        for draw in range(100):
            feats = rng.uniform(-2, 2, size=(36, 8))
            states = bilstm_states(feats, planted_attention)
            theta = attention_distribution(score_states(states, planted_attention))
            for c, k in configs:
                sel = select_top_k(theta, c, k)
                macro = theta.reshape(c, -1).max(axis=1)
                best, best_score = None, -np.inf
                for subset in itertools.combinations(range(c), k):
                    score = sum(macro[i] for i in subset)
                    if score > best_score:
                        best, best_score = sorted(subset), score
                assert sel.selected_indices == best
                checked += 1
        assert checked == 400
        report(7, "top-k selection matches exhaustive enumeration", "400/400 draws x configs")


class TestCriterion8SeededKmeans:
    def test_exact_recovery_five_seeds(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            k, per, dim, noise_std = 10, 100, 16, 0.1
            centroids = rng.normal(size=(k, dim))
            gaps = [np.linalg.norm(centroids[a] - centroids[b])
                    for a in range(k) for b in range(a + 1, k)]
            centroids *= 14.0 * noise_std / min(gaps)
            sep = min(
                np.linalg.norm(centroids[a] - centroids[b])
                for a in range(k) for b in range(a + 1, k)
            )
            assert sep >= 10 * noise_std  # construction satisfies the stated separation
            labels = np.repeat(np.arange(k), per)
            points = centroids[labels] + noise_std * rng.normal(size=(k * per, dim))
            seeds = [points[labels == c][:3] for c in range(k)]
            model = seeded_kmeans(points, seeds)
            assert np.array_equal(model.labels, labels)
        report(8, "seeded k-means exact recovery on 10 blobs, 1000 points, 5 seeds", "5/5 exact")


class TestCriterion9QualitativeOrdering:
    """Mean MAP over 5 seeds: S-DCCA(f=1) > C-CCA(f=1) > DCCA and
    S-DCCA > CCA, each gap at least 5% relative, inside the 15-minute budget."""

    NOISE = 1.2
    LATENT = 16
    R = 5
    REG = 0.25
    EPOCHS = 8
    BATCH = 512
    AUDIO_LAYERS = (64, 32)
    VISUAL_LAYERS = (256, 64)

    def _run_seed(self, seed):
        cfg = SynthConfig(
            n_videos=1000, n_clusters=10, latent_dim=self.LATENT,
            noise_std=self.NOISE, seed=1000 + seed,
        )
        prepared = prepare_synthetic(cfg)
        seed_vectors, _ = seed_sets_from_labels(prepared.audio_mean, prepared.manifest_labels)
        labels = seeded_kmeans(prepared.audio_mean, seed_vectors).labels
        rng = np.random.default_rng(seed)
        perm = rng.permutation(len(prepared))
        n_test = len(prepared) // 5
        test_idx = np.sort(perm[:n_test])
        train_idx = np.sort(perm[n_test:])
        audio, visual, ids = prepared.audio_mean, prepared.visual, prepared.ids
        tc = TrainConfig(
            batch_size=self.BATCH, epochs=self.EPOCHS, learning_rate=1e-3,
            dropout=0.2, r=self.R, reg=self.REG, seed=seed,
        )

        def map_for(model):
            aps, _ = score_held_out(*embedders(model), audio[test_idx], visual[test_idx], labels[test_idx],
                                    [ids[i] for i in test_idx])
            return mean_ap(aps)

        return {
            "cca": map_for(fit_cca(audio[train_idx], visual[train_idx], self.R, self.REG)),
            "ccca": map_for(fit_cluster_cca(
                audio[train_idx], visual[train_idx], labels[train_idx],
                f=1.0, r=self.R, reg=self.REG, seed=seed,
            )),
            "dcca": map_for(train_dcca(
                audio[train_idx], visual[train_idx], tc,
                audio_layers=self.AUDIO_LAYERS, visual_layers=self.VISUAL_LAYERS,
            )),
            "sdcca": map_for(train_sdcca(
                audio[train_idx], visual[train_idx], labels[train_idx], f=1.0, cfg=tc,
                audio_layers=self.AUDIO_LAYERS, visual_layers=self.VISUAL_LAYERS,
            )),
        }

    def test_method_ordering(self):
        t0 = time.monotonic()
        per_seed = {k: [] for k in ("cca", "ccca", "dcca", "sdcca")}
        for seed in range(5):
            scores = self._run_seed(seed)
            for k, v in scores.items():
                per_seed[k].append(v)
        elapsed = time.monotonic() - t0
        means = {k: float(np.mean(v)) for k, v in per_seed.items()}
        assert means["sdcca"] >= 1.05 * means["ccca"]
        assert means["ccca"] >= 1.05 * means["dcca"]
        assert means["sdcca"] >= 1.05 * means["cca"]
        assert elapsed < 15 * 60
        report(
            9,
            "qualitative ordering S-DCCA > C-CCA > DCCA and S-DCCA > CCA at >=5% gaps",
            "mean MAP "
            + ", ".join(f"{k}={means[k]:.3f}" for k in ("cca", "ccca", "dcca", "sdcca"))
            + f"; gaps s/c={means['sdcca']/means['ccca']:.2f},"
            + f" c/d={means['ccca']/means['dcca']:.2f},"
            + f" s/cca={means['sdcca']/means['cca']:.2f}; {elapsed:.0f}s",
        )


class TestCriterion10EvalDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        from avembed.cli import main

        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--videos", "40", "--clusters", "4",
                     "--latent-dim", "6", "--noise-std", "0.2", "--seed", "13"]) == 0
        contents = []
        for name in ("run1", "run2"):
            out_dir = tmp_path / name
            code = main(["eval", "--dataset", str(data), "--out-dir", str(out_dir),
                         "--methods", "cca,ccca", "--folds", "2", "--seed", "3",
                         "--r", "4", "--f", "1.0", "--pr-stride", "4",
                         "--attention-seed", "1"])
            assert code == 0
            csvs = sorted(out_dir.glob("*.csv"))
            assert len(csvs) == 9  # map matrix + 2 methods x 4 configs
            contents.append({p.name: p.read_bytes() for p in csvs})
        assert contents[0] == contents[1]
        report(10, "cmd_eval rerun with identical seed is byte-identical",
               f"{len(contents[0])} CSV files compared equal")


class TestCriterion11PrMonotonicity:
    def test_recall_nondecreasing_for_every_query(self):
        rng = np.random.default_rng(41)
        n, k = 50, 5
        centroids = 3.0 * rng.normal(size=(k, 6))
        labels = np.repeat(np.arange(k), n // k)
        z = centroids[labels] + 0.8 * rng.normal(size=(n, 6))
        audio = z @ rng.normal(size=(6, 10)) + 0.3 * rng.normal(size=(n, 10))
        visual = z @ rng.normal(size=(6, 14)) + 0.3 * rng.normal(size=(n, 14))
        ids = [f"mv{i:05d}" for i in range(n)]
        model = fit_cca(audio, visual, 4, 1e-3)
        _, pr = score_held_out(*embedders(model), audio, visual, labels, ids, range(1, n + 1))
        for points in pr:
            recalls = [r for _, _, r in points]
            assert all(b >= a for a, b in zip(recalls, recalls[1:]))
        assert len(pr) == 50
        report(11, "recall non-decreasing in output size for every query", "50/50 queries")
