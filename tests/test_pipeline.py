import numpy as np
import pytest

from avembed.attention import attention_distribution, lstm_step, random_attention_params, select_top_k
from avembed.data import SynthConfig, write_dataset
from avembed.errors import ValidationError
from avembed.evaluation import cross_validate
from avembed.pipeline import (
    chunk_selection_for,
    cluster_dataset,
    embedders,
    load_model,
    make_trainer,
    prepare_dataset,
    prepare_synthetic,
    query_matrix,
    representation_from_selection,
    save_model,
    seed_sets_from_labels,
    train_method,
)

CFG = SynthConfig(n_videos=40, n_clusters=4, latent_dim=6, noise_std=0.1, seed=0)


@pytest.fixture(scope="module")
def prepared():
    return prepare_synthetic(CFG)


class TestPrepare:
    def test_shapes(self, prepared):
        assert len(prepared) == 40
        assert prepared.audio_mean.shape == (40, 128)
        assert prepared.visual.shape == (40, 1024)
        assert prepared.manifest_labels is not None
        for i, length in enumerate(prepared.lengths):
            assert prepared.chunk_means[i].shape == (length // 3, 128)

    def test_matches_disk_roundtrip(self, prepared, tmp_path):
        write_dataset(CFG, tmp_path / "ds")
        from_disk = prepare_dataset(tmp_path / "ds")
        assert from_disk.ids == prepared.ids
        np.testing.assert_allclose(from_disk.audio_mean, prepared.audio_mean, atol=1e-12)
        np.testing.assert_allclose(from_disk.visual, prepared.visual, atol=1e-12)

    def test_mismatched_lengths_flagged(self, tmp_path):
        import json

        root = tmp_path / "ds"
        write_dataset(SynthConfig(n_videos=4, n_clusters=2, latent_dim=3, seed=1), root)
        lines = (root / "manifest.jsonl").read_text().strip().splitlines()
        entry = json.loads(lines[0])
        # point the visual side at a different video's file: frame counts differ
        other = json.loads(lines[1])
        if other["length_sec"] == entry["length_sec"]:
            other = json.loads(lines[2])
        if other["length_sec"] == entry["length_sec"]:
            pytest.skip("generator produced equal lengths for all probes")
        entry["visual_path"] = other["visual_path"]
        lines[0] = json.dumps(entry)
        (root / "manifest.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="truncate equally"):
            prepare_dataset(root)


class TestQueryMatrix:
    def test_mean_mode(self, prepared):
        np.testing.assert_array_equal(query_matrix(prepared, "mean"), prepared.audio_mean)

    def test_chunk_modes_shapes(self, prepared):
        params = random_attention_params(128, seed=1)
        for c, k in ((3, 1), (6, 2), (9, 3)):
            got = query_matrix(prepared, (c, k), params)
            assert got.shape == (40, 128)
            assert np.all(np.isfinite(got))

    def test_non_divisible_base_chunks_truncated(self):
        # 213 s -> 71 base chunks; c=3 keeps the first 69
        params = random_attention_params(128, seed=2)
        prepared = prepare_synthetic(
            SynthConfig(n_videos=3, n_clusters=1, latent_dim=4, length_range=(213, 213), seed=3)
        )
        sel = chunk_selection_for(prepared.chunk_maxes[0], params, 3, 2)
        assert sel.distribution.shape == (69,)
        rep = representation_from_selection(prepared.chunk_means[0], sel)
        assert rep.shape == (128,)

    def test_selections_match_per_step_oracle(self):
        # the eval-sweep corpus and stand-in scorer: every selection of the
        # joint recurrence equals the one of chained per-direction lstm_steps
        corpus = prepare_synthetic(SynthConfig(n_videos=150, n_clusters=10, noise_std=0.5, seed=0))
        params = random_attention_params(128, seed=0)

        def oracle(feats, c, k):
            def run(seq, lstm):
                h, cell, out = np.zeros(lstm.hidden_dim), np.zeros(lstm.hidden_dim), []
                for x in seq:
                    h, cell = lstm_step(x, h, cell, lstm)
                    out.append(h)
                return out

            fwd = run(feats, params.forward_lstm)
            bwd = run(feats[::-1], params.backward_lstm)[::-1]
            u = [
                params.w_out @ np.tanh(params.w_forward @ a + params.w_backward @ b + params.bias)
                for a, b in zip(fwd, bwd)
            ]
            return select_top_k(attention_distribution(np.array(u)), c, k)

        for maxes in corpus.chunk_maxes:
            for c, k in ((3, 1), (6, 2), (9, 3)):
                got = chunk_selection_for(maxes, params, c, k)
                ref = oracle(maxes[: (maxes.shape[0] // c) * c], c, k)
                assert got.selected_indices == ref.selected_indices
                np.testing.assert_allclose(got.distribution, ref.distribution, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("c, k", [(0, 0), (3, 0), (3, 4)])
    def test_top_k_outside_one_to_c_rejected(self, prepared, c, k):
        params = random_attention_params(128, seed=0)
        with pytest.raises(ValidationError, match="top-k"):
            chunk_selection_for(prepared.chunk_maxes[0], params, c, k)

    def test_selection_requires_params(self, prepared):
        with pytest.raises(ValueError):
            query_matrix(prepared, (3, 1), None)


class TestClusterDataset:
    def test_recovers_generator_labels(self, prepared):
        model = cluster_dataset(prepared)
        assert np.array_equal(model.labels, prepared.manifest_labels)

    def test_explicit_seed_sets(self, prepared):
        seeds, rows = seed_sets_from_labels(prepared.audio_mean, prepared.manifest_labels)
        assert all(len(r) == 3 for r in rows)
        model = cluster_dataset(prepared, seeds)
        assert np.array_equal(model.labels, prepared.manifest_labels)


class TestTrainMethodDispatch:
    def test_all_methods_produce_embedders(self, prepared, tmp_path):
        labels = prepared.manifest_labels
        for method in ("cca", "kcca", "ccca", "dcca", "sdcca"):
            model, ea, evs = train_method(
                method,
                prepared.audio_mean,
                prepared.visual,
                labels,
                r=4,
                reg=1e-3,
                seed=0,
                f=0.5,
                batch_size=16,
                epochs=1,
                audio_layers=(16, 8),
                visual_layers=(16, 8),
            )
            qa = ea(prepared.audio_mean[:5])
            qv = evs(prepared.visual[:5])
            assert qa.shape == (5, 4) and qv.shape == (5, 4)
            # the file round trip gives the same model type, embeddings and correlations
            path = tmp_path / f"{method}.model"
            save_model(model, path, extra={"method": method})
            loaded = load_model(path)
            la, lv = embedders(loaded)
            assert type(loaded) is type(model)
            np.testing.assert_array_equal(la(prepared.audio_mean[:5]), qa)
            np.testing.assert_array_equal(lv(prepared.visual[:5]), qv)
            np.testing.assert_array_equal(loaded.correlations, model.correlations)

    def test_unknown_method(self, prepared):
        with pytest.raises(ValueError):
            train_method("pca", prepared.audio_mean, prepared.visual, None, r=2, reg=None)

    def test_supervised_methods_need_labels(self, prepared):
        with pytest.raises(ValidationError):
            train_method("ccca", prepared.audio_mean, prepared.visual, None, r=2, reg=None)

    def test_sdcca_f0_matches_dcca_map(self, prepared):
        labels = prepared.manifest_labels
        kwargs = dict(r=3, reg=1e-3, seed=11, batch_size=8, epochs=2, audio_layers=(12, 6),
                      visual_layers=(12, 6))
        rep_d = cross_validate(
            prepared.audio_mean, prepared.visual, labels, prepared.ids,
            make_trainer("dcca", prepared.audio_mean, prepared.visual, None, **kwargs),
            folds=2, seed=5, pr_stride=10,
        )
        rep_s = cross_validate(
            prepared.audio_mean, prepared.visual, labels, prepared.ids,
            make_trainer("sdcca", prepared.audio_mean, prepared.visual, labels, f=0.0, **kwargs),
            folds=2, seed=5, pr_stride=10,
        )
        assert rep_d.map_score == rep_s.map_score
        assert rep_d.per_query_ap == rep_s.per_query_ap
