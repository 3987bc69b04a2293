import numpy as np
import pytest

from avembed import blockio
from avembed.attention import attention_distribution, random_attention_params, select_top_k
from avembed.data import SynthConfig, iter_synth_videos, pool_chunks, write_dataset
from avembed.errors import ValidationError
from avembed.evaluation import cross_validate
from avembed.pipeline import (
    chunk_selection_for,
    cluster_dataset,
    embedders,
    load_model,
    prepare_dataset,
    prepare_synthetic,
    query_matrix,
    representation_from_selection,
    save_model,
    seed_sets_from_labels,
    train_method,
)
from oracles import lstm_step

CFG = SynthConfig(n_videos=40, n_clusters=4, latent_dim=6, noise_std=0.1, seed=0)


@pytest.fixture(scope="module")
def prepared():
    return prepare_synthetic(CFG, chunks=True)


class TestPrepare:
    def test_shapes(self, prepared):
        assert len(prepared) == 40
        assert prepared.audio_mean.shape == (40, 128)
        assert prepared.visual.shape == (40, 1024)
        assert prepared.manifest_labels is not None
        # padded to the generator's longest length, 219 s
        assert prepared.chunk_means.shape == prepared.chunk_maxes.shape == (40, 73, 128)
        for i, (entry, _, _, _) in enumerate(iter_synth_videos(CFG)):
            length = entry.length_sec
            assert [p.shape for p in prepared.chunk_pools(i)] == [(length // 3, 128)] * 2

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


class TestChunkPools:
    """The per-base-chunk pools are built only with chunks=True; nothing else changes."""

    @pytest.fixture(scope="class")
    def on_disk(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("pools") / "ds"
        write_dataset(CFG, root)
        return root

    @pytest.mark.parametrize("source", ["synthetic", "disk"])
    def test_flag_changes_only_the_pools(self, on_disk, source):
        def prepare(chunks):
            if source == "synthetic":
                return prepare_synthetic(CFG, chunks=chunks)
            return prepare_dataset(on_disk, chunks=chunks)

        bare, pooled = prepare(False), prepare(True)
        assert bare.ids == pooled.ids
        for name in ("manifest_labels", "audio_mean", "visual"):
            assert np.array_equal(getattr(bare, name), getattr(pooled, name)), name
        assert bare.chunk_means is None and bare.chunk_maxes is None and bare.chunk_counts is None
        assert len(pooled.chunk_means) == len(pooled.chunk_maxes) == len(pooled.chunk_counts) == len(pooled)

    def test_pools_equal_pool_chunks_of_each_audio(self, prepared):
        videos = list(iter_synth_videos(CFG))
        assert len(videos) == len(prepared)
        assert prepared.chunk_means.dtype == np.float64 and prepared.chunk_maxes.dtype == np.float32
        for i, (_, audio, _, _) in enumerate(videos):
            assert prepared.chunk_counts[i] == audio.n_frames // 3
            means, maxes = pool_chunks(audio.frames, 3)
            got_means, got_maxes = prepared.chunk_pools(i)
            assert np.array_equal(got_means, means) and np.array_equal(got_maxes, maxes)

    def test_padding_is_never_read(self):
        # lengths 60..219 s: most rows end in padding; NaN there would reach any query that read it
        cfg = SynthConfig(n_videos=12, n_clusters=3, latent_dim=4, length_range=(60, 219), seed=2)
        poisoned = prepare_synthetic(cfg, chunks=True)
        for i, m in enumerate(poisoned.chunk_counts):
            poisoned.chunk_means[i, m:] = np.nan
            poisoned.chunk_maxes[i, m:] = np.nan
        assert np.isnan(poisoned.chunk_maxes).any()
        params = random_attention_params(128, seed=4)
        frames = [audio.frames for _, audio, _, _ in iter_synth_videos(cfg)]
        for c, k in ((3, 1), (6, 2), (9, 3)):
            # each video on its own, from its own float64 pools
            want = []
            for f in frames:
                means, maxes = pool_chunks(f, 3)
                sel = chunk_selection_for(maxes.astype(np.float64), params, c, k)
                want.append(representation_from_selection(means, sel))
            assert np.array_equal(query_matrix(poisoned, (c, k), params), np.stack(want))

    def test_video_longer_than_its_manifest_line_is_rejected(self, on_disk, tmp_path):
        import json
        import shutil

        # every line says 3 s, so pools sized by the manifest would be one chunk wide
        root = tmp_path / "ds"
        shutil.copytree(on_disk, root)
        lines = [json.loads(line) for line in (root / "manifest.jsonl").read_text().splitlines()]
        (root / "manifest.jsonl").write_text("".join(json.dumps({**e, "length_sec": 3}) + "\n" for e in lines))
        frames = lines[0]["length_sec"]
        with pytest.raises(ValidationError, match=f"'mv00000': manifest says 3s but file holds {frames} frames"):
            prepare_dataset(root, chunks=True)

    def test_dropping_the_pools_keeps_the_rest(self, prepared):
        bare = prepared.without_chunk_pools()
        assert bare.chunk_means is None and bare.chunk_maxes is None and bare.chunk_counts is None
        assert prepared.chunk_maxes is not None
        for name in ("ids", "audio_mean", "visual", "manifest_labels"):
            assert getattr(bare, name) is getattr(prepared, name), name

    def test_pool_less_arrays_hold_only_video_level_features(self):
        bare = prepare_synthetic(CFG)
        arrays = [v for v in vars(bare).values() if isinstance(v, np.ndarray)]
        assert sum(a.nbytes for a in arrays) == len(bare) * (128 + 1024) * 8 + bare.manifest_labels.nbytes

    def test_chunk_mode_needs_the_pools(self):
        params = random_attention_params(128, seed=0)
        with pytest.raises(ValueError, match="chunks=True"):
            query_matrix(prepare_synthetic(CFG), (3, 1), params)


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
            SynthConfig(n_videos=3, n_clusters=1, latent_dim=4, length_range=(213, 213), seed=3),
            chunks=True,
        )
        means, maxes = prepared.chunk_pools(0)
        sel = chunk_selection_for(maxes, params, 3, 2)
        assert sel.distribution.shape == (69,)
        rep = representation_from_selection(means, sel)
        assert rep.shape == (128,)

    def test_selections_match_per_step_oracle(self):
        # the eval-sweep corpus and stand-in scorer: every selection of the
        # joint recurrence equals the one of chained per-direction lstm_steps
        corpus = prepare_synthetic(SynthConfig(n_videos=150, n_clusters=10, noise_std=0.5, seed=0), chunks=True)
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

        for i in range(len(corpus)):
            _, maxes = corpus.chunk_pools(i)
            for c, k in ((3, 1), (6, 2), (9, 3)):
                got = chunk_selection_for(maxes, params, c, k)
                ref = oracle(maxes[: (maxes.shape[0] // c) * c], c, k)
                assert got.selected_indices == ref.selected_indices
                np.testing.assert_allclose(got.distribution, ref.distribution, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("c, k", [(0, 0), (3, 0), (3, 4)])
    def test_top_k_outside_one_to_c_rejected(self, prepared, c, k):
        params = random_attention_params(128, seed=0)
        with pytest.raises(ValidationError, match="top-k"):
            chunk_selection_for(prepared.chunk_pools(0)[1], params, c, k)

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
            model = train_method(
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
            ea, evs = embedders(model)
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

    @pytest.mark.parametrize("method", ["cca", "kcca", "ccca", "dcca", "sdcca"])
    def test_resaving_a_loaded_model_writes_the_same_bytes(self, prepared, tmp_path, method):
        model = train_method(method, prepared.audio_mean, prepared.visual, prepared.manifest_labels, r=4,
                                   reg=1e-3, f=0.5, batch_size=16, epochs=2, audio_layers=(16, 8),
                                   visual_layers=(16, 8))
        first, again = tmp_path / "first.model", tmp_path / "again.model"
        save_model(model, first, extra={"method": method})
        save_model(load_model(first), again, extra={"method": method})
        assert again.read_bytes() == first.read_bytes()

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
            lambda a, v, lab: embedders(train_method("dcca", a, v, None, **kwargs)),
            folds=2, seed=5, pr_stride=10,
        )
        rep_s = cross_validate(
            prepared.audio_mean, prepared.visual, labels, prepared.ids,
            lambda a, v, lab: embedders(train_method("sdcca", a, v, lab, f=0.0, **kwargs)),
            folds=2, seed=5, pr_stride=10,
        )
        assert rep_d.map_score == rep_s.map_score
        assert rep_d.per_query_ap == rep_s.per_query_ap


class TestParentFormatModels:
    """Older model files also carry header keys that no loader reads (a deep model's layer widths,
    dropout, r and reg; a linear model's dx, dy and r). They load and embed as the same blocks
    without those keys, whatever values the keys hold."""

    @pytest.mark.parametrize("method, magic, extra", [
        ("dcca", b"AVDM", {"audio_dims": [128, 16, 8], "visual_dims": [1024, 16, 8], "dropout": "0.2",
                           "r": 7, "reg": -3.0}),
        ("cca", b"AVCM", {"dx": 128, "dy": 1024, "r": 7}),
    ], ids=["dcca", "linear"])
    def test_ignored_keys_load_and_embed_bit_identically(self, prepared, tmp_path, method, magic, extra):
        model = train_method(method, prepared.audio_mean, prepared.visual, None, r=4, reg=1e-3,
                             batch_size=16, epochs=1, audio_layers=(16, 8), visual_layers=(16, 8))
        current, older = tmp_path / "current.model", tmp_path / "older.model"
        save_model(model, current, extra={"method": method})
        header, blocks = blockio.load(current, magic)
        assert not set(extra) & set(header)
        blockio.save(older, magic, {**header, **extra}, blocks)
        embeds = [embedders(load_model(path)) for path in (current, older)]
        for side, features in enumerate((prepared.audio_mean, prepared.visual)):
            want = embeds[0][side](features)
            assert np.array_equal(embeds[1][side](features), want)
            assert np.array_equal(embedders(model)[side](features), want)
