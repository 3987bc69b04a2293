import json
import shutil
import tracemalloc

import numpy as np
import pytest

from avembed import blockio
from avembed.attention import attention_distribution, random_attention_params, select_top_k
from avembed.data import (
    Manifest,
    ManifestEntry,
    SynthConfig,
    iter_synth_videos,
    pool_chunks,
    write_dataset,
    write_manifest,
    write_sequence,
)
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
    save_model,
    seed_sets_from_labels,
    train_method,
)
from oracles import chunk_query, lstm_step

CFG = SynthConfig(n_videos=40, n_clusters=4, latent_dim=6, noise_std=0.1, seed=0)
# the eval sweep's chunk modes
CHUNK_MODES = ((3, 1), (6, 2), (9, 3))


def stand_in(seed: int):
    """A scorer: the seeded stand-in attention weights of the corpus's audio dim."""
    return lambda dim: random_attention_params(dim, seed=seed)


@pytest.fixture(scope="module")
def prepared():
    return prepare_synthetic(CFG)


@pytest.fixture(scope="module")
def scored():
    return prepare_synthetic(CFG, modes=CHUNK_MODES, scorer=stand_in(1))


class TestPrepare:
    def test_shapes(self, prepared, scored):
        assert len(prepared) == 40
        assert prepared.audio_mean.shape == (40, 128)
        assert prepared.visual.shape == (40, 1024)
        assert prepared.manifest_labels is not None
        assert prepared.chunk_queries == {}
        for c, k in CHUNK_MODES:
            rows = scored.chunk_queries[c, k]
            assert rows.vectors.shape == (40, 128) and rows.vectors.dtype == np.float64
            assert rows.selected.shape == (40, k) and rows.scores.shape == (40, c)

    def test_matches_disk_roundtrip(self, prepared, tmp_path):
        write_dataset(CFG, tmp_path / "ds")
        from_disk = prepare_dataset(tmp_path / "ds")
        assert from_disk.ids == prepared.ids
        np.testing.assert_allclose(from_disk.audio_mean, prepared.audio_mean, atol=1e-12)
        np.testing.assert_allclose(from_disk.visual, prepared.visual, atol=1e-12)

    def test_mismatched_lengths_flagged(self, tmp_path):
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
    """Each video's base chunks are pooled and scored in the pass, only for the chunk modes
    asked for; nothing else changes and no pool outlives its video."""

    @pytest.fixture(scope="class")
    def on_disk(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("pools") / "ds"
        write_dataset(CFG, root)
        return root

    @pytest.mark.parametrize("source", ["synthetic", "disk"])
    def test_flag_changes_only_the_pools(self, on_disk, source):
        def prepare(modes):
            if source == "synthetic":
                return prepare_synthetic(CFG, modes=modes, scorer=stand_in(1))
            return prepare_dataset(on_disk, modes=modes, scorer=stand_in(1))

        bare, pooled = prepare(()), prepare(CHUNK_MODES)
        assert bare.ids == pooled.ids
        for name in ("manifest_labels", "audio_mean", "visual"):
            assert np.array_equal(getattr(bare, name), getattr(pooled, name)), name
        assert bare.chunk_queries == {}
        assert list(pooled.chunk_queries) == list(CHUNK_MODES)
        for rows in pooled.chunk_queries.values():
            assert len(rows.vectors) == len(rows.selected) == len(rows.scores) == len(pooled)

    def test_pools_equal_pool_chunks_of_each_audio(self, scored):
        # every row of every mode equals the one scored from that video's own pool_chunks
        params = random_attention_params(128, seed=1)
        videos = list(iter_synth_videos(CFG))
        assert len(videos) == len(scored)
        for i, (_, audio, _, _) in enumerate(videos):
            for c, k in CHUNK_MODES:
                vector, sel = chunk_query(audio.frames, params, c, k)
                rows = scored.chunk_queries[c, k]
                assert np.array_equal(rows.vectors[i], vector)
                assert rows.selected[i].tolist() == sel.selected_indices
                assert np.array_equal(rows.scores[i], sel.scores)

    def test_working_set_is_bounded_by_one_video(self, tmp_path):
        # 60 clips of 30 s and one 10-minute video: chunk pools padded to the longest video's
        # T = 200 base chunks would take n * T * d * 12 bytes; the pass holds one video's
        root = tmp_path / "ds"
        clips = write_dataset(SynthConfig(n_videos=60, n_clusters=3, latent_dim=4, length_range=(30, 30),
                                          seed=6), root)
        long_cfg = SynthConfig(n_videos=1, n_clusters=1, latent_dim=4, length_range=(600, 600), seed=7)
        _, audio, visual, _ = next(iter_synth_videos(long_cfg))
        entry = ManifestEntry("long", 600, "audio/long.fvsq", "visual/long.fvsq", label=0)
        write_sequence(audio, root / entry.audio_path)
        write_sequence(visual, root / entry.visual_path)
        write_manifest(Manifest(clips.entries + [entry]), root / "manifest.jsonl")
        n, t_max, d = 61, 600 // 3, 128
        tracemalloc.start()
        try:
            got = prepare_dataset(root, modes=CHUNK_MODES, scorer=stand_in(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(got) == n and got.ids[-1] == "long"
        assert peak < n * t_max * d * 12
        # and the long video's rows are the ones its own pools give
        for c, k in CHUNK_MODES:
            vector, sel = chunk_query(audio.frames, random_attention_params(128, seed=0), c, k)
            assert np.array_equal(got.chunk_queries[c, k].vectors[-1], vector)
            assert got.chunk_queries[c, k].selected[-1].tolist() == sel.selected_indices

    def test_video_longer_than_its_manifest_line_is_rejected(self, on_disk, tmp_path):
        # every line says 3 s: each video's files contradict it
        root = tmp_path / "ds"
        shutil.copytree(on_disk, root)
        lines = [json.loads(line) for line in (root / "manifest.jsonl").read_text().splitlines()]
        (root / "manifest.jsonl").write_text("".join(json.dumps({**e, "length_sec": 3}) + "\n" for e in lines))
        frames = lines[0]["length_sec"]
        with pytest.raises(ValidationError, match=f"'mv00000': manifest says 3s but file holds {frames} frames"):
            prepare_dataset(root, modes=CHUNK_MODES, scorer=stand_in(0))

    def test_pool_less_arrays_hold_only_video_level_features(self):
        bare = prepare_synthetic(CFG)
        arrays = [v for v in vars(bare).values() if isinstance(v, np.ndarray)]
        assert sum(a.nbytes for a in arrays) == len(bare) * (128 + 1024) * 8 + bare.manifest_labels.nbytes

    def test_chunk_mode_needs_the_pools(self):
        with pytest.raises(ValueError, match=r"chunk mode \(3, 1\) was not prepared"):
            query_matrix(prepare_synthetic(CFG), (3, 1))


class TestQueryMatrix:
    def test_mean_mode(self, prepared):
        np.testing.assert_array_equal(query_matrix(prepared, "mean"), prepared.audio_mean)

    def test_chunk_modes_shapes(self, scored):
        for c, k in CHUNK_MODES:
            got = query_matrix(scored, (c, k))
            assert got is scored.chunk_queries[c, k].vectors
            assert got.shape == (40, 128)
            assert np.all(np.isfinite(got))

    def test_non_divisible_base_chunks_truncated(self):
        # 213 s -> 71 base chunks; c=3 keeps the first 69
        params = random_attention_params(128, seed=2)
        cfg = SynthConfig(n_videos=3, n_clusters=1, latent_dim=4, length_range=(213, 213), seed=3)
        _, audio, _, _ = next(iter_synth_videos(cfg))
        rep, sel = chunk_query(audio.frames, params, 3, 2)
        assert sel.distribution.shape == (69,)
        assert rep.shape == (128,)
        got = prepare_synthetic(cfg, modes=[(3, 2)], scorer=lambda dim: params)
        assert np.array_equal(query_matrix(got, (3, 2))[0], rep)

    def test_selections_match_per_step_oracle(self):
        # the eval-sweep corpus and stand-in scorer: every selection of the
        # joint recurrence equals the one of chained per-direction lstm_steps
        cfg = SynthConfig(n_videos=150, n_clusters=10, noise_std=0.5, seed=0)
        params = random_attention_params(128, seed=0)
        corpus = prepare_synthetic(cfg, modes=CHUNK_MODES, scorer=lambda dim: params)

        def per_step(feats, c, k):
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

        for i, (_, audio, _, _) in enumerate(iter_synth_videos(cfg)):
            _, maxes = pool_chunks(audio.frames, 3)
            for c, k in CHUNK_MODES:
                got = chunk_selection_for(maxes, params, c, k)
                ref = per_step(maxes[: (maxes.shape[0] // c) * c], c, k)
                assert got.selected_indices == ref.selected_indices
                assert corpus.chunk_queries[c, k].selected[i].tolist() == ref.selected_indices
                np.testing.assert_allclose(got.distribution, ref.distribution, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("c, k", [(0, 0), (3, 0), (3, 4)])
    def test_top_k_outside_one_to_c_rejected(self, c, k):
        params = random_attention_params(128, seed=0)
        _, audio, _, _ = next(iter_synth_videos(CFG))
        with pytest.raises(ValidationError, match="top-k"):
            chunk_selection_for(pool_chunks(audio.frames, 3)[1], params, c, k)
        # the pass rejects the mode before it reads a video or builds the scorer
        with pytest.raises(ValidationError, match="top-k"):
            prepare_synthetic(CFG, modes=[(c, k)], scorer=None)

    def test_selection_requires_params(self):
        with pytest.raises(ValueError, match="need an attention scorer"):
            prepare_synthetic(CFG, modes=[(3, 1)])


class TestClusterDataset:
    def test_recovers_generator_labels(self, prepared):
        model = cluster_dataset(prepared)
        assert np.array_equal(model.labels, prepared.manifest_labels)

    def test_explicit_seed_sets(self, prepared):
        seeds, rows = seed_sets_from_labels(prepared.audio_mean, prepared.manifest_labels)
        assert all(len(r) == 3 for r in rows)
        model = cluster_dataset(prepared, seeds)
        assert np.array_equal(model.labels, prepared.manifest_labels)


# every method's settings in the dispatch tests, less the epochs
SMALL_FIT = dict(r=4, reg=1e-3, seed=0, f=0.5, batch_size=16, audio_layers=(16, 8), visual_layers=(16, 8))


class TestTrainMethodDispatch:
    def test_all_methods_produce_embedders(self, prepared, tmp_path):
        labels = prepared.manifest_labels
        for method in ("cca", "kcca", "ccca", "dcca", "sdcca"):
            model = train_method(method, prepared.audio_mean, prepared.visual, labels, epochs=1, **SMALL_FIT)
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
        model = train_method(method, prepared.audio_mean, prepared.visual, prepared.manifest_labels, epochs=2,
                             **SMALL_FIT)
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
