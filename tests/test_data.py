import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from avembed import blockio, data
from avembed.data import (
    AUDIO_DIM,
    VISUAL_DIM,
    FeatureSequence,
    Manifest,
    ManifestEntry,
    SynthConfig,
    filter_manifest,
    iter_synth_videos,
    load_manifest,
    load_sequence,
    pool_chunks,
    video_level_audio,
    video_level_visual,
    write_manifest,
    write_sequence,
)
from avembed.errors import CorruptFileError, FormatError, ValidationError


def _seq(n, d, seed=0, modality="audio", vid="v0"):
    rng = np.random.default_rng(seed)
    return FeatureSequence(vid, modality, rng.normal(size=(n, d)).astype(np.float32))


class TestSequenceRoundTrip:
    def test_roundtrip_identity(self, tmp_path):
        seq = _seq(216, 128, seed=1)
        path = tmp_path / "v0.fvsq"
        write_sequence(seq, path)
        loaded = load_sequence(path)
        assert loaded.modality == "audio"
        assert loaded.frames.dtype == np.float32
        assert np.array_equal(loaded.frames, seq.frames)

    def test_file_is_header_then_little_endian_rows(self, tmp_path):
        # a column-major float32 matrix is written row-major all the same
        frames = np.asfortranarray(_seq(5, 3, seed=2).frames)
        path = tmp_path / "v.fvsq"
        write_sequence(FeatureSequence("v", "visual", frames), path)
        header = b"FVSQ" + bytes([1, 1]) + np.array([5, 3], dtype="<u4").tobytes()
        assert path.read_bytes() == header + np.ascontiguousarray(frames, dtype="<f4").tobytes()

    def test_wrong_magic_is_format_error(self, tmp_path):
        path = tmp_path / "bad.fvsq"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_sequence(path)

    def test_wrong_version_is_format_error(self, tmp_path):
        seq = _seq(4, 3)
        path = tmp_path / "v.fvsq"
        write_sequence(seq, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_sequence(path)

    def test_truncated_payload_is_corruption_error(self, tmp_path):
        seq = _seq(10, 8)
        path = tmp_path / "v.fvsq"
        write_sequence(seq, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        with pytest.raises(CorruptFileError):
            load_sequence(path)

    def test_nonfinite_payload_is_validation_error(self, tmp_path):
        seq = _seq(4, 2)
        path = tmp_path / "v.fvsq"
        write_sequence(seq, path)
        raw = bytearray(path.read_bytes())
        raw[-8:-4] = np.array([np.inf], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError):
            load_sequence(path)

    def test_generator_output_roundtrips(self, tmp_path):
        cfg = SynthConfig(n_videos=50, n_clusters=5, latent_dim=6, noise_std=0.1, seed=3)
        count = 0
        for entry, audio, visual in iter_synth_videos(cfg):
            for seq in (audio, visual):
                path = tmp_path / f"{entry.video_id}.{seq.modality}.fvsq"
                write_sequence(seq, path)
                loaded = load_sequence(path)
                assert np.array_equal(loaded.frames, seq.frames)
                count += 1
        assert count == 100


class TestLoadIntoBuffer:
    """Without a buffer each load has frames of its own; with one, every load reuses its memory."""

    def test_without_a_buffer_frames_own_their_memory(self, tmp_path):
        seq = _seq(216, 128, seed=4)
        path = tmp_path / "v0.fvsq"
        write_sequence(seq, path)
        first, second = load_sequence(path), load_sequence(path)
        assert np.array_equal(first.frames, seq.frames)
        assert first.frames.flags.owndata and first.frames.flags.writeable
        assert not np.shares_memory(first.frames, second.frames)

    def test_into_a_buffer_frames_are_read_only_views_of_it(self, tmp_path):
        buffer = blockio.Buffer()
        seqs = [_seq(n, 16, seed=n, vid=f"v{n}") for n in (5, 9, 3)]
        loaded = []
        for seq in seqs:
            write_sequence(seq, tmp_path / f"{seq.video_id}.fvsq")
            got = load_sequence(tmp_path / f"{seq.video_id}.fvsq", into=buffer)
            assert got.video_id == seq.video_id and np.array_equal(got.frames, seq.frames)
            assert not got.frames.flags.writeable
            loaded.append(got.frames)
        # 9 frames outgrow the first load's memory; 3 fit in what 9 took
        assert not np.shares_memory(loaded[0], loaded[1]) and np.shares_memory(loaded[1], loaded[2])


class TestPathStrings:
    """load_sequence names a file as str(Path(path)) would and takes its video id from Path's stem,
    without building a Path for a str already in that form."""

    # every kind of part pathlib drops or keeps: empty, '.', '..', dotted names, a root
    _TEXT = st.text(alphabet="a./", max_size=12)

    @given(_TEXT)
    @settings(max_examples=400, deadline=None)
    def test_path_str_is_pathlib_form(self, text):
        assert data._path_str(text) == str(Path(text)) == data._path_str(Path(text))

    @given(_TEXT)
    @settings(max_examples=400, deadline=None)
    def test_stem_is_pathlib_stem(self, text):
        path = str(Path(text))
        assume(path != ".")  # a directory, which load_sequence never gets to name
        assert data._stem(path) == Path(path).stem

    def test_messages_and_video_id_as_pathlib_gives_them(self, tmp_path):
        (tmp_path / "audio").mkdir()
        path = tmp_path / "audio" / "v.0.fvsq"
        write_sequence(_seq(4, 2, vid="v.0"), path)
        for spelled in (f"{tmp_path}/./audio//v.0.fvsq", f"{tmp_path}//audio/./v.0.fvsq", path):
            assert load_sequence(spelled).video_id == "v.0"
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(CorruptFileError, match=f"^{re.escape(str(path))}: truncated payload$"):
            load_sequence(f"{tmp_path}/./audio//v.0.fvsq")
        with pytest.raises(FileNotFoundError, match=re.escape(f"'{tmp_path}/audio/none.fvsq'")):
            load_sequence(f"{tmp_path}/audio/./none.fvsq")


class TestManifest:
    def _manifest(self, lengths):
        entries = [
            ManifestEntry(f"v{i}", sec, f"audio/v{i}.fvsq", f"visual/v{i}.fvsq", None)
            for i, sec in enumerate(lengths)
        ]
        return Manifest(entries=entries)

    def test_boundary_inclusion(self):
        m = self._manifest([210, 213, 216, 219, 222])
        got = filter_manifest(m, (213, 219))
        assert [e.length_sec for e in got.entries] == [213, 216, 219]

    def test_superset_span_keeps_all(self):
        cfg = SynthConfig(n_videos=40, n_clusters=4, latent_dim=4, seed=1)
        manifest = Manifest(entries=[entry for entry, _, _ in iter_synth_videos(cfg)])
        assert len(filter_manifest(manifest, (204, 228))) == 40

    def test_nested_spans_nest(self):
        rng = np.random.default_rng(0)
        m = self._manifest(list(rng.integers(204, 229, size=200)))
        spans = [(213, 219), (210, 222), (207, 225), (204, 228)]
        subsets = [set(e.video_id for e in filter_manifest(m, s).entries) for s in spans]
        for smaller, larger in zip(subsets, subsets[1:]):
            assert smaller <= larger

    def test_filter_idempotent(self):
        m = self._manifest([210, 213, 216, 219, 222])
        once = filter_manifest(m, (211, 220))
        twice = filter_manifest(once, (211, 220))
        assert [e.video_id for e in once.entries] == [e.video_id for e in twice.entries]

    def test_length_span_is_the_kept_entries_range(self):
        m = self._manifest([210, 213, 216, 219, 222])
        assert m.length_span == (210, 222)
        assert filter_manifest(m, (100, 1000)).length_span == (210, 222)
        assert filter_manifest(m, (211, 220)).length_span == (213, 219)

    def test_duplicate_ids_rejected(self):
        entries = [
            ManifestEntry("v0", 216, "a", "b", None),
            ManifestEntry("v0", 216, "c", "d", None),
        ]
        with pytest.raises(ValidationError):
            Manifest(entries=entries)

    def test_jsonl_roundtrip(self, tmp_path):
        m = self._manifest([213, 219])
        m.entries[0].label = 4
        path = tmp_path / "manifest.jsonl"
        write_manifest(m, path)
        loaded = load_manifest(path)
        assert loaded.entries[0].label == 4
        assert loaded.entries[1].label is None
        assert [e.video_id for e in loaded.entries] == ["v0", "v1"]


def _chunk_oracle(frames, chunk_len):
    """Means and maxes of frames [i * chunk_len, (i + 1) * chunk_len), one chunk at a time."""
    chunks = [frames[i * chunk_len : (i + 1) * chunk_len] for i in range(frames.shape[0] // chunk_len)]
    means = [c.mean(axis=0, dtype=np.float64) for c in chunks]
    maxes = [c.max(axis=0).astype(np.float64) for c in chunks]
    return means, maxes


class TestPartitionChunks:
    """pool_chunks partitions frames into consecutive chunks and pools each one."""

    def test_216_frames_chunk3_gives_72(self):
        seq = _seq(216, 128)
        means, maxes = pool_chunks(seq.frames, 3)
        assert means.shape == maxes.shape == (72, 128)
        assert np.array_equal(means[0], seq.frames[0:3].mean(axis=0, dtype=np.float64))
        assert np.array_equal(maxes[-1], seq.frames[213:216].max(axis=0).astype(np.float64))

    def test_means_float64_maxes_in_the_frames_dtype(self):
        means, maxes = pool_chunks(_seq(9, 4).frames, 3)
        assert means.dtype == np.float64 and maxes.dtype == np.float32

    def test_216_frames_chunk72_gives_3(self):
        assert pool_chunks(_seq(216, 128).frames, 72)[0].shape[0] == 3

    def test_remainder_dropped_and_recombination(self):
        seq = _seq(217, 16, seed=5)
        means, maxes = pool_chunks(seq.frames, 3)
        assert means.shape[0] == 72
        ref_means, ref_maxes = _chunk_oracle(seq.frames[:216], 3)
        assert np.array_equal(means, np.stack(ref_means))
        assert np.array_equal(maxes, np.stack(ref_maxes))

    def test_bad_chunk_len(self):
        with pytest.raises(ValueError):
            pool_chunks(_seq(10, 4).frames, 0)

    @given(n=st.integers(1, 64), chunk_len=st.integers(1, 16))
    @settings(max_examples=40, deadline=None)
    def test_partition_completeness_property(self, n, chunk_len):
        frames = _seq(n, 3, seed=n * 17 + chunk_len).frames
        means, maxes = pool_chunks(frames, chunk_len)
        ref_means, ref_maxes = _chunk_oracle(frames, chunk_len)
        assert means.shape == maxes.shape == (n // chunk_len, 3)
        if ref_means:
            assert np.array_equal(means, np.stack(ref_means))
            assert np.array_equal(maxes, np.stack(ref_maxes))
        # the dropped remainder frames do not reach the result
        altered = frames.copy()
        altered[(n // chunk_len) * chunk_len :] = 1e3
        assert np.array_equal(pool_chunks(altered, chunk_len)[0], means)
        assert np.array_equal(pool_chunks(altered, chunk_len)[1], maxes)


class TestVideoLevelPooling:
    def test_constant_input(self):
        v = np.linspace(-1, 1, 32, dtype=np.float32)
        seq = FeatureSequence("v", "visual", np.tile(v, (7, 1)))
        assert np.allclose(video_level_visual(seq), v)

    def test_single_frame(self):
        frame = np.random.default_rng(0).normal(size=(1, 12)).astype(np.float32)
        seq = FeatureSequence("v", "visual", frame)
        assert np.allclose(video_level_visual(seq), frame[0])

    def test_matches_per_column_scan(self):
        seq = _seq(10, 20, seed=9, modality="visual")
        expected = np.array([max(seq.frames[i, j] for i in range(10)) for j in range(20)])
        assert np.allclose(video_level_visual(seq), expected)

    def test_permutation_invariant(self):
        seq = _seq(15, 6, seed=2, modality="visual")
        perm = np.random.default_rng(4).permutation(15)
        shuffled = FeatureSequence("v", "visual", seq.frames[perm])
        assert np.array_equal(video_level_visual(seq), video_level_visual(shuffled))

    def test_wrong_modality_rejected(self):
        with pytest.raises(ValueError):
            video_level_visual(_seq(5, 4, modality="audio"))
        with pytest.raises(ValueError):
            video_level_audio(_seq(5, 4, modality="visual"))


class TestSynthDataset:
    def test_same_seed_identical(self):
        cfg = SynthConfig(n_videos=20, n_clusters=4, latent_dim=5, noise_std=0.2, seed=11)
        count = 0
        for (e1, a1, v1), (e2, a2, v2) in zip(iter_synth_videos(cfg), iter_synth_videos(cfg), strict=True):
            assert e1.label == e2.label and e1 == e2
            assert np.array_equal(a1.frames, a2.frames)
            assert np.array_equal(v1.frames, v2.frames)
            count += 1
        assert count == 20

    def test_zero_noise_degenerate(self):
        cfg = SynthConfig(n_videos=12, n_clusters=3, latent_dim=4, noise_std=0.0, seed=2)
        by_label: dict[int, list[np.ndarray]] = {}
        for entry, audio, _ in iter_synth_videos(cfg):
            frames = audio.frames
            assert np.all(frames == frames[0])  # every frame identical
            by_label.setdefault(entry.label, []).append(frames[0])
        for rows in by_label.values():  # cluster-pure: one point per cluster
            for row in rows[1:]:
                assert np.array_equal(row, rows[0])

    def test_kmeans_recovers_generator_labels(self):
        # centroid separation in audio space must dominate the noise
        from avembed.clustering import seeded_kmeans

        cfg = SynthConfig(n_videos=100, n_clusters=10, latent_dim=12, noise_std=0.02, seed=5)
        videos = [(video_level_audio(audio), entry.label) for entry, audio, _ in iter_synth_videos(cfg)]
        feats = np.stack([f for f, _ in videos])
        labels = np.array([label for _, label in videos])
        centroid_means = np.stack([feats[labels == c].mean(axis=0) for c in range(10)])
        gaps = [
            np.linalg.norm(centroid_means[a] - centroid_means[b])
            for a in range(10)
            for b in range(a + 1, 10)
        ]
        assert min(gaps) >= 10 * cfg.noise_std
        seeds = [feats[labels == c][:3] for c in range(10)]
        model = seeded_kmeans(feats, seeds)
        assert np.array_equal(model.labels, labels)

    def test_invalid_config_rejected(self):
        for bad in (dict(noise_std=np.nan), dict(noise_std=np.inf), dict(noise_std=-0.1), dict(n_clusters=0),
                    dict(latent_dim=0), dict(length_range=(5, 4))):
            with pytest.raises(ValueError):
                SynthConfig(n_videos=4, **bad)
        with pytest.raises(ValueError):
            SynthConfig(n_videos=0)

    def test_all_lengths_in_range(self):
        cfg = SynthConfig(n_videos=30, n_clusters=3, latent_dim=4, seed=8)
        assert all(213 <= e.length_sec <= 219 for e, _, _ in iter_synth_videos(cfg))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_frames_equal_the_out_of_place_expression(self, seed):
        # the generator's draws replayed, each modality's frames as map @ z + noise_std * noise
        cfg = SynthConfig(n_videos=8, n_clusters=3, latent_dim=5, noise_std=0.3, length_range=(4, 9), seed=seed)
        rng = np.random.default_rng(seed)
        centroids = rng.normal(size=(3, 5))
        audio_map = rng.normal(size=(AUDIO_DIM, 5)) / np.sqrt(5)
        visual_map = rng.normal(size=(VISUAL_DIM, 5)) / np.sqrt(5)
        clusters = rng.integers(0, 3, size=8)
        while len(np.unique(clusters)) < 3:
            clusters = rng.integers(0, 3, size=8)
        lengths = rng.integers(4, 10, size=8)
        videos = list(iter_synth_videos(cfg))
        assert len(videos) == 8
        for v, (entry, audio, visual) in enumerate(videos):
            z = centroids[clusters[v]] + 0.3 * rng.normal(size=5)
            want_audio = audio_map @ z + 0.3 * rng.normal(size=(lengths[v], AUDIO_DIM))
            want_visual = visual_map @ z + 0.3 * rng.normal(size=(lengths[v], VISUAL_DIM))
            assert entry.label == clusters[v] and entry.length_sec == lengths[v]
            assert np.array_equal(audio.frames, want_audio.astype(np.float32))
            assert np.array_equal(visual.frames, want_visual.astype(np.float32))
