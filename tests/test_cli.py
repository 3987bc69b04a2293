import argparse
import hashlib
import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from avembed import blockio, cli, data, deep, pipeline
from avembed.attention import random_attention_params, save_attention_params
from avembed.cca import load_cca_model
from avembed.cli import _DEFAULTS, build_parser, main
from avembed.data import load_manifest, filter_manifest
from avembed.deep import load_deep_model
from avembed.pipeline import embedders, load_model
from avembed.retrieval import EmbeddingIndex, load_index, rank, save_index
from conftest import edit_header
from oracles import chunk_query


def run(*argv):
    return main([str(a) for a in argv])


# the start of the error line main prints for each failing exit code
_ERROR_LINE = {1: "avembed: invalid arguments: ", 2: "avembed: data error: ", 3: "avembed: numerical error: "}


def fails(capsys, code, *argv) -> str:
    """The stderr of a command that must exit with code, printing nothing on stdout and on stderr
    its error line and no traceback."""
    got = run(*argv)
    out, err = capsys.readouterr()
    assert got == code and out == "" and _ERROR_LINE[code] in err and "Traceback" not in err, err
    return err


def tree_hash(root: Path, pattern: str = "*") -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob(pattern)):
        if path.is_file():
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.fixture
def spy(monkeypatch):
    """spy(name, *modules) makes each module's function name record the positional arguments of
    every call, in one list that it returns."""

    def install(name, *modules):
        calls, real = [], getattr(modules[0], name)
        for module in modules:
            monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(a) or real(*a, **kw))
        return calls

    return install


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds") / "data"
    code = run(
        "synth", "--out", root, "--videos", 36, "--clusters", 4,
        "--latent-dim", 6, "--noise-std", 0.08, "--seed", 5,
    )
    assert code == 0
    return root


class TestSynth:
    def test_deterministic_directory_trees(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("synth", "--out", out, "--videos", 12, "--clusters", 3,
                       "--latent-dim", 4, "--seed", 7) == 0
        assert tree_hash(a) == tree_hash(b)

    def test_invalid_cluster_count_usage_error(self, tmp_path, capsys):
        assert "n_clusters" in fails(capsys, 1, "synth", "--out", tmp_path / "x", "--videos", 10, "--clusters", 0)

    def test_manifest_respects_length_range(self, dataset):
        manifest = load_manifest(dataset / "manifest.jsonl")
        assert len(filter_manifest(manifest, (213, 219))) == len(manifest)

    def test_seeds_file_written(self, dataset):
        seeds = json.loads((dataset / "seeds.json").read_text())
        assert len(seeds["categories"]) == 4
        assert all(len(v) == 3 for v in seeds["categories"].values())

    def test_fewer_videos_than_clusters_seeds_only_drawn_clusters(self, tmp_path, capsys):
        # 5 videos cannot cover 10 clusters: an empty category would make `cluster` reject the file
        root = tmp_path / "data"
        assert run("synth", "--out", root, "--videos", 5, "--clusters", 10, "--latent-dim", 4,
                   "--seed", 2) == 0
        categories = json.loads((root / "seeds.json").read_text())["categories"]
        labels = {e.label for e in load_manifest(root / "manifest.jsonl").entries}
        assert len(categories) == len(labels) and all(categories.values())
        out = tmp_path / "labels.jsonl"
        assert run("cluster", "--dataset", root, "--seeds-file", root / "seeds.json", "--out", out) == 0
        assert f"into {len(labels)} groups" in capsys.readouterr().out


class TestIngest:
    def test_valid_dataset_passes(self, dataset, capsys):
        assert run("ingest", "--dataset", dataset) == 0
        out = capsys.readouterr().out
        assert "ok: 36 videos" in out

    def test_missing_manifest_is_data_error(self, tmp_path):
        assert run("ingest", "--dataset", tmp_path) == 2

    def test_span_filter_writes_manifest(self, dataset, tmp_path):
        out_manifest = tmp_path / "filtered.jsonl"
        assert run("ingest", "--dataset", dataset, "--span-min", 213, "--span-max", 219,
                   "--out-manifest", out_manifest) == 0
        assert out_manifest.exists()

    def test_span_that_keeps_no_video_exits_2(self, dataset, capsys):
        err = fails(capsys, 2, "ingest", "--dataset", dataset, "--span-min", 100, "--span-max", 200)
        assert "no entries with length in [100, 200]" in err

    def test_corrupt_sequence_is_data_error(self, tmp_path):
        root = tmp_path / "bad"
        assert run("synth", "--out", root, "--videos", 4, "--clusters", 2,
                   "--latent-dim", 3, "--seed", 1) == 0
        victim = next((root / "audio").iterdir())
        victim.write_bytes(victim.read_bytes()[:-9])
        assert run("ingest", "--dataset", root) == 2


class TestChunkSelect:
    def test_single_video(self, dataset, capsys):
        assert run("chunk-select", "--dataset", dataset, "--video-id", "mv00000",
                   "--chunks", 3, "--top-k", 1, "--attention-seed", 2) == 0
        obj = json.loads(capsys.readouterr().out.strip())
        assert obj["video_id"] == "mv00000"
        assert len(obj["selected"]) == 1
        assert 0 <= obj["selected"][0] < 3

    def test_top_k_exceeds_chunks(self, dataset):
        assert run("chunk-select", "--dataset", dataset, "--video-id", "mv00000",
                   "--chunks", 3, "--top-k", 5) == 2

    def test_out_file_holds_the_printed_lines(self, dataset, tmp_path, capsys):
        out = tmp_path / "selected.jsonl"
        assert run("chunk-select", "--dataset", dataset, "--chunks", 6, "--top-k", 2, "--out", out) == 0
        printed = capsys.readouterr().out
        assert out.read_text() == printed and len(printed.splitlines()) == 36

    def test_more_chunks_than_base_chunks_exits_2(self, dataset, capsys):
        err = fails(capsys, 2, "chunk-select", "--dataset", dataset, "--video-id", "mv00000", "--chunks", 1000)
        assert "base chunks; cannot form 1000 macro-chunks" in err

    @pytest.fixture
    def reads(self, spy):
        """The arguments pipeline.load_sequence is called with."""
        return spy("load_sequence", pipeline)

    def test_unknown_video(self, dataset, reads, capsys):
        err = fails(capsys, 2, "chunk-select", "--dataset", dataset, "--video-id", "nope", "--chunks", 3, "--top-k", 1)
        assert "video 'nope' not in the dataset" in err
        assert reads == []

    def test_single_video_reads_only_its_files(self, dataset, reads, capsys):
        argv = ("chunk-select", "--dataset", dataset, "--chunks", 6, "--top-k", 2, "--attention-seed", 3)
        assert run(*argv, "--video-id", "mv00007") == 0
        assert sorted(Path(p).name for p, in reads) == ["mv00007.fvsq"] * 2
        one = capsys.readouterr().out
        assert run(*argv) == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        assert len(reads) == 2 + 2 * len(lines)
        assert [line for line in lines if json.loads(line)["video_id"] == "mv00007"] == [one]

    @pytest.mark.parametrize("hidden", [0, -1])
    def test_attention_hidden_below_one_is_usage_error(self, dataset, capsys, hidden):
        # at 0 the stand-in scorer's theta would be uniform, so every video would select chunks [0, 1, 2]
        err = fails(capsys, 1, "chunk-select", "--dataset", dataset, "--chunks", 9, "--top-k", 3,
                    "--attention-hidden", hidden)
        assert f"attention_hidden must be >= 1, got {hidden}" in err

    @pytest.mark.parametrize("argv", [
        ("chunk-select", "--video-id", "mv00000", "--chunks", "0", "--top-k", "0"),
        ("chunk-select", "--video-id", "mv00000", "--chunks", "3", "--top-k", "0"),
        ("train", "--method", "cca", "--r", "4", "--query-mode", "0,1", "--out", "{dir}/m.model"),
        ("train", "--method", "cca", "--r", "4", "--query-mode", "1,2,3", "--out", "{dir}/m.model"),
        ("train", "--method", "cca", "--r", "4", "--query-mode", "3", "--out", "{dir}/m.model"),
    ], ids=["zero-chunks", "zero-top-k", "query-mode-zero-chunks", "query-mode-three-ints",
            "query-mode-one-int"])
    def test_bad_chunk_config_exits_2(self, dataset, tmp_path, capsys, argv):
        argv = (argv[0], "--dataset", dataset, *(a.format(dir=tmp_path) for a in argv[1:]))
        fails(capsys, 2, *argv)
        assert not (tmp_path / "m.model").exists()

    def test_lines_match_a_per_video_oracle(self, dataset, capsys):
        # each video on its own, from its own pool_chunks; the default stand-in scorer
        params = random_attention_params(128, 16, 16, seed=0)
        want = {}
        for e in load_manifest(dataset / "manifest.jsonl").entries:
            _, selected, scores = chunk_query(data.load_sequence(dataset / e.audio_path).frames, params, 6, 2)
            want[e.video_id] = json.dumps({"video_id": e.video_id, "chunks": 6, "top_k": 2,
                                           "selected": selected.tolist(),
                                           "scores": [float(v) for v in scores]}) + "\n"
        argv = ("chunk-select", "--dataset", dataset, "--chunks", 6, "--top-k", 2)
        assert run(*argv) == 0
        assert capsys.readouterr().out == "".join(want.values())
        for vid in ("mv00000", "mv00017", "mv00035"):
            assert run(*argv, "--video-id", vid) == 0
            assert capsys.readouterr().out == want[vid]


class TestAttentionWeightsWidth:
    """A weights file whose LSTM input width is not the corpus's audio width exits 2 before scoring."""

    @pytest.mark.parametrize("argv", [
        ("chunk-select", "--chunks", 3),
        ("train", "--method", "cca", "--r", 4, "--query-mode", "3,1", "--out", "{tmp}/m.model"),
        ("eval", "--methods", "cca", "--folds", 2, "--r", 4, "--out-dir", "{tmp}/eval"),
    ], ids=["chunk-select", "train-chunks", "eval"])
    def test_rejected_naming_the_file(self, dataset, tmp_path, capsys, spy, argv):
        weights = tmp_path / "weights.json"
        save_attention_params(random_attention_params(8, 2, 2), weights)
        scored = spy("chunk_selection_for", pipeline)
        argv = [str(a).format(tmp=tmp_path) for a in argv]
        err = fails(capsys, 2, *argv, "--dataset", dataset, "--attention-weights", weights)
        assert (f"avembed: data error: {weights}: attention weights take 8-d chunk features, "
                "the dataset's audio features are 128-d") in err
        assert scored == []


class TestCluster:
    def test_assignments_written(self, dataset, tmp_path, capsys):
        out = tmp_path / "assignments.jsonl"
        assert run("cluster", "--dataset", dataset, "--k", 4,
                   "--seeds-file", dataset / "seeds.json", "--out", out) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 36
        labels = {json.loads(l)["video_id"]: json.loads(l)["label"] for l in lines}
        manifest = load_manifest(dataset / "manifest.jsonl")
        true = {e.video_id: e.label for e in manifest.entries}
        # seeded from generator exemplars: identical mapping
        assert labels == true

    def test_k_defaults_to_the_seed_sets_and_must_match_them(self, dataset, tmp_path, capsys):
        out = tmp_path / "assignments.jsonl"
        argv = ("cluster", "--dataset", dataset, "--seeds-file", dataset / "seeds.json", "--out", out)
        assert run(*argv) == 0
        assert "into 4 groups" in capsys.readouterr().out
        out.unlink()
        for k in (0, 3, 5):
            err = fails(capsys, 2, *argv, "--k", k)
            assert f"--k {k}" in err and "4 seed sets" in err
            assert not out.exists()

    def test_no_seeds_file_on_an_unlabelled_manifest_exits_2(self, dataset, tmp_path, capsys):
        manifest = _manifest_dir(dataset, tmp_path, lambda e: None) / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        manifest.write_text("".join(json.dumps({**json.loads(line), "label": None}) + "\n" for line in lines))
        err = fails(capsys, 2, "cluster", "--dataset", tmp_path, "--out", tmp_path / "labels.jsonl")
        assert "no seed sets given and the manifest carries no labels to derive them from" in err

    def test_max_iter_below_one_is_usage_error(self, dataset, tmp_path, capsys):
        # with no iteration every label would stay -1
        out = tmp_path / "assignments.jsonl"
        err = fails(capsys, 1, "cluster", "--dataset", dataset, "--seeds-file", dataset / "seeds.json",
                    "--out", out, "--max-iter", 0)
        assert "max_iter must be >= 1, got 0" in err
        assert not out.exists()


@pytest.fixture(scope="module")
def artifacts(dataset, tmp_path_factory):
    work = tmp_path_factory.mktemp("artifacts")
    assignments = work / "assignments.jsonl"
    assert run("cluster", "--dataset", dataset, "--k", 4,
               "--seeds-file", dataset / "seeds.json", "--out", assignments) == 0
    model = work / "cca.model"
    assert run("train", "--dataset", dataset, "--method", "cca", "--r", 8,
               "--out", model, "--seed", 3) == 0
    index = work / "videos.index"
    assert run("index", "--dataset", dataset, "--model", model,
               "--labels", assignments, "--out", index) == 0
    return {"assignments": assignments, "model": model, "index": index}


def _trained(dataset, work: Path, method: str, *options) -> dict:
    """A model of method trained with options and the index of its embeddings, which one query reads."""
    model, index = work / f"{method}.model", work / f"{method}.index"
    assert run("train", "--dataset", dataset, "--method", method, *options, "--out", model) == 0
    assert run("index", "--dataset", dataset, "--model", model, "--out", index) == 0
    assert run("query", "--dataset", dataset, "--index", index, "--model", model,
               "--video-id", "mv00003", "-n", 3) == 0
    return {"model": model, "index": index}


@pytest.fixture(scope="module")
def deep_artifacts(dataset, tmp_path_factory):
    return _trained(dataset, tmp_path_factory.mktemp("deep_artifacts"), "dcca", "--r", 4, "--batch-size", 18,
                    "--epochs", 1, "--audio-layers", "16,8", "--visual-layers", "16,8", "--seed", 1)


@pytest.fixture(scope="module")
def kcca_artifacts(dataset, tmp_path_factory):
    return _trained(dataset, tmp_path_factory.mktemp("kcca_artifacts"), "kcca", "--r", 4)


# train's note for cca and ccca on the 36-video corpus, whose rows are fewer than either view's dims
_WIDE_NOTE = ("note: 36 training rows, no more than the audio (128) and visual (1024) feature dims: linear CCA "
              "can match them perfectly, so its canonical correlations say nothing about the features\n")


class TestTrainIndexQuery:
    def test_model_loadable_with_sorted_correlations(self, artifacts):
        model = load_cca_model(artifacts["model"])
        c = model.correlations
        assert np.all(c[:-1] >= c[1:])
        assert model.wx.shape == (128, 8)

    def test_query_returns_ranked_json(self, artifacts, dataset, capsys):
        assert run("query", "--dataset", dataset, "--index", artifacts["index"],
                   "--model", artifacts["model"], "--video-id", "mv00003", "-n", 5) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        sims = [json.loads(l)["similarity"] for l in lines]
        assert sims == sorted(sims, reverse=True)

    def test_query_own_video_ranks_high(self, artifacts, dataset, capsys):
        # tight generator noise: the query's own video should top the list
        assert run("query", "--dataset", dataset, "--index", artifacts["index"],
                   "--model", artifacts["model"], "--video-id", "mv00007", "-n", 3) == 0
        top = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert top["video_id"] == "mv00007"

    def test_index_written_with_descending_ids_lists_a_tie_by_ascending_id(self, artifacts, dataset, tmp_path,
                                                                             capsys):
        index = load_index(artifacts["index"])
        index.embeddings[5] = index.embeddings[2]  # mv00002 and mv00005 tie for every query
        path = tmp_path / "descending.index"
        save_index(EmbeddingIndex(index.ids[::-1], index.embeddings[::-1], index.labels[::-1], index.norms[::-1]),
                   path)
        assert path.read_bytes().index(b'"mv00005"') < path.read_bytes().index(b'"mv00002"')
        assert run("query", "--dataset", dataset, "--index", path, "--model", artifacts["model"],
                   "--video-id", "mv00003", "-n", 36) == 0
        ids = [json.loads(line)["video_id"] for line in capsys.readouterr().out.splitlines()]
        assert ids.index("mv00005") == ids.index("mv00002") + 1

    def test_model_and_index_of_different_widths_rejected(self, artifacts, deep_artifacts, dataset, capsys):
        # an r=4 model against the r=8 index
        model, index = deep_artifacts["model"], artifacts["index"]
        err = fails(capsys, 2, "query", "--dataset", dataset, "--index", index, "--model", model,
                    "--video-id", "mv00003", "-n", 3)
        assert f"avembed: data error: model {model} embeds in 4 dimensions, index {index} holds 8" in err

    def test_chunk_mode_query_ranks_the_selected_chunks(self, artifacts, dataset, capsys, spy):
        vid = "mv00003"
        scored = spy("chunk_selection_for", pipeline)
        assert run("query", "--dataset", dataset, "--index", artifacts["index"], "--model", artifacts["model"],
                   "--video-id", vid, "-n", 5, "--query-mode", "3,1") == 0
        got = [(o["video_id"], o["similarity"]) for o in map(json.loads, capsys.readouterr().out.splitlines())]
        assert len(scored) == 1  # only the queried video is scored
        # the oracle: its own pool_chunks and the default stand-in scorer (--attention-seed 0,
        # --attention-hidden 16)
        frames = data.load_sequence(dataset / "audio" / f"{vid}.fvsq").frames
        query, _, _ = chunk_query(frames, random_attention_params(128, 16, 16, seed=0), 3, 1)
        assert not np.allclose(query, frames.mean(axis=0, dtype=np.float64))  # the mean-mode query would not pass
        embed_audio, _ = embedders(load_model(artifacts["model"]))
        want = rank(load_index(artifacts["index"]), embed_audio(query[None])[0], n=5, query_id=vid)
        assert got == want.items

    def test_chunk_mode_train_fits_the_selected_chunks(self, dataset, tmp_path):
        out = tmp_path / "m.model"
        assert run("train", "--dataset", dataset, "--method", "cca", "--r", 4, "--query-mode", "6,2",
                   "--out", out) == 0
        # the oracle: each video's own pool_chunks and the default stand-in scorer
        params = random_attention_params(128, 16, 16, seed=0)
        audio = [chunk_query(data.load_sequence(dataset / e.audio_path).frames, params, 6, 2)[0]
                 for e in load_manifest(dataset / "manifest.jsonl").entries]
        visual = pipeline.prepare_dataset(dataset).visual
        want, got = pipeline.train_method("cca", np.stack(audio), visual, None, r=4, reg=None), load_model(out)
        for name in ("wx", "wy", "mean_x", "mean_y", "correlations"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_kcca_and_deep_train_roundtrip(self, dataset, tmp_path):
        _trained(dataset, tmp_path, "kcca", "--r", 4, "--kcca-kappa", 1e-3)
        _trained(dataset, tmp_path, "dcca", "--r", 4, "--batch-size", 18, "--epochs", 2, "--audio-layers", "16,8",
                 "--visual-layers", "16,8", "--seed", 1)

    def test_sdcca_f0_equals_dcca_weights(self, dataset, tmp_path):
        paths = {}
        for method in ("dcca", "sdcca"):
            out = tmp_path / f"{method}.model"
            assert run("train", "--dataset", dataset, "--method", method, "--f", 0,
                       "--r", 4, "--batch-size", 18, "--epochs", 2,
                       "--audio-layers", "16,8", "--visual-layers", "16,8",
                       "--out", out, "--seed", 9) == 0
            paths[method] = out
        m_d = load_deep_model(paths["dcca"])
        m_s = load_deep_model(paths["sdcca"])
        for w1, w2 in zip(m_d.audio_branch.weights, m_s.audio_branch.weights):
            np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(m_d.cca_head.wx, m_s.cca_head.wx)

    def test_deep_settings_unchecked_for_other_methods(self, dataset, tmp_path):
        # a batch size below r + 1 is rejected only when a deep method trains
        assert run("train", "--dataset", dataset, "--method", "cca", "--r", 16,
                   "--batch-size", 8, "--out", tmp_path / "cca.model") == 0
        assert run("eval", "--dataset", dataset, "--out-dir", tmp_path / "eval",
                   "--methods", "cca", "--folds", 2, "--r", 4, "--batch-size", 4,
                   "--pr-stride", 6) == 0

    @pytest.mark.parametrize("option, value", [
        ("--query-mode", "abc"), ("--audio-layers", "8,x"), ("--visual-layers", ""),
    ], ids=["query-mode", "audio-layers", "visual-layers"])
    def test_non_integer_list_names_its_option(self, dataset, tmp_path, capsys, option, value):
        err = fails(capsys, 2, "train", "--dataset", dataset, "--method", "dcca", "--r", 4, "--batch-size", 8,
                    "--epochs", 1, f"{option}={value}", "--out", tmp_path / "m.model")
        assert f"{option}: expected comma-separated integers, got {value!r}" in err
        assert not (tmp_path / "m.model").exists()

    @pytest.mark.parametrize("option, message", [
        ("--audio-layers=0,4", "audio_layers must be one or more widths >= 1, got (0, 4)"),
        ("--audio-layers=-3,4", "audio_layers must be one or more widths >= 1, got (-3, 4)"),
        ("--visual-layers=8,0", "visual_layers must be one or more widths >= 1, got (8, 0)"),
    ], ids=["audio-zero", "audio-negative", "visual-zero"])
    def test_branch_width_below_one_exits_1(self, dataset, tmp_path, capsys, option, message):
        err = fails(capsys, 1, "train", "--dataset", dataset, "--method", "dcca", "--r", 4, "--batch-size", 8,
                    "--epochs", 1, option, "--out", tmp_path / "m.model")
        assert f"avembed: invalid arguments: {message}" in err
        assert not (tmp_path / "m.model").exists()

    def test_null_correlations_noted_on_stderr(self, dataset, tmp_path, capsys):
        # f = 1 pairs every video with its whole cluster: with 4 clusters the centred pair-count
        # cross-covariance has rank 3, so 3 of 6 correlations are 0
        argv = ("train", "--dataset", dataset, "--method", "ccca", "--f", 1.0, "--seed", 2)
        assert run(*argv, "--r", 6, "--out", tmp_path / "r6.model") == 0
        out, err = capsys.readouterr()
        assert err == _WIDE_NOTE + "note: 3 of the r=6 canonical correlations are <= 1e-10\n"
        assert out.startswith("trained ccca (r=6, top correlation")
        assert np.count_nonzero(load_cca_model(tmp_path / "r6.model").correlations <= 1e-10) == 3
        assert run(*argv, "--r", 3, "--out", tmp_path / "r3.model") == 0
        assert capsys.readouterr().err == _WIDE_NOTE

    @pytest.mark.parametrize("method, noted", [("cca", True), ("ccca", True), ("kcca", False)])
    def test_rows_within_the_feature_dims_noted_for_linear_cca(self, dataset, tmp_path, capsys, method, noted):
        assert run("train", "--dataset", dataset, "--method", method, "--r", 4, "--out", tmp_path / "m.model") == 0
        assert capsys.readouterr().err == (_WIDE_NOTE if noted else "")

    @pytest.mark.parametrize("videos, err", [
        (10, "note: 10 training rows, no more than the visual (12) feature dims: linear CCA can match them "
             "perfectly, so its canonical correlations say nothing about the features\n"),
        (40, ""),
    ])
    def test_note_names_only_the_views_the_rows_do_not_exceed(self, tmp_path, capsys, videos, err):
        # 8-d audio and 12-d visual features: 10 rows exceed only the audio dims, 40 rows both
        rng = np.random.default_rng(videos)
        entries = []
        for i in range(videos):
            vid = f"v{i:02d}"
            for side, dim in (("audio", 8), ("visual", 12)):
                (tmp_path / side).mkdir(exist_ok=True)
                frames = rng.normal(size=(6, dim)).astype(np.float32)
                data.write_sequence(data.FeatureSequence(vid, side, frames), tmp_path / side / f"{vid}.fvsq")
            entries.append(data.ManifestEntry(vid, 6, f"audio/{vid}.fvsq", f"visual/{vid}.fvsq", i % 2))
        data.write_manifest(data.Manifest(entries), tmp_path / "manifest.jsonl")
        assert run("train", "--dataset", tmp_path, "--method", "cca", "--r", 2, "--out", tmp_path / "m.model") == 0
        assert capsys.readouterr().err == err

    def test_index_labels_lacking_a_video_exit_2(self, artifacts, dataset, tmp_path, capsys):
        labels, out = tmp_path / "labels.jsonl", tmp_path / "videos.index"
        labels.write_text("".join(artifacts["assignments"].read_text().splitlines(keepends=True)[1:]))
        err = fails(capsys, 2, "index", "--dataset", dataset, "--model", artifacts["model"], "--labels", labels,
                    "--out", out)
        assert "assignments file lacks labels for ['mv00000'] ..." in err
        assert not out.exists()

    def test_singular_covariance_exits_3(self, dataset, tmp_path, capsys):
        # 36 rows of 128-d audio and no ridge
        err = fails(capsys, 3, "train", "--dataset", dataset, "--method", "cca", "--r", 4, "--reg", 0,
                    "--out", tmp_path / "m.model")
        assert "covariance of 128 dimensions from 36 rows is rank deficient; pass reg > 0" in err
        assert not (tmp_path / "m.model").exists()

    def test_diverged_deep_training_exits_3(self, dataset, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(deep, "_objective_and_grad", lambda fa, fv, r, reg: (np.nan, fa, fv))
        err = fails(capsys, 3, "train", "--dataset", dataset, "--method", "dcca", "--r", 4, "--batch-size", 18,
                    "--epochs", 1, "--audio-layers", "16,8", "--visual-layers", "16,8", "--out", tmp_path / "m.model")
        assert "non-finite objective at epoch 0, batch 0" in err
        assert not (tmp_path / "m.model").exists()

    def test_kcca_cap_guard_advice(self):
        big = np.zeros((3000, 2))
        from avembed.cca import fit_kcca
        from avembed.errors import ResourceLimitError

        with pytest.raises(ResourceLimitError, match="cap of 2000. Subsample the training pairs"):
            fit_kcca(big, big, 1)


class TestChunkPoolsPerCommand:
    """Only the commands that score chunks pool them: once per video of the 36 they score, and a
    chunk-mode query only its own video."""

    @pytest.fixture
    def pool_calls(self, spy):
        return spy("pool_chunks", data, pipeline)

    @pytest.mark.parametrize("argv, pooled", [
        ("cluster --seeds-file {dataset}/seeds.json --out {out}/labels.jsonl", 0),
        ("train --method cca --r 4 --out {out}/m.model", 0),
        ("index --model {model} --labels {labels} --out {out}/videos.index", 0),
        ("query --index {index} --model {model} --video-id mv00003 -n 3", 0),
        ("train --method cca --r 4 --query-mode 3,1 --out {out}/m.model", 36),
        ("query --index {index} --model {model} --video-id mv00003 -n 3 --query-mode 3,1", 1),
        ("chunk-select --chunks 3 --top-k 1", 36),
        ("eval --out-dir {out}/eval --methods cca --folds 2 --r 4 --pr-stride 6", 36),
    ], ids=["cluster", "train-mean", "index", "query-mean", "train-chunks", "query-chunks", "chunk-select",
            "eval"])
    def test_pools_built_only_to_score_chunks(self, artifacts, dataset, tmp_path, pool_calls, argv, pooled):
        command, *rest = argv.format(dataset=dataset, out=tmp_path, model=artifacts["model"],
                                     labels=artifacts["assignments"], index=artifacts["index"]).split()
        assert run(command, "--dataset", dataset, *rest) == 0
        assert len(pool_calls) == pooled


class TestQueryReadsEveryVideoPoolsOne:
    """query reads and checks all 36 videos of the corpus in manifest order, in either mode, and
    pools (and in a chunk mode scores) only the asked one."""

    @pytest.fixture
    def calls(self, spy):
        names = ("load_sequence", "video_level_audio", "video_level_visual", "pool_chunks")
        return {name: spy(name, pipeline) for name in names}

    @staticmethod
    def _query(dataset, artifacts, vid, mode, **paths):
        paths = {**artifacts, **paths}
        return ("query", "--dataset", dataset, "--index", paths["index"], "--model", paths["model"],
                "--video-id", vid, "-n", 5, "--query-mode", mode)

    @pytest.mark.parametrize("mode, pooled_chunks", [("mean", 0), ("3,1", 1)])
    def test_reads_every_video_and_pools_the_asked_one(self, artifacts, dataset, capsys, calls, mode,
                                                       pooled_chunks):
        vid = "mv00020"
        assert run(*self._query(dataset, artifacts, vid, mode)) == 0
        got = [(o["video_id"], o["similarity"]) for o in map(json.loads, capsys.readouterr().out.splitlines())]
        entries = load_manifest(dataset / "manifest.jsonl").entries
        assert [Path(p).name for p, in calls["load_sequence"]] == [
            f"{e.video_id}.fvsq" for e in entries for _ in ("audio", "visual")
        ]
        assert [seq.video_id for seq, in calls["video_level_audio"]] == [vid]
        assert [seq.video_id for seq, in calls["video_level_visual"]] == [vid]
        assert len(calls["pool_chunks"]) == pooled_chunks
        if mode == "mean":  # the chunk mode's oracle is test_chunk_mode_query_ranks_the_selected_chunks
            frames = data.load_sequence(dataset / "audio" / f"{vid}.fvsq").frames
            embed_audio, _ = embedders(load_model(artifacts["model"]))
            query = embed_audio(frames.mean(axis=0, dtype=np.float64)[None])[0]
            assert got == rank(load_index(artifacts["index"]), query, n=5, query_id=vid).items

    @pytest.mark.parametrize("mode", ["mean", "3,1"])
    @pytest.mark.parametrize("fault", ["nan", "fewer-audio-frames"])
    def test_fault_in_another_video_exits_2_naming_it(self, artifacts, dataset, tmp_path, capsys, mode, fault):
        # mv00020's audio is read from a copy with a NaN in its last frame, or with one frame fewer
        seq = data.load_sequence(dataset / "audio" / "mv00020.fvsq")
        bad = tmp_path / "mv00020.fvsq"
        if fault == "nan":
            data.write_sequence(seq, bad)
            bad.write_bytes(bad.read_bytes()[:-4] + np.array([np.nan], dtype="<f4").tobytes())
            message = "sequence 'mv00020' contains non-finite values"
        else:
            data.write_sequence(data.FeatureSequence("mv00020", "audio", seq.frames[:-1]), bad)
            message = f"'mv00020': audio has {seq.n_frames - 1} frames but visual has {seq.n_frames}"
        root = _manifest_dir(dataset, tmp_path, lambda e: e.update(audio_path=str(bad)), row=20)
        for vid in ("mv00003", "mv00030"):
            assert message in fails(capsys, 2, *self._query(root, artifacts, vid, mode))

    @pytest.mark.parametrize("at", ["first", "middle", "last"])
    def test_nan_anywhere_in_another_payload_exits_2_naming_it(self, artifacts, dataset, tmp_path, capsys, at):
        seq = data.load_sequence(dataset / "audio" / "mv00020.fvsq")
        frames = seq.frames.copy().reshape(-1)
        frames[{"first": 0, "middle": frames.size // 2, "last": -1}[at]] = np.nan
        header = (dataset / "audio" / "mv00020.fvsq").read_bytes()[:14]
        bad = tmp_path / "mv00020.fvsq"
        bad.write_bytes(header + frames.astype("<f4").tobytes())
        root = _manifest_dir(dataset, tmp_path, lambda e: e.update(audio_path=str(bad)), row=20)
        err = fails(capsys, 2, *self._query(root, artifacts, "mv00003", "mean"))
        assert err == "avembed: data error: sequence 'mv00020' contains non-finite values\n"

    @pytest.mark.parametrize("mode", ["mean", "3,1"])
    def test_unknown_video_exits_2_before_any_file_is_read(self, dataset, tmp_path, capsys, calls, mode):
        # the index and model do not exist: the unknown id is named before either is opened
        argv = self._query(dataset, {}, "nope", mode, index=tmp_path / "no.index", model=tmp_path / "no.model")
        assert "video 'nope' not in the dataset" in fails(capsys, 2, *argv)
        assert calls["load_sequence"] == []


class TestPathsNamedAsPathlibNamesThem:
    """A manifest path written './audio/mv00001.fvsq', under a dataset directory spelled with a
    trailing '/', a '.' part or as '.', is named in every message as Path(dataset) / audio_path
    prints it: 'audio/mv00001.fvsq' under the directory, with no './'."""

    @pytest.mark.parametrize("spelling", ["plain", "trailing-slash", "dot-part", "cwd"])
    @pytest.mark.parametrize("fault", ["truncated", "trailing-bytes", "bad-magic", "nan", "missing"])
    def test_error_text(self, dataset, artifacts, tmp_path, monkeypatch, capsys, spelling, fault):
        root = tmp_path / "data"
        (root / "audio").mkdir(parents=True)
        _manifest_dir(dataset, root, lambda e: e.update(audio_path="./audio/mv00001.fvsq"), row=1)
        raw = (dataset / "audio" / "mv00001.fvsq").read_bytes()
        nan = np.array([np.nan], dtype="<f4").tobytes()
        edited = {"truncated": raw[:-5], "trailing-bytes": raw + bytes(4), "bad-magic": b"FVSX" + raw[4:],
                  "nan": raw[:-4] + nan, "missing": None}[fault]
        if edited is not None:
            (root / "audio" / "mv00001.fvsq").write_bytes(edited)
        if spelling == "cwd":
            monkeypatch.chdir(root)
        arg = {"plain": f"{root}", "trailing-slash": f"{root}/", "dot-part": f"{root}/./", "cwd": "."}[spelling]
        shown = str(Path(arg) / "./audio/mv00001.fvsq")
        assert shown == ("audio/mv00001.fvsq" if spelling == "cwd" else f"{root}/audio/mv00001.fvsq")
        message = {
            "truncated": f"{shown}: truncated payload",
            "trailing-bytes": f"{shown}: 4 trailing bytes",
            "bad-magic": f"{shown}: bad magic b'FVSX'",
            "nan": "sequence 'mv00001' contains non-finite values",
            "missing": f"[Errno 2] No such file or directory: '{shown}'",
        }[fault]
        argv = ("query", "--dataset", arg, "--index", artifacts["index"], "--model", artifacts["model"],
                "--video-id", "mv00003")
        assert fails(capsys, 2, *argv) == f"avembed: data error: {message}\n"

    def test_missing_manifest_under_cwd(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        err = fails(capsys, 2, "ingest", "--dataset", ".")
        assert err == "avembed: data error: [Errno 2] No such file or directory: 'manifest.jsonl'\n"


class TestParserBuiltOnce:
    """main parses every command line of a process with one parser, and answers each as a parser
    built afresh for it would: a usage error, then two different commands, then help and another
    usage error."""

    def test_cached_parser_answers_as_a_fresh_one(self, dataset, tmp_path, capsys, monkeypatch):
        assert build_parser() is build_parser()
        argvs = [
            ("synth", "--videos", 4),  # no --out: usage error
            ("synth", "--out", tmp_path / "small", "--videos", 4, "--clusters", 2, "--latent-dim", 3),
            ("chunk-select", "--dataset", dataset, "--video-id", "mv00001", "--chunks", 3, "--top-k", 1),
            ("query", "-h"),
            ("train", "--dataset", dataset, "--method", "nope", "--out", tmp_path / "m.model"),
        ]

        def answers():
            got = []
            for argv in argvs:
                code = run(*argv)
                got.append((code, *capsys.readouterr()))
            return got

        cached = answers()
        assert [code for code, _, _ in cached] == [1, 0, 0, 0, 1]
        monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
        assert answers() == cached


class TestFeatureDims:
    """Every video must have the first video's feature dims: a file that differs exits 2 with a
    message naming the video, the modality and both dims."""

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("dims") / "data"
        assert run("synth", "--out", root, "--videos", 12, "--clusters", 3, "--latent-dim", 4, "--seed", 3) == 0
        model, index = root.parent / "cca.model", root.parent / "videos.index"
        assert run("train", "--dataset", root, "--method", "cca", "--r", 4, "--out", model) == 0
        assert run("index", "--dataset", root, "--model", model, "--out", index) == 0
        return root, model, index

    @staticmethod
    def _cut(corpus, tmp_path, side, dim, videos="mv00004") -> Path:
        """A copy of the corpus whose videos matching the glob videos have only the first dim
        columns on the given side."""
        root = tmp_path / "data"
        shutil.copytree(corpus, root)
        for path in (root / side).glob(f"{videos}.fvsq"):
            seq = data.load_sequence(path)
            data.write_sequence(data.FeatureSequence(seq.video_id, side, seq.frames[:, :dim]), path)
        return root

    @pytest.mark.parametrize("side, dim, argv", [
        ("audio", 64, "ingest"),
        ("audio", 64, "cluster --out {out}/labels.jsonl"),
        ("audio", 64, "chunk-select --chunks 3 --top-k 1"),
        ("audio", 64, "eval --out-dir {out}/eval --methods cca --folds 2 --r 4"),
        ("visual", 512, "ingest"),
        ("visual", 512, "index --model {model} --out {out}/videos.index"),
    ], ids=["audio-ingest", "audio-cluster", "audio-chunk-select", "audio-eval", "visual-ingest", "visual-index"])
    def test_differing_dims_exit_2(self, corpus, tmp_path, capsys, side, dim, argv):
        root = self._cut(corpus[0], tmp_path, side, dim)
        command, *rest = argv.format(out=tmp_path, model=corpus[1]).split()
        err = fails(capsys, 2, command, "--dataset", root, *rest)
        full = 128 if side == "audio" else 1024
        assert f"'mv00004': {side} features are {dim}-d but the first video's are {full}-d" in err

    @pytest.mark.parametrize("side, dim, argv", [
        ("audio", 64, "query --index {index} --model {model} --video-id mv00003 -n 3"),
        ("visual", 512, "index --model {model} --out {out}/videos.index"),
    ], ids=["query", "index"])
    def test_model_of_another_width_than_the_dataset_exits_2(self, corpus, tmp_path, capsys, side, dim, argv):
        # every video cut alike: the corpus agrees with itself, and not with the model trained on it
        root = self._cut(corpus[0], tmp_path, side, dim, videos="*")
        command, *rest = argv.format(out=tmp_path, model=corpus[1], index=corpus[2]).split()
        err = fails(capsys, 2, command, "--dataset", root, *rest)
        full = 128 if side == "audio" else 1024
        assert f"model {corpus[1]} takes {full}-d {side} features, the dataset's are {dim}-d" in err


class TestManifestLengthContract:
    """A manifest line whose length_sec its files contradict exits 2 in every command that reads
    the corpus, with ingest's message and no traceback; 10**9 s would size the chunk pools at
    3.7 TiB if a command trusted it."""

    @pytest.mark.parametrize("length_sec", [100, 10**9])
    @pytest.mark.parametrize("argv", [
        "ingest",
        "cluster --seeds-file {dataset}/seeds.json --out {out}/labels.jsonl",
        "chunk-select --chunks 3 --top-k 1",
        "train --method cca --r 4 --out {out}/m.model",
        "train --method cca --r 4 --query-mode 3,1 --out {out}/m.model",
        "index --model {model} --labels {labels} --out {out}/videos.index",
        "query --index {index} --model {model} --video-id mv00003 -n 3",
        "eval --out-dir {out}/eval --methods cca --folds 2 --r 4",
    ], ids=["ingest", "cluster", "chunk-select", "train-mean", "train-chunks", "index", "query", "eval"])
    def test_exits_2_naming_the_video(self, dataset, artifacts, tmp_path, capsys, argv, length_sec):
        frames = load_manifest(dataset / "manifest.jsonl").entries[5].length_sec
        _manifest_dir(dataset, tmp_path, lambda e: e.update(length_sec=length_sec), row=5)
        command, *rest = argv.format(dataset=dataset, out=tmp_path, model=artifacts["model"],
                                     labels=artifacts["assignments"], index=artifacts["index"]).split()
        err = fails(capsys, 2, command, "--dataset", tmp_path, *rest)
        assert f"'mv00005': manifest says {length_sec}s but file holds {frames} frames" in err


class TestQueryModeCheckedFirst:
    """A malformed --query-mode exits 2 before the corpus is read."""

    @pytest.fixture(scope="class")
    def truncated(self, dataset, tmp_path_factory):
        root = tmp_path_factory.mktemp("truncated") / "data"
        shutil.copytree(dataset, root)
        victim = sorted((root / "audio").iterdir())[5]
        victim.write_bytes(victim.read_bytes()[:-9])
        return root, victim.name

    def _argv(self, command, artifacts, tmp_path):
        if command == "train":
            return ("train", "--method", "cca", "--r", 4, "--out", tmp_path / "m.model")
        return ("query", "--index", artifacts["index"], "--model", artifacts["model"], "--video-id", "mv00003")

    @pytest.mark.parametrize("mode, message", [
        ("1,2,3", "--query-mode must be 'mean' or two integers 'c,k', got '1,2,3'"),
        ("0,1", "top-k must be in [1, chunks], got top-k 1 of 0 chunks"),
    ], ids=["three-ints", "zero-chunks"])
    @pytest.mark.parametrize("command", ["train", "query"])
    def test_mode_named_not_the_file(self, truncated, artifacts, tmp_path, capsys, command, mode, message):
        root, victim = truncated
        err = fails(capsys, 2, *self._argv(command, artifacts, tmp_path), "--dataset", root, "--query-mode", mode)
        assert message in err and victim not in err and not (tmp_path / "m.model").exists()

    @pytest.mark.parametrize("command", ["train", "query"])
    def test_well_formed_mode_reaches_the_file(self, truncated, artifacts, tmp_path, capsys, command):
        root, victim = truncated
        assert victim in fails(capsys, 2, *self._argv(command, artifacts, tmp_path), "--dataset", root,
                               "--query-mode", "3,1")


def _edit_header(src: Path, dst: Path, edit) -> Path:
    """Copy a model/index file with its JSON header bytes replaced by edit(header bytes)."""
    dst.write_bytes(edit_header(src.read_bytes(), edit))
    return dst


def _edit_json(change):
    def edit(header: bytes) -> bytes:
        obj = json.loads(header)
        change(obj)
        return json.dumps(obj).encode()

    return edit


class TestCorruptArtifacts:
    """Every corrupt model, index or assignments file exits 2 with a message."""

    def _query_fails_cleanly(self, dataset, capsys, index, model) -> str:
        return fails(capsys, 2, "query", "--dataset", dataset, "--index", index, "--model", model,
                     "--video-id", "mv00003", "-n", 3)

    @pytest.mark.parametrize("method, edit, message", [
        ("cca", lambda h: b"\xff" + h[1:], ""),                   # flipped byte: not UTF-8
        ("cca", lambda h: b"[" + h[1:], ""),                       # flipped byte: not JSON
        ("cca", lambda h: b"[1, 2]", ""),                          # JSON, but not an object
        ("cca", _edit_json(lambda obj: obj.pop("type")), ""),      # no model type
        ("cca", _edit_json(lambda obj: obj.update(type="pca")), ""),  # unknown model type
        ("cca", _edit_json(lambda obj: obj.pop("reg_x")), ""),     # a field of the type missing
        ("cca", _edit_json(lambda obj: obj.update(reg_x="small")), ""),  # a field of the wrong JSON type
        ("cca", _edit_json(lambda obj: obj.update(reg_x="0.5")), "key 'reg_x' must be float"),
        ("cca", _edit_json(lambda obj: obj.update(reg_x=True)), "key 'reg_x' must be float"),
        ("cca", _edit_json(lambda obj: obj.update(correlations=["a", "b", "c", "d"])),
         "key 'correlations' must be an array of numbers"),
        ("kcca", _edit_json(lambda obj: obj.update(beta="0.4")), "key 'beta' must be float"),
        ("kcca", _edit_json(lambda obj: obj.update(kernel=5)), "key 'kernel' must be one of"),
        ("kcca", _edit_json(lambda obj: obj.update(kernel="polynomial")), "key 'kernel' must be one of"),
        ("cca", _edit_json(lambda obj: obj.update(reg_x=-3.0)), "reg_x must be a finite number >= 0"),
        # a NaN or an infinity is no float the file's fields take, before any rule of the model's own
        ("cca", _edit_json(lambda obj: obj.update(reg_y=float("nan"))),
         "key 'reg_y' must be float (a finite number), got NaN"),
        ("cca", _edit_json(lambda obj: obj.update(reg_x=float("inf"))),
         "key 'reg_x' must be float (a finite number), got Infinity"),
        ("kcca", _edit_json(lambda obj: obj.update(beta=0)), "invalid kcca model: beta must be a finite number > 0"),
        ("kcca", _edit_json(lambda obj: obj.update(beta=-1)), "invalid kcca model: beta must be a finite number > 0"),
        ("kcca", _edit_json(lambda obj: obj.update(beta=float("nan"))),
         "key 'beta' must be float (a finite number), got NaN"),
        ("kcca", _edit_json(lambda obj: obj.update(kappa=0)), "invalid kcca model: kappa must be a finite number > 0"),
        ("kcca", _edit_json(lambda obj: obj.update(grand_mean_x=float("nan"))),
         "key 'grand_mean_x' must be float (a finite number), got NaN"),
    ], ids=["not-utf8", "not-json", "not-object", "no-type", "unknown-type", "no-field", "field-not-number",
            "reg-numeric-string", "reg-bool", "correlations-strings", "kcca-beta-string", "kcca-kernel-int",
            "kcca-kernel-unknown", "reg-negative", "reg-nan", "reg-infinite", "kcca-beta-zero",
            "kcca-beta-negative", "kcca-beta-nan", "kcca-kappa-zero", "kcca-grand-mean-nan"])
    def test_model_header(self, artifacts, kcca_artifacts, dataset, tmp_path, capsys, method, edit, message):
        src = kcca_artifacts if method == "kcca" else artifacts
        model = _edit_header(src["model"], tmp_path / "bad.model", edit)
        assert message in self._query_fails_cleanly(dataset, capsys, src["index"], model)

    @pytest.mark.parametrize("change, message", [
        (lambda obj: obj.pop("n_audio_layers"), ""),
        (lambda obj: obj.pop("head_correlations"), ""),
        (lambda obj: obj.update(n_audio_layers=obj["n_audio_layers"] + 1), ""),  # one block pair short
        (lambda obj: obj.update(n_audio_layers="two"), ""),
        (lambda obj: obj.update(n_audio_layers=2.0), "key 'n_audio_layers' must be int"),
        (lambda obj: obj.update(head_reg_y=-1.0), "reg_y must be a finite number >= 0"),
    ], ids=["no-layer-count", "no-head-correlations", "layer-count-too-high", "layer-count-not-int",
            "layer-count-float", "head-reg-negative"])
    def test_deep_model_header(self, deep_artifacts, dataset, tmp_path, capsys, change, message):
        model = _edit_header(deep_artifacts["model"], tmp_path / "bad.model", _edit_json(change))
        assert message in self._query_fails_cleanly(dataset, capsys, deep_artifacts["index"], model)

    @pytest.mark.parametrize("method, edit, message", [
        ("cca", lambda b: b.update(mean_x=b["mean_x"][:5]), "mean_x of shape (5,)"),
        ("kcca", lambda b: b.update(dual_x=b["dual_x"][:-3]), "dual_x of shape"),
        ("dcca", lambda b: b.update({"head.wx": np.vstack([b["head.wx"]] * 2)}), "mean_x of shape"),
        ("dcca", lambda b: b.update({"head.wx": np.vstack([b["head.wx"]] * 2),
                                     "head.mean_x": np.tile(b["head.mean_x"], 2)}), "head.wx of shape"),
        ("dcca", lambda b: b.update({"audio.w0": b["audio.w0"][0]}), "audio.w0 of shape (16,)"),
        ("dcca", lambda b: b.update({"head.wx": np.vstack([b["head.wx"]] * 2)}),
         "invalid dcca model: head.mean_x of shape (8,) does not fit the other arrays"),
    ], ids=["linear-mean-short", "kcca-dual-short", "dcca-head-rows-doubled", "dcca-head-wider-than-branch",
            "dcca-weight-1d", "dcca-head-rows-doubled-names-the-block"])
    def test_model_blocks_disagree_in_shape(self, artifacts, kcca_artifacts, deep_artifacts, dataset, tmp_path,
                                            capsys, method, edit, message):
        src = {"cca": artifacts, "kcca": kcca_artifacts, "dcca": deep_artifacts}[method]["model"]
        magic = src.read_bytes()[:4]
        header, blocks = blockio.load(src, magic)
        edit(blocks)
        blockio.save(tmp_path / "bad.model", magic, header, blocks)
        assert message in self._query_fails_cleanly(dataset, capsys, artifacts["index"], tmp_path / "bad.model")

    @pytest.mark.parametrize("method, block, value", [
        ("cca", "wx", np.inf), ("kcca", "dual_y", np.nan), ("dcca", "visual.w0", -np.inf),
    ])
    def test_model_block_not_finite(self, artifacts, kcca_artifacts, deep_artifacts, dataset, tmp_path, capsys,
                                    method, block, value):
        src = {"cca": artifacts, "kcca": kcca_artifacts, "dcca": deep_artifacts}[method]
        magic = src["model"].read_bytes()[:4]
        header, blocks = blockio.load(src["model"], magic)
        blocks[block].flat[0] = value
        model = tmp_path / "bad.model"
        blockio.save(model, magic, header, blocks)
        message = f"{model}: block {block!r} holds NaN or Inf"
        assert message in self._query_fails_cleanly(dataset, capsys, src["index"], model)
        assert message in fails(capsys, 2, "index", "--dataset", dataset, "--model", model, "--out", tmp_path / "x")

    def test_index_embedding_not_finite(self, artifacts, dataset, tmp_path, capsys):
        index = load_index(artifacts["index"])
        index.embeddings[5, 0] = np.nan
        save_index(index, tmp_path / "bad.index")
        err = self._query_fails_cleanly(dataset, capsys, tmp_path / "bad.index", artifacts["model"])
        assert "block 'embeddings' holds NaN or Inf" in err

    def test_index_embedding_of_zero_norm(self, artifacts, dataset, tmp_path, capsys):
        index = load_index(artifacts["index"])
        index.embeddings[3] = 0.0
        save_index(index, tmp_path / "bad.index")
        err = self._query_fails_cleanly(dataset, capsys, tmp_path / "bad.index", artifacts["model"])
        assert f"{tmp_path / 'bad.index'}: zero-norm embeddings cannot be indexed: ['{index.ids[3]}']" in err

    def test_index_embedding_norm_overflows(self, artifacts, dataset, tmp_path, capsys):
        index = load_index(artifacts["index"])
        index.embeddings[5, 0] = 1e300
        save_index(index, tmp_path / "bad.index")
        err = self._query_fails_cleanly(dataset, capsys, tmp_path / "bad.index", artifacts["model"])
        assert f"{tmp_path / 'bad.index'}: non-finite-norm embeddings cannot be indexed: ['{index.ids[5]}']" in err
        assert "Warning" not in err

    def test_model_block_name_not_utf8(self, artifacts, dataset, tmp_path, capsys):
        raw = bytearray(artifacts["model"].read_bytes())
        (length,) = struct.unpack("<I", raw[5:9])
        raw[9 + length + 4] = 0xFF  # first byte of the first block's name
        model = tmp_path / "bad.model"
        model.write_bytes(bytes(raw))
        self._query_fails_cleanly(dataset, capsys, artifacts["index"], model)

    def test_deep_layer_count_beyond_the_blocks(self, deep_artifacts, dataset, tmp_path, capsys):
        # rejected by the file's block count before a block name is built for each layer
        model = _edit_header(deep_artifacts["model"], tmp_path / "bad.model",
                             _edit_json(lambda obj: obj.update(n_audio_layers=2**62)))
        err = fails(capsys, 2, "index", "--dataset", dataset, "--model", model, "--out", tmp_path / "i.index")
        assert f"dcca model header key 'n_audio_layers' is {2**62}, but the file holds 12 blocks" in err

    def test_index_header_without_count(self, artifacts, dataset, tmp_path, capsys):
        index = _edit_header(artifacts["index"], tmp_path / "bad.index", _edit_json(lambda obj: obj.pop("count")))
        self._query_fails_cleanly(dataset, capsys, index, artifacts["model"])

    def test_index_header_r_contradicts_the_block(self, artifacts, dataset, tmp_path, capsys):
        width = load_index(artifacts["index"]).r
        index = _edit_header(artifacts["index"], tmp_path / "bad.index", _edit_json(lambda obj: obj.update(r=9)))
        err = self._query_fails_cleanly(dataset, capsys, index, artifacts["model"])
        assert f"{index}: index header key 'r' is 9, but block 'embeddings' is {width} wide" in err

    @pytest.mark.parametrize("line", [
        b"not json\n",
        b'{"video_id": "mv00000"}\n',
        b'{"label": 0}\n',
        b"[1, 2]\n",
    ], ids=["not-json", "no-label", "no-video-id", "not-object"])
    def test_index_id_line(self, artifacts, dataset, tmp_path, capsys, line):
        raw = artifacts["index"].read_bytes()
        lines = raw.splitlines(keepends=True)
        index = tmp_path / "bad.index"
        index.write_bytes(b"".join(lines[:-1]) + line)
        self._query_fails_cleanly(dataset, capsys, index, artifacts["model"])

    def test_index_id_table_repeats_a_video(self, artifacts, dataset, tmp_path, capsys):
        # the count still matches: the last of the 36 lines names the first video again
        lines = artifacts["index"].read_bytes().splitlines(keepends=True)
        index = tmp_path / "bad.index"
        index.write_bytes(b"".join(lines[:-1]) + b'{"video_id": "mv00000", "label": 0}\n')
        err = self._query_fails_cleanly(dataset, capsys, index, artifacts["model"])
        assert f"{index} id table:36: id line repeats video_id 'mv00000'" in err

    def test_index_label_beyond_int64(self, artifacts, dataset, tmp_path, capsys):
        lines = artifacts["index"].read_bytes().splitlines(keepends=True)
        last = json.loads(lines[-1])
        index = tmp_path / "bad.index"
        index.write_bytes(b"".join(lines[:-1]) + json.dumps({**last, "label": 2**70}).encode() + b"\n")
        err = self._query_fails_cleanly(dataset, capsys, index, artifacts["model"])
        assert f"{index} id table:36: id line key 'label' must fit int64" in err

    def test_assignment_label_beyond_int64(self, artifacts, dataset, tmp_path, capsys):
        ids = [e.video_id for e in load_manifest(dataset / "manifest.jsonl").entries]
        labels = tmp_path / "labels.jsonl"
        labels.write_text("".join(json.dumps({"video_id": v, "label": 2**70 if i == 2 else i % 4}) + "\n"
                                  for i, v in enumerate(ids)))
        out = tmp_path / "videos.index"
        err = fails(capsys, 2, "index", "--dataset", dataset, "--model", artifacts["model"], "--labels", labels,
                    "--out", out)
        assert f"{labels}:3: assignment key 'label' must fit int64, got {2**70}" in err
        assert not out.exists()

    def test_assignments_repeat_a_video(self, artifacts, dataset, tmp_path, capsys):
        ids = [e.video_id for e in load_manifest(dataset / "manifest.jsonl").entries]
        labels = tmp_path / "labels.jsonl"
        rows = [(v, 1 if v == "mv00000" else i % 4) for i, v in enumerate(ids)] + [("mv00000", 3)]
        labels.write_text("".join(json.dumps({"video_id": v, "label": lab}) + "\n" for v, lab in rows))
        out = tmp_path / "videos.index"
        err = fails(capsys, 2, "index", "--dataset", dataset, "--model", artifacts["model"], "--labels", labels,
                    "--out", out)
        assert f"{labels}:37: assignment repeats video_id 'mv00000'" in err
        assert not out.exists()


# a JSON artifact with the right syntax but the wrong shape or field type
_BAD_WEIGHTS = {"version": 1, "forward_lstm": [1, 2], "backward_lstm": {}, "w_forward": [[0.0]],
                "w_backward": [[0.0]], "w_out": [0.0], "bias": [0.0]}
_BAD_ENTRY = {"video_id": "mv00000", "length_sec": "abc", "audio_path": "audio/mv00000.fvsq",
          "visual_path": "visual/mv00000.fvsq"}


# a command that reads each kind of JSON input file: {file} is the file, {dir} its directory
_READERS = {
    "manifest.jsonl": ("ingest", "--dataset", "{dir}"),
    "seeds.json": ("cluster", "--dataset", "{dataset}", "--seeds-file", "{file}", "--out", "{dir}/labels.jsonl"),
    "weights.json": ("chunk-select", "--dataset", "{dataset}", "--video-id", "mv00000",
                     "--attention-weights", "{file}"),
    "labels.jsonl": ("train", "--dataset", "{dataset}", "--method", "ccca", "--r", "4", "--labels", "{file}",
                     "--out", "{dir}/ccca.model"),
}


def _read_fails(capsys, dataset, path: Path) -> str:
    """The stderr of the _READERS command of path's name reading path, which must exit 2."""
    return fails(capsys, 2, *(a.format(dir=path.parent, file=path, dataset=dataset) for a in _READERS[path.name]))


class TestMalformedJsonArtifacts:
    """Every malformed JSON input file exits 2 with a message."""

    @pytest.mark.parametrize("name, content", [
        ("manifest.jsonl", "[1, 2]\n"),
        ("manifest.jsonl", json.dumps(_BAD_ENTRY) + "\n"),
        ("seeds.json", "[]"),
        ("weights.json", "[]"),
        ("weights.json", json.dumps(_BAD_WEIGHTS)),
        ("labels.jsonl", '{"video_id": "mv00000", "label": "x"}\n'),
    ], ids=["manifest-not-object", "manifest-length-not-int", "seeds-not-object",
            "weights-not-object", "weights-lstm-not-object", "assignment-label-not-int"])
    def test_exits_2_without_traceback(self, dataset, tmp_path, capsys, name, content):
        (tmp_path / name).write_text(content)
        _read_fails(capsys, dataset, tmp_path / name)


def _manifest_dir(dataset: Path, out: Path, change, row: int = 0) -> Path:
    """out with dataset's manifest, its file paths made absolute and change applied to the entry of row."""
    entries = [json.loads(line) for line in (dataset / "manifest.jsonl").read_text().splitlines()]
    for e in entries:
        e["audio_path"], e["visual_path"] = str(dataset / e["audio_path"]), str(dataset / e["visual_path"])
    change(entries[row])
    (out / "manifest.jsonl").write_text("".join(json.dumps(e) + "\n" for e in entries))
    return out


class TestJsonTypesAndFileSlots:
    """Non-UTF-8 JSON, a float or bool where an int belongs, trailing bytes in a sequence file
    and a sequence file of the wrong modality all exit 2 with a message."""

    @pytest.mark.parametrize("name", list(_READERS), ids=["manifest", "seeds", "weights", "assignments"])
    def test_not_utf8(self, dataset, tmp_path, capsys, name):
        path = tmp_path / name
        path.write_bytes(b'{"video_id": "mv\xff"}\n')
        err = _read_fails(capsys, dataset, path)
        assert f"{path}:1: " in err and "not UTF-8" in err

    @pytest.mark.parametrize("change, message", [
        (lambda e: e.update(length_sec=e["length_sec"] + 0.9), "manifest key 'length_sec' must be int, got 2"),
        (lambda e: e.update(label=True), "manifest key 'label' must be int or null, got true"),
    ], ids=["length-float", "label-bool"])
    def test_manifest_field_type(self, dataset, tmp_path, capsys, change, message):
        _manifest_dir(dataset, tmp_path, change)
        assert message in fails(capsys, 2, "ingest", "--dataset", tmp_path)

    def test_manifest_label_beyond_int64(self, dataset, tmp_path, capsys):
        # ccca trains on the manifest's labels when no --labels file is given
        _manifest_dir(dataset, tmp_path, lambda e: e.update(label=-(2**63) - 1))
        err = fails(capsys, 2, "train", "--dataset", tmp_path, "--method", "ccca", "--r", 4,
                    "--out", tmp_path / "ccca.model")
        assert f"{tmp_path / 'manifest.jsonl'}:1: manifest key 'label' must fit int64" in err
        assert not (tmp_path / "ccca.model").exists()

    @pytest.mark.parametrize("ids, shown", [([1, 2], "1"), (["mv00000", True], "true")], ids=["int", "bool"])
    def test_seed_ids_are_strings(self, dataset, tmp_path, capsys, ids, shown):
        seeds = tmp_path / "seeds.json"
        seeds.write_text(json.dumps({"version": 1, "categories": {"a": ["mv00001"], "b": ids}}))
        err = fails(capsys, 2, "cluster", "--dataset", dataset, "--seeds-file", seeds,
                    "--out", tmp_path / "labels.jsonl")
        assert f"{seeds}: category 'b' holds id {shown}, not a string" in err

    def test_assignment_label_float(self, dataset, tmp_path, capsys):
        ids = [json.loads(line)["video_id"] for line in (dataset / "manifest.jsonl").read_text().splitlines()]
        labels = tmp_path / "labels.jsonl"
        labels.write_text("".join(json.dumps({"video_id": v, "label": 0.7 if i == 0 else i % 4}) + "\n"
                                  for i, v in enumerate(ids)))
        err = fails(capsys, 2, "train", "--dataset", dataset, "--method", "ccca", "--r", 4,
                    "--labels", labels, "--out", tmp_path / "ccca.model")
        assert "assignment key 'label' must be int, got 0.7" in err

    @pytest.mark.parametrize("change, message", [
        (lambda obj: obj.update(w_out=[str(v) for v in obj["w_out"]]), "key 'w_out' must be an array of numbers"),
        (lambda obj: obj.update(bias=[v > 0 for v in obj["bias"]]), "key 'bias' must be an array of numbers"),
        (lambda obj: obj.update(version=1.0), "key 'version' must be int, got 1.0"),
        (lambda obj: obj.update(w_out=[[v, -v] for v in obj["w_out"]]), "w_out and bias must be vectors"),
        (lambda obj: obj.update(version=2), "key 'version' is 2; only version 1 is supported"),
        (lambda obj: obj.update(bias=json.loads("[" * 40 + json.dumps(obj["bias"]) + "]" * 40)),
         "w_out and bias must be vectors"),
        (lambda obj: obj.update(bias=json.loads("[" * 100 + json.dumps(obj["bias"]) + "]" * 100)),
         "key 'bias' must be an array of numbers"),
    ], ids=["w-out-strings", "bias-bools", "version-float", "w-out-matrix", "version-2", "bias-nested-40-deep",
            "bias-nested-100-deep"])
    def test_attention_weights_typed_and_shaped(self, dataset, tmp_path, capsys, change, message):
        weights = tmp_path / "weights.json"
        save_attention_params(random_attention_params(128, 16, 16, seed=0), weights)
        argv = ("chunk-select", "--dataset", dataset, "--video-id", "mv00000", "--attention-weights", weights)
        assert run(*argv) == 0
        capsys.readouterr()
        obj = json.loads(weights.read_text())
        change(obj)
        weights.write_text(json.dumps(obj))
        assert message in fails(capsys, 2, *argv)

    @pytest.mark.parametrize("lstm, key, value", [
        (None, "bias", float("inf")), (None, "w_out", float("nan")), ("forward_lstm", "b_forget", float("nan")),
        (None, "bias", 10**400),
    ], ids=["bias-infinity", "w-out-nan", "gate-bias-nan", "bias-int-beyond-float64"])
    def test_attention_weights_non_finite(self, dataset, tmp_path, capsys, lstm, key, value):
        # json.dumps writes Infinity and NaN, and json.loads reads them back, though RFC 8259 has neither;
        # 10**400 is a JSON number that no float64 holds
        weights = tmp_path / "weights.json"
        save_attention_params(random_attention_params(128, 16, 16, seed=0), weights)
        obj = json.loads(weights.read_text())
        (obj if lstm is None else obj[lstm])[key][0] = value
        weights.write_text(json.dumps(obj))
        err = fails(capsys, 2, "chunk-select", "--dataset", dataset, "--video-id", "mv00000",
                    "--attention-weights", weights)
        where = f"{weights}: attention weights" + ("" if lstm is None else f" {lstm}")
        assert f"{where} key {key!r} must be an array of numbers, got [" in err

    def test_sequence_file_with_trailing_bytes(self, dataset, tmp_path, capsys):
        audio = tmp_path / "audio.fvsq"
        audio.write_bytes((dataset / "audio" / "mv00000.fvsq").read_bytes() + b"junk")
        _manifest_dir(dataset, tmp_path, lambda e: e.update(audio_path=str(audio)))
        assert "4 trailing bytes" in fails(capsys, 2, "ingest", "--dataset", tmp_path)

    @pytest.mark.parametrize("argv", [
        ("ingest", "--dataset", "{dir}"),
        ("train", "--dataset", "{dir}", "--method", "cca", "--r", "4", "--out", "{dir}/cca.model"),
    ], ids=["ingest", "train"])
    def test_audio_path_holds_a_visual_sequence(self, dataset, tmp_path, capsys, argv):
        _manifest_dir(dataset, tmp_path, lambda e: e.update(audio_path=e["visual_path"]))
        err = fails(capsys, 2, *(a.format(dir=tmp_path) for a in argv))
        assert "'mv00000': its audio_path holds a visual sequence" in err


class TestEval:
    def test_matrix_shape_and_determinism(self, dataset, tmp_path):
        outs = []
        for name in ("e1", "e2"):
            out_dir = tmp_path / name
            code = run(
                "eval", "--dataset", dataset, "--out-dir", out_dir,
                "--methods", "cca,ccca", "--folds", 2, "--seed", 4,
                "--r", 4, "--f", 1.0, "--pr-stride", 4, "--attention-seed", 1,
            )
            assert code == 0
            outs.append(out_dir)
        matrix = (outs[0] / "map_matrix.csv").read_text().splitlines()
        assert matrix[0] == "method,1/3,2/6,3/9,mean"
        assert len(matrix) == 3
        for row in matrix[1:]:
            cells = row.split(",")
            assert len(cells) == 5
            for v in cells[1:]:
                assert 0.0 <= float(v) <= 1.0
        # byte-identical rerun: every CSV and JSON report
        assert tree_hash(outs[0], "*.csv") == tree_hash(outs[1], "*.csv")
        assert tree_hash(outs[0], "*.json") == tree_hash(outs[1], "*.json")

    def test_pr_csvs_written(self, dataset, tmp_path):
        out_dir = tmp_path / "e3"
        assert run("eval", "--dataset", dataset, "--out-dir", out_dir,
                   "--methods", "cca", "--folds", 2, "--seed", 6, "--r", 4,
                   "--pr-stride", 6) == 0
        for name in ("1of3", "2of6", "3of9", "mean"):
            csv = out_dir / f"pr_cca_{name}.csv"
            assert csv.exists()
            assert csv.read_text().splitlines()[0] == "size,precision,recall"
            assert (out_dir / f"report_cca_{name}.json").exists()

    def test_failed_cell_reported_and_run_continues(self, dataset, tmp_path, capsys):
        out_dir = tmp_path / "e4"
        # dcca with an oversized batch cannot train on 18-video folds
        code = run("eval", "--dataset", dataset, "--out-dir", out_dir,
                   "--methods", "dcca,cca", "--folds", 2, "--seed", 2, "--r", 4,
                   "--batch-size", 512, "--pr-stride", 6)
        assert code == 2
        matrix = (out_dir / "map_matrix.csv").read_text().splitlines()
        dcca_row = [r for r in matrix if r.startswith("dcca")][0]
        cca_row = [r for r in matrix if r.startswith("cca")][0]
        assert "error" in dcca_row
        assert "error" not in cca_row

    def test_branch_width_below_one_fails_only_deep_cells(self, dataset, tmp_path, capsys):
        out_dir = tmp_path / "e8"
        assert run("eval", "--dataset", dataset, "--out-dir", out_dir, "--methods", "cca,dcca,sdcca",
                   "--folds", 2, "--r", 4, "--batch-size", 8, "--epochs", 1, "--audio-layers", "0,4",
                   "--pr-stride", 6) == 2
        err = capsys.readouterr().err
        assert "eval cell dcca/1/3 failed: audio_layers must be one or more widths >= 1, got (0, 4)" in err
        rows = {row.split(",")[0]: row for row in (out_dir / "map_matrix.csv").read_text().splitlines()[1:]}
        assert "error" in rows["dcca"] and "error" in rows["sdcca"] and "error" not in rows["cca"]

    def test_single_fold_rejected_before_the_sweep(self, dataset, tmp_path, capsys):
        out_dir = tmp_path / "e5"
        err = fails(capsys, 1, "eval", "--dataset", dataset, "--out-dir", out_dir, "--methods", "cca", "--folds", 1)
        assert "folds must be >= 2" in err and "eval cell" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("stride", [0, -1])
    def test_pr_stride_below_one_rejected_before_the_sweep(self, dataset, tmp_path, capsys, stride):
        out_dir = tmp_path / "e7"
        err = fails(capsys, 1, "eval", "--dataset", dataset, "--out-dir", out_dir, "--methods", "cca",
                    "--folds", 2, "--r", 4, "--pr-stride", stride)
        assert "pr_stride must be >= 1" in err
        assert not out_dir.exists()

    def test_empty_method_list_rejected(self, dataset, tmp_path, capsys):
        out_dir = tmp_path / "e6"
        fails(capsys, 2, "eval", "--dataset", dataset, "--out-dir", out_dir, "--methods", ",")
        assert not (out_dir / "map_matrix.csv").exists()

    def test_repeated_method_rejected_before_the_sweep(self, dataset, tmp_path, capsys, spy):
        reads = spy("prepare_dataset", pipeline)
        out_dir = tmp_path / "e9"
        err = fails(capsys, 2, "eval", "--dataset", dataset, "--out-dir", out_dir, "--methods", "cca,ccca,cca",
                    "--folds", 2, "--r", 4)
        assert "avembed: data error: --methods 'cca,ccca,cca' lists cca more than once" in err
        assert not out_dir.exists() and reads == []

    def test_report_echoes_only_eval_settings(self, dataset, tmp_path):
        out_dir = tmp_path / "e6"
        assert run("eval", "--dataset", dataset, "--out-dir", out_dir,
                   "--methods", "cca", "--folds", 2, "--r", 4, "--pr-stride", 6) == 0
        config = json.loads((out_dir / "report_cca_2of6.json").read_text())["config"]
        assert not {"videos", "noise_std", "query_mode"} & set(config)
        assert config["command"] == "eval" and config["method"] == "cca"
        assert config["query_config"] == "2/6" and config["folds"] == 2


class TestDefaults:
    def test_numeric_defaults_are_the_published_ones(self):
        assert _DEFAULTS["batch_size"] == 512
        assert _DEFAULTS["epochs"] == 50
        assert _DEFAULTS["learning_rate"] == 0.001
        assert _DEFAULTS["dropout"] == 0.2
        assert _DEFAULTS["r"] == 30
        assert _DEFAULTS["folds"] == 5
        assert _DEFAULTS["kcca_beta"] == 0.4
        assert _DEFAULTS["length_min"] == 213 and _DEFAULTS["length_max"] == 219


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"videos": 6, "clusters": 2, "latent_dim": 3, "seed": 1}))
        out = tmp_path / "ds"
        assert run("synth", "--out", out, "--config", cfg, "--videos", 9) == 0
        manifest = load_manifest(out / "manifest.jsonl")
        assert len(manifest) == 9  # flag wins over config value 6

    def test_usage_error_exit_code(self, capsys):
        assert run("synth") == 1  # missing --out
        assert run("definitely-not-a-command") == 1

    @pytest.mark.parametrize("content, message", [
        (b"[1, 2]", "not an object"),
        (b'{"videos": "\xff"}', "invalid JSON config"),
        (b'{"epoch": 3}', "unknown config keys ['epoch']"),
        (b'{"r": 4.9}', "config key 'r' must be int, got 4.9"),
        (b'{"seed": true}', "config key 'seed' must be int, got true"),
        (b'{"seed": null}', "config key 'seed' must be int, got null"),
        (b'{"epochs": "many"}', "config key 'epochs' must be int, got \"many\""),
        (b'{"method": 3}', "config key 'method' must be one of"),
        (b"[" * 100_000, "run.json:1: invalid JSON config: nested too deeply"),
        (b'{"noise_std": NaN}', "run.json: config key 'noise_std' must be float (a finite number), got NaN"),
        (b'{"noise_std": Infinity}', "config key 'noise_std' must be float (a finite number), got Infinity"),
        (b'{"tol": -Infinity}', "config key 'tol' must be float (a finite number), got -Infinity"),
        (b'{"reg": NaN}', "config key 'reg' must be float (a finite number) or null, got NaN"),
    ], ids=["not-object", "not-utf8", "unknown-key", "int-given-float", "int-given-bool",
            "null-without-null-default", "int-given-string", "choice-given-number", "nested-100000-deep",
            "float-given-nan", "float-given-infinity", "float-given-minus-infinity", "nullable-float-given-nan"])
    def test_bad_config_is_data_error(self, tmp_path, capsys, content, message):
        cfg = tmp_path / "run.json"
        cfg.write_bytes(content)
        assert message in fails(capsys, 2, "synth", "--out", tmp_path / "ds", "--config", cfg)
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("argv, flag, value", [
        (("cluster", "--seeds-file", "{ds}/seeds.json", "--out", "{out}"), "--tol", "nan"),
        (("synth", "--out", "{out}", "--videos", 4), "--noise-std", "nan"),
        (("synth", "--out", "{out}", "--videos", 4), "--noise-std", "inf"),
        (("train", "--method", "dcca", "--out", "{out}"), "--learning-rate", "nan"),
        (("train", "--out", "{out}"), "--reg", "inf"),
    ], ids=["cluster-tol-nan", "synth-noise-std-nan", "synth-noise-std-inf", "train-learning-rate-nan",
            "train-reg-inf"])
    def test_non_finite_float_flag_is_usage_error(self, dataset, tmp_path, capsys, argv, flag, value):
        # the finite rule of a --config file's floats holds for the flags too, before any file is written
        out = tmp_path / "out"
        argv = [str(a).format(ds=dataset, out=out) for a in argv]
        if argv[0] != "synth":
            argv += ["--dataset", str(dataset)]
        assert run(*argv, flag, value) == 1
        out_text, err = capsys.readouterr()
        assert out_text == "" and f"argument {flag}: must be a finite number, got {value!r}" in err
        assert list(tmp_path.iterdir()) == []

    def test_keys_of_other_commands_accepted(self, dataset, tmp_path):
        # one run.json may serve every command
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"videos": 6, "folds": 3, "k": 4, "rho": 0.8}))
        assert run("ingest", "--dataset", dataset, "--config", cfg) == 0


# the flags of every subcommand as the hand-written parser declared them:
# command -> (option strings, required option strings)
_FLAG_SURFACE = {
    "synth": (
        {"--clusters", "--config", "--latent-dim", "--length-max", "--length-min", "--noise-std",
         "--out", "--seed", "--videos"},
        {"--out"},
    ),
    "ingest": (
        {"--config", "--dataset", "--out-manifest", "--seed", "--span-max", "--span-min"},
        {"--dataset"},
    ),
    "chunk-select": (
        {"--attention-hidden", "--attention-seed", "--attention-weights", "--chunks", "--config",
         "--dataset", "--out", "--seed", "--top-k", "--video-id"},
        {"--dataset"},
    ),
    "cluster": (
        {"--config", "--dataset", "--k", "--max-iter", "--out", "--seed", "--seeds-file", "--tol"},
        {"--dataset", "--out"},
    ),
    "train": (
        {"--attention-hidden", "--attention-seed", "--attention-weights", "--audio-layers",
         "--batch-size", "--config", "--dataset", "--dropout", "--epochs", "--f", "--kcca-beta",
         "--kcca-kappa", "--labels", "--learning-rate", "--method", "--out", "--query-mode", "--r",
         "--reg", "--seed", "--target-pairs", "--visual-layers"},
        {"--dataset", "--out"},
    ),
    "index": (
        {"--config", "--dataset", "--labels", "--model", "--out", "--seed"},
        {"--dataset", "--model", "--out"},
    ),
    "query": (
        {"--attention-hidden", "--attention-seed", "--attention-weights", "--config", "--dataset",
         "--index", "--model", "--query-mode", "--seed", "--video-id", "-n"},
        {"--dataset", "--index", "--model", "--video-id"},
    ),
    "eval": (
        {"--attention-hidden", "--attention-seed", "--attention-weights", "--audio-layers",
         "--batch-size", "--config", "--dataset", "--dropout", "--epochs", "--f", "--folds",
         "--kcca-beta", "--kcca-kappa", "--labels", "--learning-rate", "--methods", "--out-dir",
         "--pr-stride", "--r", "--reg", "--seed", "--target-pairs", "--visual-layers"},
        {"--dataset", "--out-dir"},
    ),
}


def _subparsers():
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_subcommands_unchanged():
    assert set(_subparsers()) == set(_FLAG_SURFACE)


@pytest.mark.parametrize("command", list(_FLAG_SURFACE))
def test_flag_surface_unchanged(command):
    actions = [a for a in _subparsers()[command]._actions if not isinstance(a, argparse._HelpAction)]
    flags, required = _FLAG_SURFACE[command]
    assert {s for a in actions for s in a.option_strings} == flags
    assert {s for a in actions if a.required for s in a.option_strings} == required
