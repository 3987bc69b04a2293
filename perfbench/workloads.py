"""The three workloads. Each builds its inputs from the workload seed in ``setup``,
does one unit of timed work in ``run``, and judges that unit's outputs in
``check``, which the runner calls after timing and tracing have ended.

Why these three:

- eval-sweep: the end-to-end study (`avembed eval` over the four-column chunk
  sweep). It is the only workload that runs the BiLSTM chunk scorer, and it
  runs every fit plus thousands of rank/AP evaluations.
- ordering: one seed of the qualitative-ordering acceptance criterion, in
  memory. Deep training over tens of thousands of cluster-expanded pairs
  dominates it; it never calls the scorer or reads FVSQ files.
- query: a closed loop with one client issuing `avembed query` calls. Each
  call re-reads and pools the whole corpus and loads model and index, and no
  fit runs: the read-heavy use of the data layer.

Corpus sizes are below the ones first profiled (400 videos for the sweep,
1000 for ordering) so that a full round of runs, each with repeated set-up,
fits its time budget.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from avembed import cca, cli, clustering, data, deep, evaluation, pipeline, retrieval

from checks import COLUMN_FILES, MAP_COLUMNS, brute_force_topk, check_maps, check_topk, parse_map_matrix


@dataclass
class UnitResult:
    ops: int
    failed: set = field(default_factory=set)  # keys of the operations that failed
    failures: list[str] = field(default_factory=list)  # every failure message
    maps: dict[str, list] = field(default_factory=dict)

    def fail(self, message: str, *ops) -> None:
        """Record a failure of the operations `ops`; none (or None) for a failure of the unit as a whole."""
        self.failures.append(message)
        self.failed.update(op for op in ops if op is not None)


def _cli(argv: list[str]) -> tuple[int, str, str]:
    """Run one avembed command in this process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_ok(argv: list[str]) -> str:
    code, out, err = _cli(argv)
    if code != 0:
        raise RuntimeError(f"avembed {argv[0]} exited {code}: {err.strip()}")
    return out


class Workload:
    name = ""
    op_kind = ""  # what one attempted operation is, for the error-rate base

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.units = 0

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> dict:
        """One unit of timed work; returns raw outputs for `check`."""
        raise NotImplementedError

    def check(self, raw: dict, reference: dict | None = None, tol: float = 0.0) -> UnitResult:
        """Judge one unit's outputs; `reference` holds the default seed's MAPs."""
        raise NotImplementedError

    def expected_calls(self) -> dict[str, int]:
        """Traced calls one unit must make; a missed wrapper shows as a mismatch."""
        raise NotImplementedError

    def fingerprint(self, raw: dict):
        """The unit's outputs, compared between the untraced and the traced unit."""
        raise NotImplementedError


class EvalSweep(Workload):
    name = "eval-sweep"
    op_kind = "MAP cells"
    videos = 150
    clusters = 10
    noise_std = 0.5
    folds = 5
    methods = ("cca", "kcca", "ccca", "sdcca")
    flags = ("--r", "8", "--f", "0.5", "--batch-size", "128", "--epochs", "2",
             "--audio-layers", "64,32", "--visual-layers", "128,32")

    def setup(self) -> None:
        corpus = self.workdir / "corpus"
        shutil.rmtree(corpus, ignore_errors=True)
        _cli_ok(["synth", "--out", str(corpus), "--videos", str(self.videos), "--clusters",
                 str(self.clusters), "--noise-std", str(self.noise_std), "--seed", str(self.seed)])
        labels = np.array([e.label for e in data.load_manifest(corpus / "manifest.jsonl").entries])
        # eval rejects a fold that misses a cluster (exit 2); take the first fold
        # seed from the workload seed on whose partition every fold holds every cluster
        self.fold_seed = next(
            s for s in itertools.count(self.seed)
            if all(np.unique(labels[f]).size == self.clusters
                   for f in evaluation.partition_folds(self.videos, self.folds, s))
        )
        self.corpus = corpus

    def run(self) -> dict:
        out_dir = self.workdir / f"eval-{self.units}"
        self.units += 1
        code, _, err = _cli(["eval", "--dataset", str(self.corpus), "--out-dir", str(out_dir),
                             "--methods", ",".join(self.methods), "--folds", str(self.folds),
                             "--seed", str(self.fold_seed), *self.flags])
        return {"code": code, "stderr": err, "out_dir": out_dir}

    def check(self, raw: dict, reference: dict | None = None, tol: float = 0.0) -> UnitResult:
        """One operation per MAP cell, keyed (method, column index)."""
        out_dir = raw["out_dir"]
        cells = [(m, j) for m in self.methods for j in range(len(MAP_COLUMNS))]
        result = UnitResult(ops=len(cells))
        if raw["code"] != 0:
            # the cells at fault are found below; a crash leaves them missing
            result.fail(f"eval exited {raw['code']}: {raw['stderr'].strip()[-300:]}")
        matrix = out_dir / "map_matrix.csv"
        if not matrix.is_file():
            result.fail("eval wrote no map_matrix.csv", *cells)
            return result
        result.maps = parse_map_matrix(matrix.read_text(encoding="utf-8"))
        if list(result.maps) != list(self.methods):
            result.fail(f"map_matrix rows {list(result.maps)} != {list(self.methods)}")
        for cell, message in check_maps(result.maps, reference, tol):
            result.fail(message, cell if cell in cells else None)
        for method, j in cells:
            row = result.maps.get(method, [])
            if j >= len(row):
                result.fail(f"{method}[{j}]: no cell in map_matrix.csv", (method, j))
                continue
            name = COLUMN_FILES[j]
            missing = [f for f in (f"pr_{method}_{name}.csv", f"report_{method}_{name}.json")
                       if not (out_dir / f).is_file()]
            if missing and isinstance(row[j], float):
                result.fail(f"{method}[{j}]: eval wrote no {', '.join(missing)}", (method, j))
        return result

    def fingerprint(self, raw: dict):
        return {p.name: p.read_bytes() for p in sorted(raw["out_dir"].iterdir())}

    def expected_calls(self) -> dict[str, int]:
        n, f, cells = self.videos, self.folds, len(self.methods) * 4
        return {
            "pipeline.prepare": 1,
            "data.load_sequence": 2 * n,
            "attention.score": 3 * n,
            "evaluation.cross_validate": cells,
            "cca.fit_cca": cells * f,
            "retrieval.build_index": cells * f,
            "retrieval.rank": cells * n,
            "evaluation.average_precision": cells * n,
            "evaluation.precision_recall": cells * n,
            "cca.fit_kcca": 4 * f,
            "cca.fit_cluster_cca": 4 * f,
            "deep.train_sdcca": 4 * f,
            "clustering.expand_pairs": 8 * f,
            "evaluation.export": 2 * cells,
        }


class Ordering(Workload):
    """One seed of the ordering criterion at its constants, on a smaller corpus."""

    name = "ordering"
    op_kind = "method fits"
    videos = 640
    clusters = 10
    latent = 16
    noise = 1.2
    r = 5
    reg = 0.25
    epochs = 8
    batch = 512
    audio_layers = (64, 32)
    visual_layers = (256, 64)

    def setup(self) -> None:
        self.prepared = pipeline.prepare_synthetic(data.SynthConfig(
            n_videos=self.videos, n_clusters=self.clusters, latent_dim=self.latent,
            noise_std=self.noise, seed=1000 + self.seed,
        ))

    def run(self) -> dict:
        prepared = self.prepared
        seed_vectors, _ = pipeline.seed_sets_from_labels(prepared.audio_mean, prepared.manifest_labels)
        labels = clustering.seeded_kmeans(prepared.audio_mean, seed_vectors).labels
        perm = np.random.default_rng(self.seed).permutation(len(prepared))
        n_test = len(prepared) // 5
        test_idx, train_idx = np.sort(perm[:n_test]), np.sort(perm[n_test:])
        audio, visual, ids = prepared.audio_mean, prepared.visual, prepared.ids
        relevant = {int(c): {ids[j] for j in test_idx if labels[j] == c} for c in np.unique(labels[test_idx])}
        tc = deep.TrainConfig(batch_size=self.batch, epochs=self.epochs, learning_rate=1e-3,
                              dropout=0.2, r=self.r, reg=self.reg, seed=self.seed)

        def map_for(embed_audio, embed_visual) -> float:
            index = retrieval.build_index(
                embed_visual(visual[test_idx]), labels[test_idx], [ids[i] for i in test_idx]
            )
            queries = embed_audio(audio[test_idx])
            aps = []
            for row, i in enumerate(test_idx):
                ranked = retrieval.rank(index, queries[row], n=n_test, query_id=ids[i])
                judgment = evaluation.RelevanceJudgment(ids[i], relevant[int(labels[i])])
                aps.append(evaluation.average_precision(ranked, judgment))
            return evaluation.mean_ap(aps)

        xa, xv, la = audio[train_idx], visual[train_idx], labels[train_idx]
        maps = {}
        m = cca.fit_cca(xa, xv, self.r, self.reg)
        maps["cca"] = map_for(lambda q: cca.project(m, q, "x"), lambda v: cca.project(m, v, "y"))
        mc = cca.fit_cluster_cca(xa, xv, la, f=1.0, r=self.r, reg=self.reg, seed=self.seed)
        maps["ccca"] = map_for(lambda q: cca.project(mc, q, "x"), lambda v: cca.project(mc, v, "y"))
        md = deep.train_dcca(xa, xv, tc, audio_layers=self.audio_layers, visual_layers=self.visual_layers)
        maps["dcca"] = map_for(lambda q: deep.embed(md, q, "audio"), lambda v: deep.embed(md, v, "visual"))
        ms = deep.train_sdcca(xa, xv, la, f=1.0, cfg=tc,
                              audio_layers=self.audio_layers, visual_layers=self.visual_layers)
        maps["sdcca"] = map_for(lambda q: deep.embed(ms, q, "audio"), lambda v: deep.embed(ms, v, "visual"))
        return {"maps": maps}

    def check(self, raw: dict, reference: dict | None = None, tol: float = 0.0) -> UnitResult:
        """One operation per method fit, keyed (method, 0)."""
        maps = {k: [float(v)] for k, v in raw["maps"].items()}
        result = UnitResult(ops=len(maps), maps=maps)
        for cell, message in check_maps(maps, reference, tol):
            result.fail(message, cell)
        return result

    def fingerprint(self, raw: dict):
        return raw["maps"]

    def expected_calls(self) -> dict[str, int]:
        q = self.videos // 5
        return {
            "clustering.kmeans": 1,
            "cca.fit_cca": 4,
            "cca.fit_cluster_cca": 1,
            "deep.train_dcca": 1,
            "deep.train_sdcca": 1,
            "clustering.expand_pairs": 2,
            "retrieval.build_index": 4,
            "retrieval.rank": 4 * q,
            "evaluation.average_precision": 4 * q,
            "deep.embed": 4,
            "cca.project": 8,
        }


class Query(Workload):
    """Sequential top-10 queries for seeded distinct ids against a mean-mode cca model.

    Every unit asks the same ids, so a repeated or traced unit must give the
    same answers.
    """

    name = "query"
    op_kind = "queries"
    videos = EvalSweep.videos
    clusters = EvalSweep.clusters
    noise_std = EvalSweep.noise_std
    per_unit = 100  # so that the 90th percentile has ten samples beyond it
    top_n = 10

    def setup(self) -> None:
        root = self.workdir / "query"
        shutil.rmtree(root, ignore_errors=True)
        corpus = root / "corpus"
        self.paths = {"dataset": corpus, "labels": root / "labels.jsonl",
                      "model": root / "cca.model", "index": root / "videos.index"}
        p = {k: str(v) for k, v in self.paths.items()}
        seed = str(self.seed)
        _cli_ok(["synth", "--out", p["dataset"], "--videos", str(self.videos), "--clusters",
                 str(self.clusters), "--noise-std", str(self.noise_std), "--seed", seed])
        _cli_ok(["cluster", "--dataset", p["dataset"], "--seeds-file", str(corpus / "seeds.json"),
                 "--k", str(self.clusters), "--out", p["labels"], "--seed", seed])
        _cli_ok(["train", "--dataset", p["dataset"], "--method", "cca", "--r", "8",
                 "--labels", p["labels"], "--out", p["model"], "--seed", seed])
        _cli_ok(["index", "--dataset", p["dataset"], "--model", p["model"],
                 "--labels", p["labels"], "--out", p["index"], "--seed", seed])
        ids = [e.video_id for e in data.load_manifest(corpus / "manifest.jsonl").entries]
        self.order = [ids[i] for i in np.random.default_rng(self.seed).permutation(len(ids))]

    def run(self) -> dict:
        p = {k: str(v) for k, v in self.paths.items()}
        asked, answers, latencies = [], [], []
        for vid in self.order[: self.per_unit]:
            start = time.perf_counter()
            code, out, err = _cli(["query", "--dataset", p["dataset"], "--index", p["index"],
                                   "--model", p["model"], "--video-id", vid, "-n", str(self.top_n)])
            latencies.append((time.perf_counter() - start) * 1e3)
            asked.append(vid)
            answers.append((code, out, err))
        return {"asked": asked, "answers": answers, "latencies_ms": latencies}

    def check(self, raw: dict, reference: dict | None = None, tol: float = 0.0) -> UnitResult:
        """One operation per query, keyed by the asked id; MAP@10 is judged for the unit as a whole."""
        index = retrieval.load_index(self.paths["index"])
        model = cca.load_cca_model(self.paths["model"])
        prepared = pipeline.prepare_dataset(self.paths["dataset"])
        rows = {v: i for i, v in enumerate(prepared.ids)}
        label_of = dict(zip(index.ids, index.labels.tolist()))
        result = UnitResult(ops=len(raw["asked"]))
        aps = []
        for vid, (code, out, err) in zip(raw["asked"], raw["answers"]):
            if code != 0:
                result.fail(f"query {vid} exited {code}: {err.strip()[-200:]}", vid)
                continue
            got = [(o["video_id"], o["similarity"]) for o in map(json.loads, out.splitlines())]
            query = (prepared.audio_mean[rows[vid]] - model.mean_x) @ model.wx
            for message in check_topk(got, brute_force_topk(index.ids, index.embeddings, query, self.top_n)):
                result.fail(f"query {vid}: {message}", vid)
            relevant = {v for v, lab in label_of.items() if lab == label_of[vid]}
            ranked = retrieval.RankedList(query_id=vid, items=got)
            aps.append(evaluation.average_precision(ranked, evaluation.RelevanceJudgment(vid, relevant)))
        if aps:
            result.maps = {"map@10": [float(np.mean(aps))]}
            for _, message in check_maps(result.maps, reference, tol):
                result.fail(message)
        return result

    def fingerprint(self, raw: dict):
        return raw["answers"]

    def expected_calls(self) -> dict[str, int]:
        q = self.per_unit
        return {
            "pipeline.prepare": q,
            "data.load_sequence": 2 * self.videos * q,
            "retrieval.load_index": q,
            "cca.load_cca_model": q,
            "retrieval.rank": q,
            "cca.project": q,
        }


WORKLOADS = {w.name: w for w in (EvalSweep, Ordering, Query)}
