"""Wiring between the dataset, chunk scorer, clustering, models, and eval.

Per-video representations are built in one streaming pass that keeps no frame
matrix: full-frame audio means for mean-mode queries and max-pooled
video-level visual features, always; for each (c, k) chunk mode asked for, the
video's query vector, kept macro-chunks and macro-chunk scores. A video's
base-chunk pools exist only while its frames are in hand: they are scored in
every mode and dropped before the next video is read. Working memory is
therefore O(n·d) for the corpus plus one video's frames and pools, whatever
the spread of lengths.

load_video is the one check of a video against its manifest line: both files
hold the named modality, as many frames as each other and as `length_sec`
says. Every command reads its videos through it, so each one rejects what
`ingest` rejects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import attention as att
from . import cca as cca_mod
from . import deep as deep_mod
from .clustering import seeded_kmeans
from .data import (
    FeatureSequence,
    ManifestEntry,
    SynthConfig,
    iter_synth_videos,
    load_manifest,
    load_sequence,
    pool_chunks,
    video_level_audio,
    video_level_visual,
)
from .errors import ValidationError
from .evaluation import EmbedFn

BASE_CHUNK_SEC = 3
# the eval sweep's columns: (map_matrix.csv header, pr_*/report_* file stem, query mode)
SWEEP_CONFIGS = (
    ("1/3", "1of3", (3, 1)), ("2/6", "2of6", (6, 2)), ("3/9", "3of9", (9, 3)), ("mean", "mean", "mean"),
)
METHODS = ("cca", "kcca", "ccca", "dcca", "sdcca")
# the methods that train on cluster labels
SUPERVISED = ("ccca", "sdcca")
# the scorer of the chunk modes, built from the corpus's audio feature dim
Scorer = Callable[[int], att.AttentionParams]


@dataclass
class ChunkQueries:
    """One (c, k) chunk mode over the corpus, row i for video i."""

    vectors: np.ndarray   # (n, d) mean audio feature over the frames of the kept macro-chunks
    selected: np.ndarray  # (n, k) the kept macro-chunks, ascending
    scores: np.ndarray    # (n, c) the macro-chunk scores


@dataclass
class PreparedDataset:
    ids: list[str]
    audio_mean: np.ndarray       # (n, 128) mean over all frames
    visual: np.ndarray           # (n, 1024) max-pooled video-level features
    manifest_labels: np.ndarray | None = None
    # (c, k) -> that chunk mode's rows, for each mode the dataset was prepared with
    chunk_queries: dict[tuple[int, int], ChunkQueries] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.ids)


def load_video(root: Path, entry: ManifestEntry) -> tuple[FeatureSequence, FeatureSequence]:
    """The entry's (audio, visual) sequences; ValidationError if a file holds the other
    modality, the two hold different frame counts or not the entry's length_sec."""
    audio, visual = load_sequence(root / entry.audio_path), load_sequence(root / entry.visual_path)
    for seq, side in ((audio, "audio"), (visual, "visual")):
        if seq.modality != side:
            raise ValidationError(f"{entry.video_id!r}: its {side}_path holds a {seq.modality} sequence")
    if audio.n_frames != visual.n_frames:
        raise ValidationError(
            f"{entry.video_id!r}: audio has {audio.n_frames} frames but visual has "
            f"{visual.n_frames}; modalities must truncate equally"
        )
    if audio.n_frames != entry.length_sec:
        raise ValidationError(
            f"{entry.video_id!r}: manifest says {entry.length_sec}s but file holds {audio.n_frames} frames"
        )
    return audio, visual


def _check_feature_dims(
    dims: tuple[int, int], video_id: str, audio: FeatureSequence, visual: FeatureSequence
) -> None:
    """ValidationError naming the video, the modality and both dims unless the video's
    (audio, visual) feature dims equal dims, those of the corpus's first video."""
    for side, seq, want in (("audio", audio, dims[0]), ("visual", visual, dims[1])):
        if seq.dim != want:
            raise ValidationError(
                f"{video_id!r}: {side} features are {seq.dim}-d but the first video's are "
                f"{want}-d; every video must share the feature dims"
            )


def prepare_dataset(
    dataset_dir: str | Path,
    ids: Sequence[str] | None = None,
    modes: Sequence[tuple[int, int]] = (),
    scorer: Scorer | None = None,
) -> PreparedDataset:
    """The videos of the dataset's manifest named by ids (default: all), pooled in manifest
    order, with the rows of each (c, k) chunk mode in modes scored by scorer(audio dim).
    Only their files are read, and an id the manifest lacks raises ValidationError before
    any of them is."""
    root = Path(dataset_dir)
    entries = load_manifest(root / "manifest.jsonl").entries
    if ids is not None:
        known = {e.video_id for e in entries}
        for vid in ids:
            if vid not in known:
                raise ValidationError(f"video {vid!r} not in the dataset")
        wanted = set(ids)
        entries = [e for e in entries if e.video_id in wanted]
    return _prepare_from_pairs(
        ((e, *load_video(root, e), e.label) for e in entries),
        n=len(entries),
        has_labels=all(e.label is not None for e in entries),
        modes=modes,
        scorer=scorer,
    )


def prepare_synthetic(
    cfg: SynthConfig, modes: Sequence[tuple[int, int]] = (), scorer: Scorer | None = None
) -> PreparedDataset:
    """The generator's videos, pooled and scored as prepare_dataset pools and scores them."""
    return _prepare_from_pairs(iter_synth_videos(cfg), n=cfg.n_videos, has_labels=True, modes=modes, scorer=scorer)


def _prepare_from_pairs(
    pairs, n: int, has_labels: bool, modes: Sequence[tuple[int, int]], scorer: Scorer | None
) -> PreparedDataset:
    """Pool the n videos of pairs in one pass, scoring each chunk mode of modes while the
    video's frames are in hand; the scorer is built at the first video, before any scoring.

    The chunk-mode rows are filled in place as the videos stream by; the small video-level
    features are stacked at the end instead: preallocating them as well measured about
    5000 more minor page faults and 10 % more time per 150-video mean-mode prepare.
    """
    for c, k in modes:
        check_chunk_config(c, k)
    if modes and scorer is None:
        raise ValueError("chunk-selection modes need an attention scorer")
    ids, means, visuals, labels = [], [], [], []
    queries: dict[tuple[int, int], ChunkQueries] = {}
    for i, (entry, audio_seq, visual_seq, label) in enumerate(pairs):
        if i == 0:
            dims = audio_seq.dim, visual_seq.dim
            if modes:
                params = scorer(dims[0])
                queries = {
                    (c, k): ChunkQueries(np.empty((n, dims[0])), np.empty((n, k), dtype=np.int64), np.empty((n, c)))
                    for c, k in modes
                }
        _check_feature_dims(dims, entry.video_id, audio_seq, visual_seq)
        ids.append(entry.video_id)
        means.append(video_level_audio(audio_seq))
        visuals.append(video_level_visual(visual_seq))
        labels.append(label)
        if queries:
            chunk_means, chunk_maxes = pool_chunks(audio_seq.frames, BASE_CHUNK_SEC)
            for (c, k), q in queries.items():
                sel = chunk_selection_for(chunk_maxes, params, c, k)
                q.vectors[i] = representation_from_selection(chunk_means, sel)
                q.selected[i], q.scores[i] = sel.selected_indices, sel.scores
    return PreparedDataset(
        ids=ids,
        audio_mean=np.stack(means),
        visual=np.stack(visuals),
        manifest_labels=np.asarray(labels) if has_labels else None,
        chunk_queries=queries,
    )


def check_chunk_config(c: int, k: int) -> None:
    """ValidationError unless 1 <= k <= c: the top k of c macro-chunks."""
    if not 1 <= k <= c:
        raise ValidationError(f"top-k must be in [1, chunks], got top-k {k} of {c} chunks")


def chunk_selection_for(
    chunk_maxes: np.ndarray, params: att.AttentionParams, c: int, k: int
) -> att.ChunkSelection:
    """Score base chunks and pick top-k of the c macro-chunks for one audio.

    Base chunks beyond the largest multiple of c are dropped before scoring so
    the macro partition is exact (extends the remainder-drop rule).
    """
    check_chunk_config(c, k)
    n_base = chunk_maxes.shape[0]
    usable = (n_base // c) * c
    if usable < c:
        raise ValidationError(f"audio has only {n_base} base chunks; cannot form {c} macro-chunks")
    states = att.bilstm_states(chunk_maxes[:usable], params)
    theta = att.attention_distribution(att.score_states(states, params))
    return att.select_top_k(theta, c, k)


def representation_from_selection(chunk_means: np.ndarray, selection: att.ChunkSelection) -> np.ndarray:
    """Mean audio feature over the frames of the selected macro-chunks.

    Base chunks all hold BASE_CHUNK_SEC frames, so the mean of the selected
    base-chunk means equals the mean over their frames.
    """
    n_base, c, d = selection.distribution.shape[0], selection.chunk_count, chunk_means.shape[1]
    macros = chunk_means[:n_base].reshape(c, n_base // c, d)
    return macros[selection.selected_indices].reshape(-1, d).mean(axis=0)


def query_matrix(prepared: PreparedDataset, mode: tuple[int, int] | str) -> np.ndarray:
    """Audio query vectors, one per video: 'mean', or a (c, k) chunk mode the dataset was
    prepared with."""
    if mode == "mean":
        return prepared.audio_mean
    if mode not in prepared.chunk_queries:
        raise ValueError(f"chunk mode {mode} was not prepared: pass it in modes")
    return prepared.chunk_queries[mode].vectors


def seed_sets_from_labels(
    features: np.ndarray, labels: np.ndarray, per_cluster: int = 3
) -> tuple[list[np.ndarray], list[list[int]]]:
    """The first per_cluster rows of features of each label, in ascending label order, and their numbers."""
    rows = [np.flatnonzero(labels == c)[:per_cluster] for c in np.unique(labels)]
    return [features[r] for r in rows], [r.tolist() for r in rows]


def cluster_dataset(
    prepared: PreparedDataset,
    seed_vectors: Sequence[np.ndarray] | None = None,
    max_iter: int = 100,
    tol: float = 1e-8,
):
    """Seeded k-means over video-level audio features, one cluster per seed set.

    Falls back to manifest-label exemplars for seeding when no explicit seed
    sets are given.
    """
    if seed_vectors is None:
        if prepared.manifest_labels is None:
            raise ValidationError(
                "no seed sets given and the manifest carries no labels to derive them from"
            )
        seed_vectors, _ = seed_sets_from_labels(prepared.audio_mean, prepared.manifest_labels)
    return seeded_kmeans(prepared.audio_mean, seed_vectors, max_iter=max_iter, tol=tol)


def train_method(
    method: str,
    audio: np.ndarray,
    visual: np.ndarray,
    labels: np.ndarray | None,
    r: int,
    reg: float | None,
    seed: int = 0,
    f: float = 0.0,
    target_pairs: int | None = None,
    kcca_beta: float = 0.4,
    kcca_kappa: float = 1e-3,
    audio_layers: tuple[int, ...] = deep_mod.DEFAULT_AUDIO_LAYERS,
    visual_layers: tuple[int, ...] = deep_mod.DEFAULT_VISUAL_LAYERS,
    **train,
) -> object:
    """Fit one method and return its model; embedders(model) embeds with it.

    train holds the other TrainConfig fields (batch_size, epochs, learning_rate,
    rho, epsilon, dropout); only the deep methods read and check them.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method in SUPERVISED and labels is None:
        raise ValidationError(f"method {method!r} needs cluster labels")
    if method == "cca":
        model = cca_mod.fit_cca(audio, visual, r, reg)
    elif method == "kcca":
        model = cca_mod.fit_kcca(audio, visual, r, beta=kcca_beta, kappa=kcca_kappa)
    elif method == "ccca":
        model = cca_mod.fit_cluster_cca(
            audio, visual, labels, f=f, r=r, reg=reg, seed=seed, target_count=target_pairs
        )
    else:
        # the deep fits keep TrainConfig's fixed ridge rather than one scaled to the data
        cfg = deep_mod.TrainConfig(
            r=r, reg=deep_mod.TrainConfig.reg if reg is None else reg, seed=seed, **train
        )
        if method == "dcca":
            model = deep_mod.train_dcca(
                audio, visual, cfg, audio_layers=audio_layers, visual_layers=visual_layers
            )
        else:
            model = deep_mod.train_sdcca(
                audio, visual, labels, f=f, cfg=cfg, target_count=target_pairs,
                audio_layers=audio_layers, visual_layers=visual_layers,
            )
    return model


# model class -> (its module, embed function, save function); the functions are looked up
# through the module on every call, so a function rebound there later is the one that runs
_MODEL_KINDS = {
    deep_mod.DeepModel: (deep_mod, "embed", "save_deep_model"),
    cca_mod.KernelModel: (cca_mod, "kernel_project", "save_cca_model"),
    cca_mod.LinearProjection: (cca_mod, "project", "save_cca_model"),
}


def embedders(model) -> tuple[EmbedFn, EmbedFn]:
    """(audio embedder, visual embedder) of a fitted or loaded model of any method."""
    module, embed_name, _ = _MODEL_KINDS[type(model)]

    def embed(m: np.ndarray, side: str) -> np.ndarray:
        return getattr(module, embed_name)(model, np.atleast_2d(m), side)

    return (lambda m: embed(m, "audio")), (lambda m: embed(m, "visual"))


def save_model(model, path: str | Path, extra: dict | None = None) -> None:
    """Write a fitted model of any method; extra is echoed in its header."""
    module, _, save_name = _MODEL_KINDS[type(model)]
    getattr(module, save_name)(model, path, extra=extra)


def load_model(path: str | Path):
    """Read a model file of any method; as in embedders, the loaders are looked up at call time."""
    with open(path, "rb") as fh:
        magic = fh.read(len(deep_mod.MODEL_MAGIC))
    if magic == deep_mod.MODEL_MAGIC:
        return deep_mod.load_deep_model(path)
    return cca_mod.load_cca_model(path)

