"""Wiring between the dataset, chunk scorer, clustering, models, and eval.

Per-video representations are pooled in one streaming pass (frame matrices
are not kept): full-frame audio means for mean-mode queries, per-base-chunk
means and maxes for attention-based queries, and max-pooled video-level
visual features.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import attention as att
from . import cca as cca_mod
from . import deep as deep_mod
from .clustering import seeded_kmeans
from .data import (
    FeatureSequence,
    Manifest,
    SynthConfig,
    iter_synth_videos,
    load_manifest,
    load_sequence,
    pool_chunks,
    video_level_audio,
    video_level_visual,
)
from .errors import ValidationError

BASE_CHUNK_SEC = 3
SWEEP_CONFIGS = ((3, 1), (6, 2), (9, 3), "mean")
METHODS = ("cca", "kcca", "ccca", "dcca", "sdcca")
# the methods that train on cluster labels
SUPERVISED = ("ccca", "sdcca")


@dataclass
class PreparedDataset:
    ids: list[str]
    lengths: np.ndarray
    audio_mean: np.ndarray       # (n, 128) mean over all frames
    chunk_means: list[np.ndarray]  # per video: (n_base, 128) per-base-chunk frame means
    chunk_maxes: list[np.ndarray]  # per video: (n_base, 128) per-base-chunk frame maxes
    visual: np.ndarray           # (n, 1024) max-pooled video-level features
    manifest_labels: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.ids)


def _pool_video(audio_seq: FeatureSequence, visual_seq: FeatureSequence):
    if audio_seq.n_frames != visual_seq.n_frames:
        raise ValidationError(
            f"{audio_seq.video_id!r}: audio has {audio_seq.n_frames} frames but visual has "
            f"{visual_seq.n_frames}; modalities must truncate equally"
        )
    means, maxes = pool_chunks(audio_seq.frames, BASE_CHUNK_SEC)
    return video_level_audio(audio_seq), means, maxes, video_level_visual(visual_seq)


def prepare_dataset(dataset_dir: str | Path) -> PreparedDataset:
    root = Path(dataset_dir)
    manifest = load_manifest(root / "manifest.jsonl")
    return _prepare_from_pairs(
        (
            (e, load_sequence(root / e.audio_path), load_sequence(root / e.visual_path), e.label)
            for e in manifest.entries
        ),
        has_labels=all(e.label is not None for e in manifest.entries),
    )


def prepare_synthetic(cfg: SynthConfig) -> PreparedDataset:
    return _prepare_from_pairs(iter_synth_videos(cfg), has_labels=True)


def _prepare_from_pairs(pairs, has_labels: bool) -> PreparedDataset:
    ids, lengths, means, cmeans, cmaxes, visuals, labels = [], [], [], [], [], [], []
    for entry, audio_seq, visual_seq, label in pairs:
        a_mean, ch_means, ch_maxes, v_max = _pool_video(audio_seq, visual_seq)
        ids.append(entry.video_id)
        lengths.append(entry.length_sec)
        means.append(a_mean)
        cmeans.append(ch_means)
        cmaxes.append(ch_maxes)
        visuals.append(v_max)
        labels.append(label)
    return PreparedDataset(
        ids=ids,
        lengths=np.asarray(lengths),
        audio_mean=np.stack(means),
        chunk_means=cmeans,
        chunk_maxes=cmaxes,
        visual=np.stack(visuals),
        manifest_labels=np.asarray(labels) if has_labels else None,
    )


def chunk_selection_for(
    chunk_maxes: np.ndarray, params: att.AttentionParams, c: int, k: int
) -> att.ChunkSelection:
    """Score base chunks and pick top-k of the c macro-chunks for one audio.

    Base chunks beyond the largest multiple of c are dropped before scoring so
    the macro partition is exact (extends the remainder-drop rule).
    """
    if not 1 <= k <= c:
        raise ValidationError(f"top-k must be in [1, chunks], got top-k {k} of {c} chunks")
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
    n_base = selection.distribution.shape[0]
    per_macro = n_base // selection.chunk_count
    rows = []
    for i in selection.selected_indices:
        rows.append(chunk_means[i * per_macro : (i + 1) * per_macro])
    return np.concatenate(rows, axis=0).mean(axis=0)


def query_matrix(
    prepared: PreparedDataset,
    mode: tuple[int, int] | str,
    params: att.AttentionParams | None = None,
) -> np.ndarray:
    """Per-video audio query vectors: 'mean' or a (c, k) chunk-selection config."""
    if mode == "mean":
        return prepared.audio_mean
    c, k = mode
    if params is None:
        raise ValueError("chunk-selection query mode needs attention parameters")
    out = np.empty((len(prepared), prepared.audio_mean.shape[1]))
    for i in range(len(prepared)):
        sel = chunk_selection_for(prepared.chunk_maxes[i], params, c, k)
        out[i] = representation_from_selection(prepared.chunk_means[i], sel)
    return out


def seed_sets_from_labels(
    features: np.ndarray, labels: np.ndarray, per_cluster: int = 3
) -> tuple[list[np.ndarray], list[list[int]]]:
    """First per_cluster exemplars of each label as k-means seed sets."""
    seeds, exemplar_rows = [], []
    for c in np.unique(labels):
        rows = np.flatnonzero(labels == c)[:per_cluster]
        if rows.size == 0:
            raise ValidationError(f"cluster {int(c)} has no exemplars")
        seeds.append(features[rows])
        exemplar_rows.append([int(r) for r in rows])
    return seeds, exemplar_rows


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


EmbedFn = Callable[[np.ndarray], np.ndarray]


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
) -> tuple[object, EmbedFn, EmbedFn]:
    """Fit one method and return (model, audio embedder, visual embedder).

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
    return (model, *embedders(model))


def embedders(model) -> tuple[EmbedFn, EmbedFn]:
    """(audio embedder, visual embedder) of a fitted or loaded model of any method."""

    # the projections are looked up through their modules on every call, so a
    # function rebound there later is the one that runs
    def embed(m: np.ndarray, side: str) -> np.ndarray:
        if isinstance(model, deep_mod.DeepModel):
            return deep_mod.embed(model, m, side)
        if isinstance(model, cca_mod.KernelModel):
            return cca_mod.kernel_project(model, m, side)
        return cca_mod.project(model, np.atleast_2d(m), side)

    return (lambda m: embed(m, "audio")), (lambda m: embed(m, "visual"))


def save_model(model, path: str | Path, extra: dict | None = None) -> None:
    """Write a fitted model of any method; extra is echoed in its header."""
    if isinstance(model, deep_mod.DeepModel):
        deep_mod.save_deep_model(model, path, extra=extra)
    elif isinstance(model, cca_mod.KernelModel):
        cca_mod.save_kernel_model(model, path, extra=extra)
    else:
        cca_mod.save_projection(model, path, extra=extra)


def load_model(path: str | Path):
    """Read a model file of any method; as in embedders, the loaders are looked up at call time."""
    with open(path, "rb") as fh:
        magic = fh.read(len(deep_mod._MODEL_MAGIC))
    if magic == deep_mod._MODEL_MAGIC:
        return deep_mod.load_deep_model(path)
    return cca_mod.load_cca_model(path)


def make_trainer(
    method: str,
    audio: np.ndarray,
    visual: np.ndarray,
    labels: np.ndarray | None,
    **kwargs,
):
    """Adapter for evaluation.cross_validate: closes over the full matrices."""

    def trainer(train_idx: np.ndarray):
        sub_labels = labels[train_idx] if labels is not None else None
        return train_method(method, audio[train_idx], visual[train_idx], sub_labels, **kwargs)[1:]

    return trainer
