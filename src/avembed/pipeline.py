"""Wiring between the dataset, chunk scorer, clustering, models, and eval.

Per-video representations are built in one streaming pass that keeps no frame
matrix. It takes one (entry, audio, visual) record per video, read from a
manifest or drawn by the synthetic generator, and the query modes asked for,
each 'mean' or a (c, k) chunk mode. It pools full-frame audio means and max-pooled
video-level visual features, always; for each chunk mode, the video's query vector,
kept macro-chunks and macro-chunk scores. It returns one query matrix per mode (the
track means for 'mean') and each chunk mode's (selected, scores) rows. A video's
base-chunk pools exist only while its frames are in hand: they are scored in
every mode and dropped before the next video is read. The frames themselves
are read into one buffer per modality that the pass owns and reuses. Working
memory is therefore O(n·d) for the corpus plus one video's frames and pools,
whatever the spread of lengths.

load_video is the one check of a video against its manifest line and the
corpus: both files hold the named modality, as many frames as each other and
as `length_sec` says, and features of the first video's dims. Every command
reads its videos through it, so each one rejects what `ingest` rejects. A
pass may read and check videos that it does not pool: `query` checks the
whole corpus and pools only the queried video.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import attention as att
from . import blockio
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
# a query mode: "mean", the track mean, or a (c, k) chunk mode, the top k of c macro-chunks
Mode = tuple[int, int] | str


@dataclass
class PreparedDataset:
    ids: list[str]
    audio_mean: np.ndarray       # (n, 128) mean over all frames
    visual: np.ndarray           # (n, 1024) max-pooled video-level features
    manifest_labels: np.ndarray | None = None
    # mode -> its (n, d) audio query matrix, row i for video i, for each mode the dataset was
    # prepared with; queries["mean"] is audio_mean
    queries: dict[Mode, np.ndarray] = field(default_factory=dict)
    # (c, k) -> that chunk mode's (selected (n, k), the kept macro-chunks ascending; scores (n, c),
    # the macro-chunk scores)
    selections: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.ids)


def load_video(
    root: str, entry: ManifestEntry, into: tuple[blockio.Buffer, blockio.Buffer], dims: tuple[int, int] | None = None
) -> tuple[FeatureSequence, FeatureSequence]:
    """The entry's (audio, visual) sequences, read from its paths under root into the (audio,
    visual) buffers of into; ValidationError if a file holds the other modality, the two hold
    different frame counts or not the entry's length_sec, or, given dims, those of the corpus's
    first video, if the video's (audio, visual) feature dims differ from them."""
    audio = load_sequence(os.path.join(root, entry.audio_path), into=into[0])
    visual = load_sequence(os.path.join(root, entry.visual_path), into=into[1])
    sides = (("audio", audio), ("visual", visual))
    for side, seq in sides:
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
    for (side, seq), want in zip(sides, dims or ()):
        if seq.dim != want:
            raise ValidationError(
                f"{entry.video_id!r}: {side} features are {seq.dim}-d but the first video's are "
                f"{want}-d; every video must share the feature dims"
            )
    return audio, visual


def prepare_dataset(
    dataset_dir: str | Path,
    ids: Sequence[str] | None = None,
    modes: Sequence[Mode] = (),
    scorer: Scorer | None = None,
    check_all: bool = False,
) -> PreparedDataset:
    """The videos of the dataset's manifest named by ids (default: all), pooled in manifest
    order, with the rows of each (c, k) chunk mode in modes scored by scorer(audio dim); a
    'mean' in modes scores nothing. An id the manifest lacks raises ValidationError before any
    video is read. Only the named videos are read, unless check_all: then every video of the
    manifest is read and checked in the same pass, and only the named ones are pooled."""
    # str paths, as Path(dataset_dir) / name would print them: os.path.join("", name) is name
    root = str(Path(dataset_dir))
    root = "" if root == "." else root
    entries = load_manifest(os.path.join(root, "manifest.jsonl")).entries
    wanted = None
    if ids is not None:
        known = {e.video_id for e in entries}
        for vid in ids:
            if vid not in known:
                raise ValidationError(f"video {vid!r} not in the dataset")
        wanted = set(ids)
    chosen = entries if wanted is None else [e for e in entries if e.video_id in wanted]
    return _prepare(_read_videos(root, entries if check_all else chosen, wanted), len(chosen), modes, scorer)


def _read_videos(root: str, entries: Sequence[ManifestEntry], wanted: set[str] | None):
    """(entry, audio, visual) for each of the entries in wanted (None: all), in order, after
    every entry is read and checked through load_video, given the first one's feature dims.

    Frames are read into one buffer per modality that this pass owns, so a video's frames hold
    only until the next video is read, and no payload gets memory of its own.
    """
    into = blockio.Buffer(), blockio.Buffer()
    dims = None
    for entry in entries:
        audio, visual = load_video(root, entry, into, dims)
        dims = audio.dim, visual.dim  # the first video's: every later one was checked against them
        if wanted is None or entry.video_id in wanted:
            yield entry, audio, visual


def prepare_synthetic(cfg: SynthConfig, modes: Sequence[Mode] = (), scorer: Scorer | None = None) -> PreparedDataset:
    """The generator's videos, pooled and scored as prepare_dataset pools and scores them."""
    return _prepare(iter_synth_videos(cfg), cfg.n_videos, modes, scorer)


def _prepare(videos, n: int, modes: Sequence[Mode], scorer: Scorer | None) -> PreparedDataset:
    """Pool the n (entry, audio, visual) records of videos in one pass, scoring each chunk mode
    of modes while the video's frames are in hand; the scorer is built at the first video,
    before any scoring. 'mean' in modes scores nothing: its query matrix is audio_mean itself.
    manifest_labels holds the entries' labels, or is None if any of them has none.

    The chunk-mode rows are filled in place as the videos stream by: stacking each video's rows
    at the end instead measured 0.5-1.8 MB more eval-sweep peak RSS in each of 10 alternating
    pairs (2-vCPU Xeon). The small video-level features are stacked at the end: preallocating
    them as well measured about 5000 more minor page faults and 10 % more time per 150-video
    mean-mode prepare.
    """
    chunk_modes = [mode for mode in modes if mode != "mean"]
    for c, k in chunk_modes:
        check_chunk_config(c, k)
    if chunk_modes and scorer is None:
        raise ValueError("chunk-selection modes need an attention scorer")
    ids, means, visuals, labels = [], [], [], []
    vectors, selections = {}, {}
    for i, (entry, audio_seq, visual_seq) in enumerate(videos):
        if i == 0 and chunk_modes:
            d = audio_seq.dim
            params = scorer(d)
            for c, k in chunk_modes:
                vectors[c, k] = np.empty((n, d))
                selections[c, k] = np.empty((n, k), dtype=np.int64), np.empty((n, c))
        ids.append(entry.video_id)
        means.append(video_level_audio(audio_seq))
        visuals.append(video_level_visual(visual_seq))
        labels.append(entry.label)
        if selections:
            chunk_means, chunk_maxes = pool_chunks(audio_seq.frames, BASE_CHUNK_SEC)
            for (c, k), (selected, scores) in selections.items():
                selected[i], scores[i] = chunk_selection_for(chunk_maxes, params, c, k)
                vectors[c, k][i] = representation_from_selection(chunk_means, selected[i], c)
    audio_mean = np.stack(means)
    return PreparedDataset(
        ids=ids,
        audio_mean=audio_mean,
        visual=np.stack(visuals),
        manifest_labels=None if None in labels else np.asarray(labels),
        queries={mode: audio_mean if mode == "mean" else vectors[mode] for mode in modes},
        selections=selections,
    )


def check_chunk_config(c: int, k: int) -> None:
    """ValidationError unless 1 <= k <= c: the top k of c macro-chunks."""
    if not 1 <= k <= c:
        raise ValidationError(f"top-k must be in [1, chunks], got top-k {k} of {c} chunks")


def chunk_selection_for(
    chunk_maxes: np.ndarray, params: att.AttentionParams, c: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Score base chunks and pick top-k of the c macro-chunks for one audio: the
    (selected, macro_scores) pair of attention.select_top_k.

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


def representation_from_selection(chunk_means: np.ndarray, selected: np.ndarray, c: int) -> np.ndarray:
    """Mean audio feature over the frames of the selected of the c macro-chunks.

    The macro-chunks partition the first (n // c) * c base chunks, as in
    chunk_selection_for. Base chunks all hold BASE_CHUNK_SEC frames, so the mean
    of the selected base-chunk means equals the mean over their frames.
    """
    usable, d = (len(chunk_means) // c) * c, chunk_means.shape[1]
    macros = chunk_means[:usable].reshape(c, usable // c, d)
    return macros[selected].reshape(-1, d).mean(axis=0)


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


# model class -> (its module, embed function, save function, (audio, visual) input widths); the
# functions are looked up through the module on every call, so one rebound there later is the one that runs
_MODEL_KINDS = {
    deep_mod.DeepModel: (deep_mod, "embed", "save_deep_model", lambda m: (
        m.audio_branch.weights[0].shape[0], m.visual_branch.weights[0].shape[0])),
    cca_mod.KernelModel: (cca_mod, "kernel_project", "save_cca_model", lambda m: (
        m.train_x.shape[1], m.train_y.shape[1])),
    cca_mod.LinearProjection: (cca_mod, "project", "save_cca_model", lambda m: (m.wx.shape[0], m.wy.shape[0])),
}


def embedders(model, name: str = "the model") -> tuple[EmbedFn, EmbedFn]:
    """(audio embedder, visual embedder) of a fitted or loaded model of any method; features of
    another width than the model's side takes are a ValidationError naming the model as name."""
    module, embed_name, _, widths = _MODEL_KINDS[type(model)]

    def embed(m: np.ndarray, side: str, width: int) -> np.ndarray:
        m = np.atleast_2d(m)
        if m.shape[1] != width:
            raise ValidationError(f"{name} takes {width}-d {side} features, the dataset's are {m.shape[1]}-d")
        return getattr(module, embed_name)(model, m, side)

    audio_width, visual_width = widths(model)
    return (lambda m: embed(m, "audio", audio_width)), (lambda m: embed(m, "visual", visual_width))


def save_model(model, path: str | Path, extra: dict | None = None) -> None:
    """Write a fitted model of any method; extra is echoed in its header."""
    module, _, save_name, _ = _MODEL_KINDS[type(model)]
    getattr(module, save_name)(model, path, extra=extra)


def load_model(path: str | Path):
    """Read a model file of any method; as in embedders, the loaders are looked up at call time."""
    with open(path, "rb") as fh:
        magic = fh.read(len(deep_mod.MODEL_MAGIC))
    if magic == deep_mod.MODEL_MAGIC:
        return deep_mod.load_deep_model(path)
    return cca_mod.load_cca_model(path)

