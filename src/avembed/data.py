"""Feature sequences, on-disk formats, chunk pooling, and the synthetic
clustered audio-visual dataset generator.

File formats
------------
FVSQ sequence file (one modality of one video):

    bytes "FVSQ" | u8 version=1 | u8 modality (0=audio, 1=visual)
    | u32 n_frames | u32 dim (little-endian)
    | n_frames*dim little-endian float32, row-major

Manifest: JSON lines, one object per entry with keys
``video_id, length_sec, audio_path, visual_path, label`` (label nullable).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from . import blockio
from .errors import FormatError, ValidationError

AUDIO_DIM = 128
VISUAL_DIM = 1024

_FVSQ_MAGIC = b"FVSQ"
_MODALITY_CODES = {"audio": 0, "visual": 1}
_MODALITY_NAMES = {v: k for k, v in _MODALITY_CODES.items()}


@dataclass
class FeatureSequence:
    """Frame-level feature matrix for one modality of one video, one row per second.

    Frames are stored as float32 so that FVSQ round-trips are bit exact.
    """

    video_id: str
    modality: str
    frames: np.ndarray

    def __post_init__(self) -> None:
        if self.modality not in _MODALITY_CODES:
            raise ValueError(f"modality must be 'audio' or 'visual', got {self.modality!r}")
        frames = np.asarray(self.frames, dtype=np.float32)
        if frames.ndim != 2 or frames.shape[0] < 1 or frames.shape[1] < 1:
            raise ValidationError(f"frames must be a non-empty 2-d matrix, got shape {frames.shape}")
        if not np.all(np.isfinite(frames)):
            raise ValidationError(f"sequence {self.video_id!r} contains non-finite values")
        self.frames = frames

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


@dataclass
class ManifestEntry:
    video_id: str
    length_sec: int
    audio_path: str
    visual_path: str
    label: int | None = None


@dataclass
class Manifest:
    entries: list[ManifestEntry]
    length_span: tuple[int, int]

    def __post_init__(self) -> None:
        lo, hi = self.length_span
        if lo > hi:
            raise ValueError(f"invalid length_span [{lo}, {hi}]")
        ids = [e.video_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise ValidationError("manifest contains duplicate video_ids")
        for e in self.entries:
            if not lo <= e.length_sec <= hi:
                raise ValidationError(
                    f"entry {e.video_id!r} length {e.length_sec} outside span [{lo}, {hi}]"
                )

    def __len__(self) -> int:
        return len(self.entries)


def write_sequence(seq: FeatureSequence, path: str | Path) -> None:
    payload = np.ascontiguousarray(seq.frames, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(_FVSQ_MAGIC)
        fh.write(struct.pack("<BB", 1, _MODALITY_CODES[seq.modality]))
        fh.write(struct.pack("<II", seq.n_frames, seq.dim))
        fh.write(payload.tobytes())


def load_sequence(path: str | Path) -> FeatureSequence:
    """Read an FVSQ file; write_sequence . load_sequence is the identity."""
    path = Path(path)
    with blockio.Reader(path) as reader:
        magic = reader.take(len(_FVSQ_MAGIC), "magic")
        if magic != _FVSQ_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        version, modality_code = reader.unpack("<BB", "header")
        if version != 1:
            raise FormatError(f"{path}: unsupported FVSQ version {version}")
        if modality_code not in _MODALITY_NAMES:
            raise FormatError(f"{path}: unknown modality code {modality_code}")
        shape = reader.unpack("<II", "header")
        frames = reader.array("<f4", shape, "payload")
    # FeatureSequence rejects non-finite frames
    return FeatureSequence(video_id=path.stem, modality=_MODALITY_NAMES[modality_code], frames=frames)


def write_manifest(manifest: Manifest, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in manifest.entries:
            fh.write(
                json.dumps(
                    {
                        "video_id": e.video_id,
                        "length_sec": e.length_sec,
                        "audio_path": e.audio_path,
                        "visual_path": e.visual_path,
                        "label": e.label,
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def load_manifest(path: str | Path) -> Manifest:
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}:{line_no}: invalid JSON line") from exc
            try:
                entries.append(
                    ManifestEntry(
                        video_id=str(obj["video_id"]),
                        length_sec=int(obj["length_sec"]),
                        audio_path=str(obj["audio_path"]),
                        visual_path=str(obj["visual_path"]),
                        label=None if obj.get("label") is None else int(obj["label"]),
                    )
                )
            except KeyError as exc:
                raise FormatError(f"{path}:{line_no}: missing manifest key {exc}") from exc
            except (TypeError, ValueError) as exc:  # not an object, or a field of the wrong type
                raise FormatError(f"{path}:{line_no}: invalid manifest line: {exc}") from exc
    if not entries:
        raise ValidationError(f"{path}: empty manifest")
    lengths = [e.length_sec for e in entries]
    return Manifest(entries=entries, length_span=(min(lengths), max(lengths)))


def filter_manifest(manifest: Manifest, span: tuple[int, int]) -> Manifest:
    """Keep entries whose length lies in the closed span, preserving order."""
    lo, hi = span
    if lo > hi:
        raise ValueError(f"invalid span [{lo}, {hi}]")
    kept = [e for e in manifest.entries if lo <= e.length_sec <= hi]
    return Manifest(entries=kept, length_span=(lo, hi))


def pool_chunks(frames: np.ndarray, chunk_len_sec: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-chunk frame means and maxes, float64, over consecutive chunk_len_sec-frame chunks.

    Chunk i covers frames [i * chunk_len_sec, (i + 1) * chunk_len_sec); the
    floor(n_frames / chunk_len_sec) chunks are returned as rows and the
    remainder frames are dropped.
    """
    if chunk_len_sec <= 0:
        raise ValueError(f"chunk_len_sec must be >= 1, got {chunk_len_sec}")
    n_chunks = frames.shape[0] // chunk_len_sec
    chunks = frames[: n_chunks * chunk_len_sec].reshape(n_chunks, chunk_len_sec, frames.shape[1])
    return chunks.mean(axis=1, dtype=np.float64), chunks.max(axis=1).astype(np.float64)


def video_level_visual(seq: FeatureSequence) -> np.ndarray:
    """Video-level visual feature: elementwise max over frames."""
    if seq.modality != "visual":
        raise ValueError(f"video_level_visual expects a visual sequence, got {seq.modality!r}")
    if seq.n_frames == 0:
        raise ValidationError("empty sequence")
    return seq.frames.max(axis=0).astype(np.float64)


def video_level_audio(seq: FeatureSequence) -> np.ndarray:
    """Video-level audio feature: mean over frames."""
    if seq.modality != "audio":
        raise ValueError(f"video_level_audio expects an audio sequence, got {seq.modality!r}")
    return seq.frames.mean(axis=0, dtype=np.float64)


@dataclass
class SynthConfig:
    """Configuration of the synthetic clustered audio-visual generator."""

    n_videos: int
    n_clusters: int = 10
    latent_dim: int = 16
    noise_std: float = 0.1
    length_range: tuple[int, int] = (213, 219)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if self.n_videos < 1:
            raise ValueError("n_videos must be >= 1")
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        lo, hi = self.length_range
        if lo < 1 or lo > hi:
            raise ValueError(f"invalid length_range [{lo}, {hi}]")


@dataclass
class _SynthWorld:
    """Seed-derived global state of one synthetic dataset."""

    centroids: np.ndarray
    audio_map: np.ndarray
    visual_map: np.ndarray
    clusters: np.ndarray
    lengths: np.ndarray


def _synth_world(cfg: SynthConfig) -> tuple[_SynthWorld, np.random.Generator]:
    rng = np.random.default_rng(cfg.seed)
    centroids = rng.normal(size=(cfg.n_clusters, cfg.latent_dim))
    audio_map = rng.normal(size=(AUDIO_DIM, cfg.latent_dim)) / np.sqrt(cfg.latent_dim)
    visual_map = rng.normal(size=(VISUAL_DIM, cfg.latent_dim)) / np.sqrt(cfg.latent_dim)
    # redraw the whole assignment if some cluster came out empty, so the
    # supervision signal is always well-posed
    clusters = rng.integers(0, cfg.n_clusters, size=cfg.n_videos)
    if cfg.n_videos >= cfg.n_clusters:
        for _ in range(100):
            if len(np.unique(clusters)) == cfg.n_clusters:
                break
            clusters = rng.integers(0, cfg.n_clusters, size=cfg.n_videos)
        else:
            raise ValidationError("could not draw a cluster assignment covering every cluster")
    lo, hi = cfg.length_range
    lengths = rng.integers(lo, hi + 1, size=cfg.n_videos)
    return _SynthWorld(centroids, audio_map, visual_map, clusters, lengths), rng


def iter_synth_videos(cfg: SynthConfig) -> Iterator[tuple[ManifestEntry, FeatureSequence, FeatureSequence, int]]:
    """Yield (entry, audio, visual, true_label) one video at a time.

    One latent vector per video feeds both modalities, so a cross-modal
    correlation exists by construction. Deterministic for a given seed.
    """
    world, rng = _synth_world(cfg)
    for v in range(cfg.n_videos):
        c = int(world.clusters[v])
        length = int(world.lengths[v])
        z = world.centroids[c] + cfg.noise_std * rng.normal(size=cfg.latent_dim)
        audio = world.audio_map @ z + cfg.noise_std * rng.normal(size=(length, AUDIO_DIM))
        visual = world.visual_map @ z + cfg.noise_std * rng.normal(size=(length, VISUAL_DIM))
        video_id = f"mv{v:05d}"
        entry = ManifestEntry(
            video_id=video_id,
            length_sec=length,
            audio_path=f"audio/{video_id}.fvsq",
            visual_path=f"visual/{video_id}.fvsq",
            label=c,
        )
        yield (
            entry,
            FeatureSequence(video_id, "audio", audio.astype(np.float32)),
            FeatureSequence(video_id, "visual", visual.astype(np.float32)),
            c,
        )


def synth_dataset(
    cfg: SynthConfig,
) -> tuple[Manifest, dict[str, tuple[FeatureSequence, FeatureSequence]], np.ndarray]:
    """Materialize a synthetic dataset: (manifest, {video_id: (audio, visual)}, labels)."""
    entries = []
    sequences: dict[str, tuple[FeatureSequence, FeatureSequence]] = {}
    labels = []
    for entry, audio, visual, label in iter_synth_videos(cfg):
        entries.append(entry)
        sequences[entry.video_id] = (audio, visual)
        labels.append(label)
    return Manifest(entries=entries, length_span=cfg.length_range), sequences, np.asarray(labels)


def write_dataset(cfg: SynthConfig, out_dir: str | Path) -> Manifest:
    """Generate and write a dataset directory: manifest.jsonl + audio/ + visual/ FVSQ files."""
    out = Path(out_dir)
    (out / "audio").mkdir(parents=True, exist_ok=True)
    (out / "visual").mkdir(parents=True, exist_ok=True)
    entries = []
    for entry, audio, visual, _ in iter_synth_videos(cfg):
        write_sequence(audio, out / entry.audio_path)
        write_sequence(visual, out / entry.visual_path)
        entries.append(entry)
    manifest = Manifest(entries=entries, length_span=cfg.length_range)
    write_manifest(manifest, out / "manifest.jsonl")
    return manifest
