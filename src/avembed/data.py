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
        if not blockio.all_finite(frames):
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

    def __post_init__(self) -> None:
        ids = [e.video_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise ValidationError("manifest contains duplicate video_ids")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def length_span(self) -> tuple[int, int]:
        """(shortest, longest) length_sec of the entries."""
        lengths = [e.length_sec for e in self.entries]
        return min(lengths), max(lengths)


def write_sequence(seq: FeatureSequence, path: str | Path) -> None:
    payload = np.ascontiguousarray(seq.frames, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(_FVSQ_MAGIC)
        fh.write(struct.pack("<BB", 1, _MODALITY_CODES[seq.modality]))
        fh.write(struct.pack("<II", seq.n_frames, seq.dim))
        fh.write(memoryview(payload))


def _path_str(path: str | Path) -> str:
    """str(Path(path)), the form every message names a file in; a str already in that form (no
    empty or '.' part, no trailing '/') is returned as it is, without building a Path."""
    if (
        type(path) is str and path and "//" not in path and "/./" not in path
        and not path.startswith("./") and not path.endswith(("/", "/."))
    ):
        return path
    return str(Path(path))


def _stem(path: str) -> str:
    """Path(path).stem of a path in str(Path(...)) form: its last part without its last suffix."""
    name = path.rpartition("/")[2]
    i = name.rfind(".")
    return name[:i] if 0 < i < len(name) - 1 else name


def load_sequence(path: str | Path, into: blockio.Buffer | None = None) -> FeatureSequence:
    """Read an FVSQ file; write_sequence . load_sequence is the identity. The frames own their
    memory, or with into they are a read-only view of into's, valid until its next read."""
    path = _path_str(path)
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
        frames = reader.array("<f4", shape, "payload", into)
    # FeatureSequence rejects non-finite frames
    return FeatureSequence(video_id=_stem(path), modality=_MODALITY_NAMES[modality_code], frames=frames)


def write_manifest(manifest: Manifest, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(vars(e), sort_keys=True) + "\n" for e in manifest.entries)


def load_manifest(path: str | Path) -> Manifest:
    entries = []
    for line_no, obj in blockio.iter_json_lines(path, "manifest line"):
        where = f"{path}:{line_no}: manifest"
        entries.append(
            ManifestEntry(
                video_id=blockio.field(obj, "video_id", str, where),
                length_sec=blockio.field(obj, "length_sec", int, where),
                audio_path=blockio.field(obj, "audio_path", str, where),
                visual_path=blockio.field(obj, "visual_path", str, where),
                label=blockio.label_field(obj, where, nullable=True),
            )
        )
    if not entries:
        raise ValidationError(f"{path}: empty manifest")
    return Manifest(entries=entries)


def filter_manifest(manifest: Manifest, span: tuple[int, int]) -> Manifest:
    """Keep entries whose length lies in the closed span, preserving order."""
    lo, hi = span
    if lo > hi:
        raise ValueError(f"invalid span [{lo}, {hi}]")
    return Manifest(entries=[e for e in manifest.entries if lo <= e.length_sec <= hi])


def pool_chunks(frames: np.ndarray, chunk_len_sec: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-chunk frame means (float64) and maxes (the frames' dtype) over consecutive
    chunk_len_sec-frame chunks.

    Chunk i covers frames [i * chunk_len_sec, (i + 1) * chunk_len_sec); the
    floor(n_frames / chunk_len_sec) chunks are returned as rows and the
    remainder frames are dropped. A max of float32 frames is a float32 value,
    so a wider copy would hold nothing more; a mean of them is not.
    """
    if chunk_len_sec <= 0:
        raise ValueError(f"chunk_len_sec must be >= 1, got {chunk_len_sec}")
    n_chunks = frames.shape[0] // chunk_len_sec
    chunks = frames[: n_chunks * chunk_len_sec].reshape(n_chunks, chunk_len_sec, frames.shape[1])
    return chunks.mean(axis=1, dtype=np.float64), chunks.max(axis=1)


def video_level_visual(seq: FeatureSequence) -> np.ndarray:
    """Video-level visual feature: elementwise max over frames."""
    if seq.modality != "visual":
        raise ValueError(f"video_level_visual expects a visual sequence, got {seq.modality!r}")
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
        if not 0 <= self.noise_std < np.inf:
            raise ValueError(f"noise_std must be a finite number >= 0, got {self.noise_std}")
        lo, hi = self.length_range
        if lo < 1 or lo > hi:
            raise ValueError(f"invalid length_range [{lo}, {hi}]")


def iter_synth_videos(cfg: SynthConfig) -> Iterator[tuple[ManifestEntry, FeatureSequence, FeatureSequence]]:
    """Yield (entry, audio, visual) one video at a time; entry.label is the video's true cluster.

    One latent vector per video feeds both modalities, so a cross-modal
    correlation exists by construction. Deterministic for a given seed.
    """
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
    for v in range(cfg.n_videos):
        c = int(clusters[v])
        length = int(lengths[v])
        z = centroids[c] + cfg.noise_std * rng.normal(size=cfg.latent_dim)
        # built in place, one (length, dim) buffer per modality; the bits equal those of
        # audio_map @ z + noise_std * noise, as the matvec draws nothing and IEEE addition commutes
        audio = rng.normal(size=(length, AUDIO_DIM))
        audio *= cfg.noise_std
        audio += audio_map @ z
        visual = rng.normal(size=(length, VISUAL_DIM))
        visual *= cfg.noise_std
        visual += visual_map @ z
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
        )


def write_dataset(cfg: SynthConfig, out_dir: str | Path) -> Manifest:
    """Generate and write a dataset directory: manifest.jsonl + audio/ + visual/ FVSQ files."""
    out = Path(out_dir)
    (out / "audio").mkdir(parents=True, exist_ok=True)
    (out / "visual").mkdir(parents=True, exist_ok=True)
    entries = []
    for entry, audio, visual in iter_synth_videos(cfg):
        write_sequence(audio, out / entry.audio_path)
        write_sequence(visual, out / entry.visual_path)
        entries.append(entry)
    manifest = Manifest(entries=entries)
    write_manifest(manifest, out / "manifest.jsonl")
    return manifest
