"""Seeded k-means over audio features and cluster-based pair expansion.

The cluster labels are both the supervision signal for pair expansion
(cluster-CCA and the supervised deep variant) and the retrieval ground truth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import blockio
from .errors import FormatError, ValidationError

EMOTION_CATEGORIES = (
    "angry",
    "tender",
    "bitter",
    "cheerful",
    "fun",
    "bright",
    "happy",
    "anxious",
    "calm",
    "warm",
)


@dataclass
class ClusterModel:
    k: int
    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    iterations_run: int
    inertia_history: list[float]


@dataclass
class PairSet:
    """Within-cluster training pairs: pair i is (audio_indices[i], visual_indices[i])."""

    audio_indices: np.ndarray  # (m,) int64
    visual_indices: np.ndarray  # (m,) int64

    def __len__(self) -> int:
        return self.audio_indices.shape[0]


def _sq_distances(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # (n, k) squared Euclidean distances without forming n*k*d intermediates
    x_sq = np.einsum("ij,ij->i", x, x)[:, None]
    c_sq = np.einsum("ij,ij->i", centroids, centroids)[None, :]
    return np.maximum(x_sq - 2.0 * x @ centroids.T + c_sq, 0.0)


def seeded_kmeans(
    features: np.ndarray,
    seeds: Sequence[np.ndarray],
    max_iter: int = 100,
    tol: float = 1e-8,
) -> ClusterModel:
    """Lloyd iterations from seeded centroids (centroid i = mean of seed set i).

    Assignment ties go to the lower centroid index. An emptied cluster is
    re-seeded to the point farthest from its former centroid rather than
    dropped, so k stays fixed.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("features must be a 2-d matrix")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    k = len(seeds)
    if k < 1:
        raise ValueError("need at least one seed set")
    if x.shape[0] < k:
        raise ValueError(f"need at least k={k} points, got {x.shape[0]}")
    centroids = np.empty((k, x.shape[1]))
    for i, seed_set in enumerate(seeds):
        arr = np.atleast_2d(np.asarray(seed_set, dtype=np.float64))
        if arr.shape[0] < 1 or arr.shape[1] != x.shape[1]:
            raise ValueError(f"seed set {i} must hold >= 1 vector of dim {x.shape[1]}")
        centroids[i] = arr.mean(axis=0)

    labels = np.full(x.shape[0], -1, dtype=np.int64)
    rows = np.arange(x.shape[0])
    history: list[float] = []
    for _ in range(max_iter):
        dists = _sq_distances(x, centroids)
        new_labels = np.argmin(dists, axis=1)  # argmin takes the first minimum: lower index wins ties
        history.append(float(dists[rows, new_labels].sum()))
        converged = np.array_equal(new_labels, labels) or (len(history) > 1 and history[-2] - history[-1] < tol)
        labels = new_labels
        if converged:
            break
        _recentre(x, labels, centroids, reseed=True)

    # final centroids are the means of the final assignment
    _recentre(x, labels, centroids, reseed=False)
    dists = _sq_distances(x, centroids)
    return ClusterModel(
        k=k,
        centroids=centroids,
        labels=labels,
        inertia=float(dists[rows, labels].sum()),
        iterations_run=len(history),
        inertia_history=history,
    )


def _recentre(x: np.ndarray, labels: np.ndarray, centroids: np.ndarray, reseed: bool) -> None:
    """Each centroid, in place, to the mean of its points; an empty cluster's stays, or if reseed
    moves to the point farthest from it that no cluster emptied before it in this call took."""
    taken: list[int] = []
    for i in range(centroids.shape[0]):
        members = x[labels == i]
        if members.shape[0] > 0:
            centroids[i] = members.mean(axis=0)
        elif reseed:
            far = np.einsum("ij,ij->i", x - centroids[i], x - centroids[i])
            far[taken] = -np.inf
            taken.append(int(np.argmax(far)))
            centroids[i] = x[taken[-1]]


def expand_pairs(
    labels: np.ndarray,
    f: float = 0.0,
    seed: int = 0,
    target_count: int | None = None,
) -> PairSet:
    """Identity pairs plus seeded within-cluster cross pairs.

    Fraction mode: each audio item is paired with round(f * cluster_size)
    visual items of its cluster (its own video always included), sampled
    uniformly without replacement. target_count overrides f: the result holds
    exactly target_count pairs (all identities plus sampled cross pairs).
    Labels are per video, so both sides of a pair share one label vector.
    """
    la = np.asarray(labels, dtype=np.int64)
    if la.ndim != 1 or la.shape[0] == 0:
        raise ValueError("labels must be a non-empty vector")
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"expansion fraction must be in [0, 1], got {f}")
    n = la.shape[0]
    rng = np.random.default_rng(seed)
    identity = np.arange(n)

    members: dict[int, np.ndarray] = {int(c): np.flatnonzero(la == c) for c in np.unique(la)}

    if target_count is not None:
        if target_count < n:
            raise ValueError(f"target_count {target_count} below the {n} identity pairs")
        audio, visual = _sample_cross_pairs(members, target_count - n, rng)
        return PairSet(np.concatenate([identity, audio]), np.concatenate([identity, visual]))

    if f == 0.0:
        return PairSet(identity, identity)

    audio, visual = [identity], [identity]
    for i in range(n):
        cluster = members[int(la[i])]
        count = max(1, int(round(f * cluster.shape[0])))
        others = cluster[cluster != i]
        if count >= cluster.shape[0]:
            chosen = others
        elif count > 1:
            chosen = np.sort(rng.choice(others, size=count - 1, replace=False))
        else:
            continue
        audio.append(np.full(chosen.size, i))
        visual.append(chosen)
    return PairSet(np.concatenate(audio), np.concatenate(visual))


def _sample_cross_pairs(
    members: dict[int, np.ndarray], count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sample `count` distinct non-identity within-cluster cells uniformly, as (audio, visual) indices."""
    if count == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    # every (audio, visual) cell of each cluster, clusters in ascending label order
    cells = [(np.repeat(idx, idx.size), np.tile(idx, idx.size)) for idx in members.values()]
    a_all = np.concatenate([a[a != v] for a, v in cells])
    v_all = np.concatenate([v[a != v] for a, v in cells])
    if count > a_all.shape[0]:
        raise ValueError(
            f"target_count asks for {count} cross pairs but only {a_all.shape[0]} exist"
        )
    chosen = rng.choice(a_all.shape[0], size=count, replace=False)
    chosen.sort()
    return a_all[chosen], v_all[chosen]


def save_assignments(video_ids: Sequence[str], labels: np.ndarray, path: str | Path) -> None:
    """Cluster assignments as an id table: JSON lines {video_id, label}."""
    Path(path).write_bytes(blockio.id_table(video_ids, labels))


def load_assignments(path: str | Path) -> dict[str, int]:
    out = blockio.read_id_table(path, "assignment")
    if not out:
        raise ValidationError(f"{path}: empty assignments file")
    return out


def save_seed_sets(categories: dict[str, list[str]], path: str | Path) -> None:
    """Seeds file: named categories, each holding exemplar video ids."""
    Path(path).write_text(json.dumps({"version": 1, "categories": categories}, indent=2), encoding="utf-8")


def load_seed_sets(path: str | Path) -> dict[str, list[str]]:
    where = f"{path}: seeds file"
    cats = blockio.field(blockio.read_json_object(path, "seeds file"), "categories", dict, where)
    if not cats:
        raise FormatError(f"{where} holds no categories")
    for name in cats:
        ids = blockio.field(cats, name, list, f"{where} categories")
        if not ids:
            raise ValidationError(f"{path}: category {name!r} holds no exemplar ids")
        for v in ids:
            if type(v) is not str:  # never coerced: the id 1 is not the video '1'
                raise FormatError(f"{path}: category {name!r} holds id {json.dumps(v)[:60]}, not a string")
    return cats
