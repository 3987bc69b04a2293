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
    """Within-cluster (audio_index, visual_index, cluster_label) training pairs."""

    pairs: np.ndarray  # (m, 3) int64
    fraction: float
    seed: int

    def __len__(self) -> int:
        return self.pairs.shape[0]

    @property
    def audio_indices(self) -> np.ndarray:
        return self.pairs[:, 0]

    @property
    def visual_indices(self) -> np.ndarray:
        return self.pairs[:, 1]


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
    inertia = np.inf
    history: list[float] = []
    iterations = 0
    for _ in range(max_iter):
        dists = _sq_distances(x, centroids)
        new_labels = np.argmin(dists, axis=1)  # argmin takes the first minimum: lower index wins ties
        new_inertia = float(dists[np.arange(x.shape[0]), new_labels].sum())
        iterations += 1
        history.append(new_inertia)
        converged_labels = bool(np.array_equal(new_labels, labels))
        improved = inertia - new_inertia
        labels = new_labels
        inertia = new_inertia
        if converged_labels or improved < tol:
            break
        taken: list[int] = []
        for i in range(k):
            members = x[labels == i]
            if members.shape[0] > 0:
                centroids[i] = members.mean(axis=0)
            else:
                far = np.einsum("ij,ij->i", x - centroids[i], x - centroids[i])
                far[taken] = -np.inf
                j = int(np.argmax(far))
                taken.append(j)
                centroids[i] = x[j]

    # final centroids are the means of the final assignment
    for i in range(k):
        members = x[labels == i]
        if members.shape[0] > 0:
            centroids[i] = members.mean(axis=0)
    dists = _sq_distances(x, centroids)
    inertia = float(dists[np.arange(x.shape[0]), labels].sum())
    return ClusterModel(
        k=k,
        centroids=centroids,
        labels=labels,
        inertia=inertia,
        iterations_run=iterations,
        inertia_history=history,
    )


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
    identity = np.column_stack([np.arange(n), np.arange(n), la])

    members: dict[int, np.ndarray] = {int(c): np.flatnonzero(la == c) for c in np.unique(la)}

    if target_count is not None:
        if target_count < n:
            raise ValueError(f"target_count {target_count} below the {n} identity pairs")
        cross_rows = _sample_cross_pairs(la, members, target_count - n, rng)
        pairs = np.vstack([identity, cross_rows]) if cross_rows.size else identity
        return PairSet(pairs=pairs, fraction=f, seed=seed)

    if f == 0.0:
        return PairSet(pairs=identity, fraction=f, seed=seed)

    rows = [identity]
    for i in range(n):
        cluster = members[int(la[i])]
        count = max(1, int(round(f * cluster.shape[0])))
        if count >= cluster.shape[0]:
            partners = cluster
        else:
            others = cluster[cluster != i]
            chosen = rng.choice(others, size=count - 1, replace=False) if count > 1 else np.empty(0, np.int64)
            partners = np.concatenate([[i], chosen])
        partners = np.sort(partners[partners != i])
        if partners.size:
            block = np.column_stack([np.full(partners.size, i), partners, np.full(partners.size, la[i])])
            rows.append(block)
    return PairSet(pairs=np.vstack(rows), fraction=f, seed=seed)


def _sample_cross_pairs(
    la: np.ndarray, members: dict[int, np.ndarray], count: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample `count` distinct non-identity within-cluster cells uniformly."""
    if count == 0:
        return np.empty((0, 3), dtype=np.int64)
    audio_flat: list[np.ndarray] = []
    visual_flat: list[np.ndarray] = []
    label_flat: list[np.ndarray] = []
    for c, idx in sorted(members.items()):
        m = idx.shape[0]
        a = np.repeat(idx, m)
        v = np.tile(idx, m)
        keep = a != v
        audio_flat.append(a[keep])
        visual_flat.append(v[keep])
        label_flat.append(np.full(keep.sum(), c, dtype=np.int64))
    a_all = np.concatenate(audio_flat)
    v_all = np.concatenate(visual_flat)
    l_all = np.concatenate(label_flat)
    if count > a_all.shape[0]:
        raise ValueError(
            f"target_count asks for {count} cross pairs but only {a_all.shape[0]} exist"
        )
    chosen = rng.choice(a_all.shape[0], size=count, replace=False)
    chosen.sort()
    return np.column_stack([a_all[chosen], v_all[chosen], l_all[chosen]])


def save_assignments(video_ids: Sequence[str], labels: np.ndarray, path: str | Path) -> None:
    """Cluster assignments as JSON lines {video_id, label}."""
    if len(video_ids) != len(labels):
        raise ValueError("video_ids and labels must align")
    with open(path, "w", encoding="utf-8") as fh:
        for vid, lab in zip(video_ids, labels):
            fh.write(json.dumps({"video_id": vid, "label": int(lab)}) + "\n")


def load_assignments(path: str | Path) -> dict[str, int]:
    out: dict[str, int] = {}
    for line_no, obj in blockio.iter_json_lines(path, "assignment line"):
        where = f"{path}:{line_no}: assignment"
        out[blockio.field(obj, "video_id", str, where)] = blockio.field(obj, "label", int, where)
    if not out:
        raise ValidationError(f"{path}: empty assignments file")
    return out


def save_seed_sets(categories: dict[str, list[str]], path: str | Path) -> None:
    """Seeds file: named categories, each holding exemplar video ids."""
    Path(path).write_text(json.dumps({"version": 1, "categories": categories}, indent=2), encoding="utf-8")


def load_seed_sets(path: str | Path) -> dict[str, list[str]]:
    cats = blockio.read_json_object(path, "seeds file").get("categories")
    if not isinstance(cats, dict) or not cats:
        raise FormatError(f"{path}: missing 'categories' object")
    out = {}
    for name, ids in cats.items():
        if not isinstance(ids, list) or not ids:
            raise ValidationError(f"{path}: category {name!r} holds no exemplar ids")
        out[name] = [str(v) for v in ids]
    return out
