"""Precision/recall sweeps, average precision, MAP, and k-fold cross-validation.

A result video is relevant iff it shares the query audio's cluster label.
Precision-recall curves are computed per query at each output size, then
averaged across queries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
from .retrieval import RankedList, build_index, rank


@dataclass
class RelevanceJudgment:
    query_id: str
    relevant_set: set[str]


@dataclass
class EvalReport:
    per_query_ap: dict[str, float]
    map_score: float
    pr_points: list[tuple[int, float, float]]
    per_fold_map: list[float] = field(default_factory=list)
    config: dict = field(default_factory=dict)


def _relevance(ranked: RankedList, judgment: RelevanceJudgment) -> np.ndarray:
    """1.0 where the ranked video is relevant, else 0.0, in rank order."""
    if not judgment.relevant_set:
        raise ValidationError(f"query {judgment.query_id!r} has an empty relevant set")
    return np.array([vid in judgment.relevant_set for vid in ranked.video_ids], dtype=np.float64)


def precision_recall(
    ranked: RankedList, judgment: RelevanceJudgment, output_sizes: Sequence[int]
) -> list[tuple[int, float, float]]:
    """(size, precision, recall) at each requested output size."""
    sizes = list(output_sizes)
    if any(s <= 0 for s in sizes) or any(b < a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("output_sizes must be positive and ascending")
    hits = np.cumsum(_relevance(ranked, judgment))
    n_rel = len(judgment.relevant_set)
    out = []
    for s in sizes:
        h = int(hits[min(s, len(hits)) - 1]) if len(hits) else 0
        out.append((s, h / s, h / n_rel))
    return out


def average_precision(ranked: RankedList, judgment: RelevanceJudgment, n: int | None = None) -> float:
    """AP = (1/R) * sum_{i<=N} p(i) * rel(i) with binary same-cluster relevance."""
    rel = _relevance(ranked, judgment)
    if n is None:
        n = len(ranked.items)
    if not 0 <= n <= len(ranked.items):
        raise ValueError(f"N must be in [0, {len(ranked.items)}], got {n}")
    rel = rel[:n]
    if n == 0 or rel.sum() == 0:
        return 0.0
    precision_at = np.cumsum(rel) / np.arange(1, n + 1)
    # cumsum adds in rank order, one term at a time, as a literal transcription of the formula
    # does; a pairwise sum would round differently
    return float(np.cumsum(precision_at[rel > 0])[-1]) / len(judgment.relevant_set)


def mean_ap(aps: Sequence[float]) -> float:
    if len(aps) == 0:
        raise ValueError("mean_ap needs at least one per-query AP")
    return float(np.mean(aps))


EmbedFn = Callable[[np.ndarray], np.ndarray]
# A fit consumes the training rows (audio, visual, labels) and returns the two embedding
# maps (feature matrix -> embedding matrix) for the audio and visual side.
Fit = Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[EmbedFn, EmbedFn]]


def partition_folds(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """Seeded disjoint partition covering all n rows."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if n < folds:
        raise ValueError(f"dataset of {n} rows cannot form {folds} folds")
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(perm[i::folds]) for i in range(folds)]


def _check_fold_clusters(fold_labels: np.ndarray, all_clusters: np.ndarray, fold_no: int) -> None:
    present, counts = np.unique(fold_labels, return_counts=True)
    missing = sorted(set(int(c) for c in all_clusters) - set(int(c) for c in present))
    if missing:
        census = {int(c): int(n) for c, n in zip(present, counts)}
        raise ValidationError(
            f"fold {fold_no} is missing clusters {missing}; cluster census: {census}"
        )


def cross_validate(
    audio: np.ndarray,
    visual: np.ndarray,
    labels: np.ndarray,
    ids: Sequence[str],
    fit: Fit,
    folds: int = 5,
    seed: int = 0,
    pr_stride: int = 1,
    config: dict | None = None,
) -> EvalReport:
    """Train on folds-1, rank each held-out audio against the held-out video index.

    MAP is averaged across folds; PR points are per-query values averaged over
    all held-out queries at each output size.
    """
    audio = np.asarray(audio, dtype=np.float64)
    visual = np.asarray(visual, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = audio.shape[0]
    if visual.shape[0] != n or labels.shape[0] != n or len(ids) != n:
        raise ValueError("audio, visual, labels, and ids must align")
    fold_indices = partition_folds(n, folds, seed)
    all_clusters = np.unique(labels)
    for fold_no, held in enumerate(fold_indices):
        _check_fold_clusters(labels[held], all_clusters, fold_no)

    per_query_ap: dict[str, float] = {}
    per_fold_map: list[float] = []
    pr_sums: dict[int, list] = {}  # size -> [precision sum, recall sum, query count]
    for fold_no, held in enumerate(fold_indices):
        train_idx = np.sort(np.concatenate([f for j, f in enumerate(fold_indices) if j != fold_no]))
        embed_audio, embed_visual = fit(audio[train_idx], visual[train_idx], labels[train_idx])
        held_ids = [ids[i] for i in held]
        index = build_index(embed_visual(visual[held]), labels[held], held_ids)
        relevant: dict[int, set[str]] = {}
        for vid, label in zip(held_ids, labels[held].tolist()):
            relevant.setdefault(label, set()).add(vid)
        query_embs = embed_audio(audio[held])
        sizes = list(range(1, len(held) + 1, pr_stride))
        fold_aps = []
        for row, i in enumerate(held):
            judgment = RelevanceJudgment(query_id=ids[i], relevant_set=relevant[int(labels[i])])
            ranked = rank(index, query_embs[row], n=len(held), query_id=ids[i])
            ap = average_precision(ranked, judgment)
            per_query_ap[ids[i]] = ap
            fold_aps.append(ap)
            for s, p, r in precision_recall(ranked, judgment, sizes):
                acc = pr_sums.setdefault(s, [0.0, 0.0, 0])
                acc[0] += p
                acc[1] += r
                acc[2] += 1
        per_fold_map.append(mean_ap(fold_aps))

    pr_points = [(s, p / count, r / count) for s, (p, r, count) in sorted(pr_sums.items())]
    echo = dict(config or {})
    echo.setdefault("pr_averaging", "per-query-then-mean")
    return EvalReport(
        per_query_ap=per_query_ap,
        map_score=mean_ap(per_fold_map),
        pr_points=pr_points,
        per_fold_map=per_fold_map,
        config=echo,
    )


def pr_curve_export(report: EvalReport, path: str | Path) -> None:
    """CSV with header size,precision,recall; floats written shortest-exact."""
    lines = ["size,precision,recall"]
    for s, p, r in report.pr_points:
        lines.append(f"{s},{p!r},{r!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def report_to_json(report: EvalReport, path: str | Path) -> None:
    obj = {
        "map": report.map_score,
        "per_fold_map": report.per_fold_map,
        "per_query_ap": report.per_query_ap,
        "pr_points": [[s, p, r] for s, p, r in report.pr_points],
        "config": report.config,
    }
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True), encoding="utf-8")
