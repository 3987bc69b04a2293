"""Reference implementations that the library's array paths are tested against."""

import itertools
from typing import Sequence

import numpy as np

from avembed.attention import LstmParams
from avembed.clustering import ClusterModel, _sq_distances
from avembed.data import pool_chunks
from avembed.deep import _sigmoid
from avembed.errors import UndefinedSimilarityError
from avembed.evaluation import RelevanceJudgment, average_precision, mean_ap, precision_recall
from avembed.pipeline import chunk_selection_for, representation_from_selection
from avembed.retrieval import RankedList, build_index, rank


def lstm_step(
    x_t: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray, p: LstmParams
) -> tuple[np.ndarray, np.ndarray]:
    """One step of one peephole LSTM direction, one gate at a time; returns (h_t, c_t)."""
    if x_t.shape != (p.input_dim,) or h_prev.shape != (p.hidden_dim,) or c_prev.shape != (p.hidden_dim,):
        raise ValueError(
            f"dimension mismatch: x {x_t.shape}, h {h_prev.shape}, c {c_prev.shape} "
            f"vs params ({p.hidden_dim}, {p.input_dim})"
        )
    # gates by position: input, forget, cell, output; peepholes: input, forget, output
    i_t = _sigmoid(p.b[0] + p.w_x[0] @ x_t + p.w_h[0] @ h_prev + p.w_c[0] @ c_prev)
    f_t = _sigmoid(p.b[1] + p.w_x[1] @ x_t + p.w_h[1] @ h_prev + p.w_c[1] @ c_prev)
    c_t = f_t * c_prev + i_t * np.tanh(p.w_x[2] @ x_t + p.w_h[2] @ h_prev + p.b[2])
    o_t = _sigmoid(p.w_x[3] @ x_t + p.w_h[3] @ h_prev + p.w_c[2] @ c_t + p.b[3])
    h_t = o_t * np.tanh(c_t)
    return h_t, c_t


def chained_steps(feats: np.ndarray, p) -> tuple[np.ndarray, np.ndarray]:
    """Per-direction lstm_step chains and the per-step score head: the reference
    for the joint recurrence. Returns ((T, h_f + h_b) states, (T,) scores)."""

    def run(seq, lstm):
        h = np.zeros(lstm.hidden_dim)
        c = np.zeros(lstm.hidden_dim)
        out = []
        for x in seq:
            h, c = lstm_step(x, h, c, lstm)
            out.append(h)
        return np.array(out)

    h_f = run(feats, p.forward_lstm)
    h_b = run(feats[::-1], p.backward_lstm)[::-1]
    scores = np.array(
        [p.w_out @ np.tanh(p.w_forward @ a + p.w_backward @ b + p.bias) for a, b in zip(h_f, h_b)]
    )
    return np.hstack([h_f, h_b]), scores


def top_k(theta: np.ndarray, c: int, k: int) -> list[int]:
    """The k of theta's c max-pooled macro-chunks with the largest summed score, ascending, by
    exhaustive subset enumeration; the first best subset wins."""
    macro = theta.reshape(c, -1).max(axis=1)
    best, best_score = None, -np.inf
    for subset in itertools.combinations(range(c), k):
        score = sum(macro[i] for i in subset)
        if score > best_score:
            best, best_score = subset, score
    return list(best)


def chunk_query(frames: np.ndarray, params, c: int, k: int):
    """(query vector, selected, macro-chunk scores) of one video's audio frames, from its own pool_chunks."""
    means, maxes = pool_chunks(frames, 3)
    selected, scores = chunk_selection_for(maxes, params, c, k)
    return representation_from_selection(means, selected, c), selected, scores


def ranked_from_pattern(rel_pattern):
    """RankedList + judgment realizing a given binary relevance pattern."""
    ids = [f"v{i}" for i in range(len(rel_pattern))]
    items = [(vid, 1.0 - i * 0.01) for i, vid in enumerate(ids)]
    relevant = {vid for vid, r in zip(ids, rel_pattern) if r}
    return RankedList("q", items), RelevanceJudgment("q", relevant)


def oracle_ap(rel_pattern, n_relevant=None):
    """Literal transcription of the AP formula with running counters."""
    big_r = n_relevant if n_relevant is not None else sum(rel_pattern)
    hits = 0
    total = 0.0
    for i, rel in enumerate(rel_pattern, start=1):
        if rel:
            hits += 1
            total += hits / i
    return total / big_r


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """a . b / (|a| |b|) of two vectors; zero-norm input is an error, never a silent 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"vectors must share one dimension, got {a.shape} and {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise UndefinedSimilarityError("cosine similarity is undefined for a zero-norm vector")
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


def cross_validate_folds(audio, visual, labels, ids, fit, fold_indices, pr_stride):
    """cross_validate's fold loop written out query by query; returns
    (per_query_ap, per_fold_map, pr_points, map_score)."""
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
    return per_query_ap, per_fold_map, pr_points, mean_ap(per_fold_map)


# seeded_kmeans as it was written with one centroid-update loop inside the iterations and
# another after them, kept verbatim as the reference of the one that recentres in one place
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
