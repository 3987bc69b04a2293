"""Embedding index and exact cosine-similarity ranking.

Exhaustive linear scan: desk-scale corpora make exactness cheap. All ties
break by ascending video_id so results are independent of insertion order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import blockio
from .errors import CorruptFileError, UndefinedSimilarityError, ValidationError


@dataclass
class EmbeddingIndex:
    ids: list[str]
    embeddings: np.ndarray
    labels: np.ndarray
    norms: np.ndarray

    @property
    def r(self) -> int:
        return self.embeddings.shape[1]

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class RankedList:
    query_id: str
    items: list[tuple[str, float]]

    def __len__(self) -> int:
        return len(self.items)

    @property
    def video_ids(self) -> list[str]:
        return [vid for vid, _ in self.items]


def build_index(embeddings: np.ndarray, labels: np.ndarray, ids: list[str]) -> EmbeddingIndex:
    """Index sorted by video_id with cached norms; ValidationError on a repeated id or a zero or non-finite norm."""
    embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64)
    if embeddings.shape[0] != len(ids) or labels.shape[0] != len(ids):
        raise ValueError("embeddings, labels, and ids must align")
    if len(set(ids)) != len(ids):
        dupes = sorted({v for v in ids if ids.count(v) > 1})
        raise ValidationError(f"duplicate video_ids in index: {dupes[:5]}")
    order = np.argsort(np.asarray(ids, dtype=object), kind="stable")
    ids_sorted = [ids[i] for i in order]
    emb = embeddings[order]
    norms = _norm(emb, axis=1)
    for bad, what in ((norms == 0.0, "zero-norm"), (~np.isfinite(norms), "non-finite-norm")):
        if np.any(bad):
            named = [ids_sorted[i] for i in np.flatnonzero(bad)[:5]]
            raise ValidationError(f"{what} embeddings cannot be indexed: {named}")
    return EmbeddingIndex(ids=ids_sorted, embeddings=emb, labels=labels[order], norms=norms)


def _norm(vectors: np.ndarray, axis: int | None = None) -> np.ndarray:
    """np.linalg.norm, giving inf without a warning where the norm of finite values overflows."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(vectors, axis=axis)


def rank(index: EmbeddingIndex, query: np.ndarray, n: int, query_id: str = "") -> RankedList:
    """Top-n entries by cosine similarity; n beyond the index size returns all."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (index.r,):
        raise ValueError(f"query width {query.shape} does not match index width {index.r}")
    qnorm = float(_norm(query))
    if qnorm == 0.0 or not np.isfinite(qnorm):
        raise UndefinedSimilarityError(f"cosine similarity is undefined for a query of norm {qnorm}")
    sims = np.clip((index.embeddings @ query) / (index.norms * qnorm), -1.0, 1.0)
    # ids are stored ascending, so a stable descending-similarity sort breaks ties by id
    order = np.argsort(-sims, kind="stable")[: min(n, len(index))]
    return RankedList(query_id=query_id, items=[(index.ids[i], float(sims[i])) for i in order])


_INDEX_MAGIC = b"AVIX"


def save_index(index: EmbeddingIndex, path: str | Path) -> None:
    """JSON header {r, count}, one binary embedding block, then the id table."""
    with open(path, "wb") as fh:
        blockio.write_header(fh, _INDEX_MAGIC, {"r": index.r, "count": len(index)})
        blockio.write_array_block(fh, "embeddings", index.embeddings)
        fh.write(blockio.id_table(index.ids, index.labels))


def load_index(path: str | Path) -> EmbeddingIndex:
    """The index saved at path, built by build_index; a CorruptFileError if it fails a check there
    or its header's count or r contradicts its blocks."""
    with blockio.Reader(path) as reader:
        header = blockio.read_header(reader, _INDEX_MAGIC)
        name, embeddings = blockio.read_array_block(reader)
        if name != "embeddings":
            raise CorruptFileError(f"{path}: unexpected block {name!r}")
        table = reader.take(reader.left, "id table")
    count, r = (blockio.field(header, key, int, f"{path}: index header") for key in ("count", "r"))
    table = blockio.read_id_table(f"{path} id table", "id line", table)
    ids, labels = list(table), np.fromiter(table.values(), np.int64, len(table))
    if len(ids) != count or embeddings.ndim != 2 or embeddings.shape[0] != len(ids):
        raise CorruptFileError(f"{path}: id table does not match declared count")
    if embeddings.shape[1] != r:
        raise CorruptFileError(
            f"{path}: index header key 'r' is {r}, but block 'embeddings' is {embeddings.shape[1]} wide"
        )
    try:
        return build_index(embeddings, labels, ids)
    except ValidationError as exc:
        raise CorruptFileError(f"{path}: {exc}") from exc
