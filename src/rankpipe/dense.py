"""Embedding stores and exact top-k similarity search.

Vectors come from any external bi-encoder as a TSV of
``id<TAB>v1,v2,...,vd`` records. Search is an exhaustive scan accumulated
in double precision, so results are exact. The metric, dot product or
cosine, is a search argument; ``similarities`` is the one routine that
computes either, with the same checks for every caller.
"""
from __future__ import annotations

from collections.abc import Iterable
from functools import cached_property

import numpy as np

from .errors import DataError
from .runs import DEFAULT_K, Run, check_k
from .validate import COSINE, DOT, METRICS, parse_vectors


class EmbeddingStore:
    """Immutable id -> fixed-dimension vector map."""

    def __init__(self, ids: list[str], matrix: np.ndarray):
        if matrix.ndim != 2 or matrix.shape[0] != len(ids):
            raise ValueError("matrix shape does not match id count")
        if len(set(ids)) != len(ids):
            raise DataError("duplicate vector ids")
        self.ids = list(ids)
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self._row = {vid: i for i, vid in enumerate(self.ids)}
        # each id's position in sorted id order: ties in search break on it
        self._id_rank = np.empty(len(self.ids), dtype=np.int64)
        self._id_rank[np.argsort(np.array(self.ids), kind="stable")] = np.arange(len(self.ids))
        bad = np.flatnonzero(~np.isfinite(self.matrix).all(axis=1))
        if bad.size:
            raise DataError(f"non-finite components in vector {self.ids[int(bad[0])]!r}")

    @cached_property
    def _cosine_norms(self) -> np.ndarray:
        """Every vector's L2 norm, computed once per store; a zero vector,
        which has no direction, is a DataError that names it."""
        norms = np.linalg.norm(self.matrix, axis=1)
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise DataError(f"zero vector {self.ids[int(zero[0])]!r} not allowed under cosine")
        return norms

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, vid: str) -> bool:
        return vid in self._row

    def vector(self, vid: str) -> np.ndarray:
        try:
            return self.matrix[self._row[vid]]
        except KeyError:
            raise DataError(f"unknown vector id {vid!r}") from None

    @classmethod
    def from_items(cls, items: Iterable[tuple[str, Iterable[float]]]) -> "EmbeddingStore":
        ids: list[str] = []
        rows: list[np.ndarray] = []
        for vid, values in items:
            ids.append(vid)
            rows.append(np.fromiter(values, dtype=np.float64))
        if not ids:
            raise DataError("no vectors")
        return cls(ids, np.vstack(rows))


def load_embeddings(path: str) -> EmbeddingStore:
    """Load a vector TSV; every record must share the first record's
    dimension, and the error for a mismatch names the id and line."""
    return EmbeddingStore.from_items(record for _, record in parse_vectors(path))


def similarities(queries: EmbeddingStore, docs: EmbeddingStore, query_id: str, metric: str = DOT) -> np.ndarray:
    """The similarity of one query vector to every document vector, in the
    order of ``docs.ids``: dot products, or cosine under ``COSINE``.

    Under cosine a zero vector, query or document, is a DataError that
    names it. So is a similarity that overflows the float range, which
    finite components can still produce.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric: {metric!r}")
    if query_id not in queries:
        raise DataError(f"unknown query id {query_id!r}")
    if queries.dim != docs.dim:
        raise DataError(f"query dim {queries.dim} != doc dim {docs.dim}")
    qvec = queries.vector(query_id)
    with np.errstate(over="ignore", invalid="ignore"):
        scores = docs.matrix @ qvec
        if metric == COSINE:
            qnorm = np.linalg.norm(qvec)
            if qnorm == 0.0:
                raise DataError(f"zero vector {query_id!r} not allowed under cosine")
            scores = scores / (docs._cosine_norms * qnorm)
    if not np.isfinite(scores).all():
        raise DataError(f"similarity overflow for query {query_id!r}: scores are not finite")
    return scores


def dense_search(
    queries: EmbeddingStore,
    docs: EmbeddingStore,
    query_id: str,
    k: int,
    metric: str = DOT,
) -> list[tuple[str, float]]:
    """Exact top-k document similarities for one query under ``metric``.

    Ties break by ascending docid, and k beyond the store size returns the
    whole store.
    """
    check_k(k)
    scores = similarities(queries, docs, query_id, metric)
    # primary key score descending, secondary key docid ascending
    top = np.lexsort((docs._id_rank, -scores))[:k]
    return list(zip(map(docs.ids.__getitem__, top.tolist()), scores[top].tolist()))


def retrieve_dense(queries_path: str, docs_path: str, k: int = DEFAULT_K, metric: str = DOT, tag: str = "dense") -> Run:
    """The dense stage: the top-k documents of every query vector."""
    check_k(k)  # before the reads, so that a file without vectors cannot hide a bad k
    queries = load_embeddings(queries_path)
    docs = load_embeddings(docs_path)
    return Run(entries={qid: dense_search(queries, docs, qid, k, metric) for qid in queries.ids}, tag=tag)
