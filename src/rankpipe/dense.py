"""Embedding stores and exact top-k similarity search.

Vectors come from any external bi-encoder as a TSV of
``id<TAB>v1,v2,...,vd`` records. Search is an exhaustive scan accumulated
in double precision, so results are exact and platform-stable.
"""
from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .errors import DataError
from .validate import parse_vectors

DOT = "dot"
COSINE = "cosine"
METRICS = (DOT, COSINE)


class EmbeddingStore:
    """Immutable id -> fixed-dimension vector map with a similarity metric."""

    def __init__(self, ids: list[str], matrix: np.ndarray, metric: str = DOT):
        if metric not in METRICS:
            raise ValueError(f"unknown metric: {metric!r}")
        if matrix.ndim != 2 or matrix.shape[0] != len(ids):
            raise ValueError("matrix shape does not match id count")
        if len(set(ids)) != len(ids):
            raise DataError("duplicate vector ids")
        self.ids = list(ids)
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.metric = metric
        self._row = {vid: i for i, vid in enumerate(self.ids)}
        self._ids_array = np.array(self.ids)
        bad = np.flatnonzero(~np.isfinite(self.matrix).all(axis=1))
        if bad.size:
            raise DataError(f"non-finite components in vector {self.ids[int(bad[0])]!r}")
        if metric == COSINE:
            norms = np.linalg.norm(self.matrix, axis=1)
            zero = np.flatnonzero(norms == 0.0)
            if zero.size:
                raise DataError(f"zero vector {self.ids[int(zero[0])]!r} not allowed under cosine")

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
    def from_items(cls, items: Iterable[tuple[str, Iterable[float]]], metric: str = DOT) -> "EmbeddingStore":
        ids: list[str] = []
        rows: list[np.ndarray] = []
        for vid, values in items:
            ids.append(vid)
            rows.append(np.fromiter(values, dtype=np.float64))
        if not ids:
            raise DataError("no vectors")
        return cls(ids, np.vstack(rows), metric)


def load_embeddings(path: str, metric: str = DOT) -> EmbeddingStore:
    """Load a vector TSV; every record must share the first record's
    dimension, and the error for a mismatch names the id and line."""
    return EmbeddingStore.from_items((record for _, record in parse_vectors(path)), metric)


def write_embeddings(store: EmbeddingStore, path: str, header: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for vid in store.ids:
            row = store.matrix[store._row[vid]]
            fh.write(vid + "\t" + ",".join(repr(float(v)) for v in row) + "\n")


def dense_search(
    queries: EmbeddingStore,
    docs: EmbeddingStore,
    query_id: str,
    k: int,
) -> list[tuple[str, float]]:
    """Exact top-k document similarities for one query.

    Scores are dot products, or cosine when the document store was loaded
    with the cosine metric; ties break by ascending docid and k beyond the
    store size returns the whole store.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if query_id not in queries:
        raise DataError(f"unknown query id {query_id!r}")
    if queries.dim != docs.dim:
        raise DataError(f"query dim {queries.dim} != doc dim {docs.dim}")
    qvec = queries.vector(query_id)
    if docs.metric == COSINE:
        qnorm = np.linalg.norm(qvec)
        if qnorm == 0.0:
            raise DataError(f"zero query vector {query_id!r} under cosine")
        dnorms = np.linalg.norm(docs.matrix, axis=1)
        scores = (docs.matrix @ qvec) / (dnorms * qnorm)
    else:
        scores = docs.matrix @ qvec
    # primary key score descending, secondary key docid ascending
    order = np.lexsort((docs._ids_array, -scores))
    return [(docs.ids[i], float(scores[i])) for i in order[: min(k, len(docs))]]
