"""Embedding stores and exact top-k similarity search.

Vectors come from any external bi-encoder as a TSV of
``id<TAB>v1,v2,...,vd`` records. Search is an exhaustive scan accumulated
in double precision, so results are exact, and its top-k is every document
at or above the k-th score, in canonical order, cut at k. The metric, dot
product or cosine, is a search argument; ``similarities`` is the one
routine that computes either, with the same checks for every caller.

This is the one module of the package that imports numpy, and the others
take it from here. Unless the caller has set ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS``, numpy's BLAS starts with one
thread: search is one matrix-vector product per query, which a second
thread does not speed up, while the pipeline already runs one process per
CPU. The variables are set for the import alone, so a process started
later, an external scorer say, inherits the caller's environment.
"""
from __future__ import annotations

import os
from collections.abc import Iterable
from contextlib import closing
from functools import cached_property
from itertools import chain

from .errors import DataError, FormatError
from .runs import DEFAULT_K, Run, check_k, sort_ranked
from .validate import COSINE, DOT, METRICS, data_lines, parse_vectors

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_capped = [] if any(name in os.environ for name in _BLAS_THREADS) else list(_BLAS_THREADS)
os.environ.update(dict.fromkeys(_capped, "1"))
try:
    import numpy as np
finally:
    for _name in _capped:
        del os.environ[_name]


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


# whitespace to numpy's number reader, which strips it around a component, but not to float()
_NOT_FLOAT_SPACE = ("\x1c", "\x1d", "\x1e", "\x1f")


def load_embeddings(path: str) -> EmbeddingStore:
    """Load a vector TSV; every record must share the first record's
    dimension, and the error for a mismatch names the id and line.

    numpy's C reader parses the components of the data lines; where it or
    a check of the ids and values fails, ``validate.parse_vectors`` reads the
    file again, and either raises its ``path:line`` diagnostic or accepts what
    only ``float()`` reads (``1_5``, non-ASCII digits). Where both accept a
    component, they give the same float: each rounds correctly."""
    ids: list[str] = []

    def payload(line: str) -> str:
        vid, values = line.split("\t")  # a ValueError unless two columns
        # numpy skips an empty line, and warns when it read no line
        if not values or any(map(values.__contains__, _NOT_FLOAT_SPACE)):
            raise ValueError(vid)
        ids.append(vid)
        return values

    with closing(data_lines(path, parse=payload)) as lines:
        payloads = (values for _, values in lines)
        try:
            first = next(payloads, None)  # a file without vectors is parse_vectors' to report
            matrix = None if first is None else np.loadtxt(
                chain((first,), payloads), dtype=np.float64, delimiter=",", comments=None, ndmin=2)
        except (ValueError, FormatError):  # a line that numpy, the split or the decoder rejects
            matrix = None
    # one row per id, unique ids that are single tokens (splitting them joined
    # by spaces gives them back), finite components
    if (matrix is not None and len(matrix) == len(ids) == len(set(ids)) and " ".join(ids).split() == ids
            and np.isfinite(matrix).all()):
        return EmbeddingStore(ids, matrix)
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
    """Exact top-k document similarities for one query under ``metric``:
    every document at or above the k-th score, in canonical order
    (``runs.sort_ranked``), cut at k. k beyond the store size returns the
    whole store.
    """
    check_k(k)
    scores = similarities(queries, docs, query_id, metric)
    kept = np.arange(len(scores))
    if k < len(scores):
        # every document at or above the k-th highest score: sort_ranked breaks the ties at the cut
        kept = np.flatnonzero(scores >= np.partition(scores, -k)[-k])
    return sort_ranked(list(zip(map(docs.ids.__getitem__, kept.tolist()), scores[kept].tolist())))[:k]


def retrieve_dense(queries_path: str, docs_path: str, k: int = DEFAULT_K, metric: str = DOT, tag: str = "dense") -> Run:
    """The dense stage: the top-k documents of every query vector."""
    check_k(k)  # before the reads, so that a file without vectors cannot hide a bad k
    queries = load_embeddings(queries_path)
    docs = load_embeddings(docs_path)
    return Run(entries={qid: dense_search(queries, docs, qid, k, metric) for qid in queries.ids}, tag=tag)
