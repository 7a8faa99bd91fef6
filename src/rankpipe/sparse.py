"""Inverted index construction and BM25 ranked retrieval.

The scoring function is the Lucene-style variant

    score(q, d) = sum over unique query terms t of
        idf(t) * tf(t, d) / (tf(t, d) + k1 * (1 - b + b * dl(d) / avgdl))

with ``idf(t) = ln(1 + (N - df(t) + 0.5) / (df(t) + 0.5))``, which is
nonnegative for every term. Defaults k1=0.9, b=0.4.
"""
from __future__ import annotations

import math
import struct
import sys
from array import array
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

from .corpus import Document, load_corpus, load_topics
from .errors import DataError, FormatError
from .runs import DEFAULT_K, Run
from .tokenization import AUTO, POLICIES, tokenize

_MAGIC = b"RPIDX002"
_OLD_MAGIC = b"RPIDX001"  # auto segmented by majority script, not by script run


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 0.9
    b: float = 0.4

    def __post_init__(self) -> None:
        if self.k1 <= 0:
            raise ValueError("k1 must be > 0")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must be in [0, 1]")


class InvertedIndex:
    """Immutable term -> postings map over a fixed document collection.

    Postings are (doc ordinal, term frequency) pairs sorted by ordinal with
    at most one entry per document; ``df(term)`` equals the postings length.
    """

    def __init__(
        self,
        postings: dict[str, list[tuple[int, int]]],
        doc_lengths: list[int],
        docids: list[str],
        script_policy: str,
    ):
        self.postings = postings
        self.doc_lengths = doc_lengths
        self.docids = docids
        self.script_policy = script_policy
        self.avgdl = sum(doc_lengths) / len(doc_lengths) if doc_lengths else 0.0

    @property
    def doc_count(self) -> int:
        return len(self.doc_lengths)

    def df(self, term: str) -> int:
        return len(self.postings.get(term, ()))

    def __contains__(self, term: str) -> bool:
        return term in self.postings


def build_index(documents: Iterable[Document], script_policy: str = AUTO) -> InvertedIndex:
    """Build an inverted index; the indexed text is ``title + " " + text``.

    Rejects duplicate docids and an empty document stream.
    """
    if script_policy not in POLICIES:
        raise ValueError(f"unknown script policy: {script_policy!r}")
    postings: dict[str, list[tuple[int, int]]] = {}
    doc_lengths: list[int] = []
    docids: list[str] = []
    seen: set[str] = set()
    for doc in documents:
        if doc.docid in seen:
            raise DataError(f"duplicate docid {doc.docid!r}")
        seen.add(doc.docid)
        ordinal = len(docids)
        docids.append(doc.docid)
        tokens = tokenize(f"{doc.title} {doc.text}", script_policy)
        doc_lengths.append(len(tokens))
        for term, tf in Counter(tokens).items():
            postings.setdefault(term, []).append((ordinal, tf))
    if not docids:
        raise DataError("cannot build an index from an empty corpus")
    return InvertedIndex(postings, doc_lengths, docids, script_policy)


def index_corpus(corpus_path: str, out: str, script_policy: str = AUTO) -> InvertedIndex:
    """The index stage: index a corpus file and save the index to ``out``."""
    index = build_index(load_corpus(corpus_path), script_policy)
    save_index(index, out)
    return index


def idf(doc_count: int, df: int) -> float:
    return math.log(1.0 + (doc_count - df + 0.5) / (df + 0.5))


def bm25_search(
    index: InvertedIndex,
    query: str,
    k: int,
    params: Bm25Params = Bm25Params(),
) -> list[tuple[str, float]]:
    """Return the top-k (docid, score) pairs for ``query``.

    Only documents with positive score are returned (absent query terms
    contribute nothing), sorted by score descending with ties broken by
    ascending docid.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    terms = sorted(set(tokenize(query, index.script_policy)))
    if not terms:
        return []
    n = index.doc_count
    avgdl = index.avgdl
    if avgdl == 0.0:
        return []
    k1, b = params.k1, params.b
    scores: dict[int, float] = {}
    for term in terms:
        plist = index.postings.get(term)
        if not plist:
            continue
        term_idf = idf(n, len(plist))
        for ordinal, tf in plist:
            norm = k1 * (1.0 - b + b * index.doc_lengths[ordinal] / avgdl)
            scores[ordinal] = scores.get(ordinal, 0.0) + term_idf * tf / (tf + norm)
    ranked = sorted(scores.items(), key=lambda item: (-item[1], index.docids[item[0]]))
    return [(index.docids[ordinal], score) for ordinal, score in ranked[:k]]


def retrieve_bm25(
    index: InvertedIndex, topics_path: str, k: int = DEFAULT_K, params: Bm25Params = Bm25Params(), tag: str = "bm25"
) -> Run:
    """The bm25 stage: the top-k BM25 results of every topic, [] where none match."""
    return Run(entries={q.qid: bm25_search(index, q.text, k, params) for q in load_topics(topics_path)}, tag=tag)


def _write_u32(fh, value: int) -> None:
    fh.write(struct.pack("<I", value))


def _read_u32(fh, path: str) -> int:
    raw = fh.read(4)
    if len(raw) != 4:
        raise FormatError("truncated index file", path=path)
    return struct.unpack("<I", raw)[0]


def _write_str(fh, value: str) -> None:
    data = value.encode("utf-8")
    _write_u32(fh, len(data))
    fh.write(data)


def _read_str(fh, path: str) -> str:
    length = _read_u32(fh, path)
    data = fh.read(length)
    if len(data) != length:
        raise FormatError("truncated index file", path=path)
    return data.decode("utf-8")


def _u32_array(values: Iterable[int]) -> array:
    arr = array("I", values)
    if sys.byteorder == "big":
        arr.byteswap()
    return arr


def _read_u32_array(fh, count: int, path: str) -> array:
    arr = array("I")
    data = fh.read(4 * count)
    if len(data) != 4 * count:
        raise FormatError("truncated index file", path=path)
    arr.frombytes(data)
    if sys.byteorder == "big":
        arr.byteswap()
    return arr


def save_index(index: InvertedIndex, path: str) -> None:
    """Persist the index in the versioned little-endian binary layout.

    Terms are written in sorted order, so two builds over the same stream
    serialize to identical bytes.
    """
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        _write_str(fh, index.script_policy)
        _write_u32(fh, index.doc_count)
        for docid in index.docids:
            _write_str(fh, docid)
        fh.write(_u32_array(index.doc_lengths).tobytes())
        _write_u32(fh, len(index.postings))
        for term in sorted(index.postings):
            plist = index.postings[term]
            _write_str(fh, term)
            _write_u32(fh, len(plist))
            flat: list[int] = []
            for ordinal, tf in plist:
                flat.append(ordinal)
                flat.append(tf)
            fh.write(_u32_array(flat).tobytes())


def load_index(path: str) -> InvertedIndex:
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic == _OLD_MAGIC:
            raise FormatError(f"{_OLD_MAGIC.decode()} index from an older auto tokenization; "
                              "rebuild it with `rankpipe index build`", path=path)
        if magic != _MAGIC:
            raise FormatError(f"not a {_MAGIC.decode()} index file", path=path)
        script_policy = _read_str(fh, path)
        doc_count = _read_u32(fh, path)
        docids = [_read_str(fh, path) for _ in range(doc_count)]
        doc_lengths = list(_read_u32_array(fh, doc_count, path))
        n_terms = _read_u32(fh, path)
        postings: dict[str, list[tuple[int, int]]] = {}
        for _ in range(n_terms):
            term = _read_str(fh, path)
            n_postings = _read_u32(fh, path)
            flat = _read_u32_array(fh, 2 * n_postings, path)
            postings[term] = list(zip(flat[0::2], flat[1::2]))
    return InvertedIndex(postings, doc_lengths, docids, script_policy)
