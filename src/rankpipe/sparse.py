"""Inverted index construction and BM25 ranked retrieval.

The scoring function is the Lucene-style variant

    score(q, d) = sum over unique query terms t of
        idf(t) * tf(t, d) / (tf(t, d) + k1 * (1 - b + b * dl(d) / avgdl))

with ``idf(t) = ln(1 + (N - df(t) + 0.5) / (df(t) + 0.5))``, which is
nonnegative for every term. Defaults k1=0.9, b=0.4.

An index file (``RPIDX003``) stores each term's postings as two columns,
doc ordinals then term frequencies, each value at the narrowest of 1, 2 or
4 bytes that holds the file's largest; ``save_index`` gives the layout.
"""
from __future__ import annotations

import math
import struct
import sys
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from operator import lt

from .corpus import Document, load_corpus, load_topics
from .errors import DataError, FormatError
from .runs import DEFAULT_K, Run
from .tokenization import AUTO, tokenize

_MAGIC = b"RPIDX003"
# RPIDX001 segmented auto text by majority script; RPIDX002 spent a u32 on every ordinal and tf
_OLD_MAGICS = {b"RPIDX001": "an older auto tokenization", b"RPIDX002": "an older layout"}
_HEADER = struct.Struct("<3BI")  # the widths of doc lengths, ordinals and tfs; the doc count
_TYPECODES = {1: "B", 2: "H", 4: "I"}  # column width in bytes -> array typecode
_U32 = struct.Struct("<I")


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 0.9
    b: float = 0.4

    def __post_init__(self) -> None:
        if self.k1 <= 0:
            raise ValueError("k1 must be > 0")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must be in [0, 1]")


@dataclass(slots=True, eq=False)  # a list column and an array column never compare equal
class Postings:
    """One term's postings as two equal-length columns: the ascending doc
    ordinals, and the term's frequency (>= 1) in each document; lists when
    built, arrays when loaded. ``len()`` is the term's document frequency,
    and iterating yields (ordinal, tf) pairs."""

    ordinals: Sequence[int]
    tfs: Sequence[int]

    def __len__(self) -> int:
        return len(self.ordinals)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self.ordinals, self.tfs)


class InvertedIndex:
    """Immutable term -> ``Postings`` map over a fixed document collection.

    Document ordinals index ``docids`` and the ``doc_lengths`` column
    (tokens per document; a list when built, the array read when loaded).
    A term's postings hold each document at most once, so their length is
    the term's document frequency.
    """

    # kept for the perfbench/spans.py bm25 hook, which reads it; ROADMAP item 1 frees it
    script_policy = AUTO

    def __init__(self, postings: dict[str, Postings], doc_lengths: Sequence[int], docids: list[str]):
        self.postings = postings
        self.doc_lengths = doc_lengths
        self.docids = docids
        self.avgdl = sum(doc_lengths) / len(doc_lengths) if doc_lengths else 0.0

    @property
    def doc_count(self) -> int:
        return len(self.doc_lengths)


def build_index(documents: Iterable[Document]) -> InvertedIndex:
    """Build an inverted index; the indexed text is ``title + " " + text``.

    Rejects duplicate docids and an empty document stream.
    """
    postings: dict[str, Postings] = {}
    doc_lengths: list[int] = []
    docids: list[str] = []
    seen: set[str] = set()
    for doc in documents:
        if doc.docid in seen:
            raise DataError(f"duplicate docid {doc.docid!r}")
        seen.add(doc.docid)
        ordinal = len(docids)
        docids.append(doc.docid)
        tokens = tokenize(f"{doc.title} {doc.text}")
        doc_lengths.append(len(tokens))
        for term, tf in Counter(tokens).items():
            plist = postings.get(term)
            if plist is None:
                plist = postings[term] = Postings([], [])
            plist.ordinals.append(ordinal)
            plist.tfs.append(tf)
    if not docids:
        raise DataError("cannot build an index from an empty corpus")
    return InvertedIndex(postings, doc_lengths, docids)


def index_corpus(corpus_path: str, out: str) -> InvertedIndex:
    """The index stage: index a corpus file and save the index to ``out``."""
    index = build_index(load_corpus(corpus_path))
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
    terms = sorted(set(tokenize(query)))
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


def _width(largest: int) -> int:
    """The narrowest column width that holds every value up to ``largest``."""
    return 1 if largest < 1 << 8 else 2 if largest < 1 << 16 else 4


def _array(values: Iterable[int], width: int) -> array:
    """``values`` (ints to write, or little-endian bytes read) as ``width``-byte
    items, swapped to or from little-endian on a big-endian host."""
    arr = array(_TYPECODES[width], values)
    if sys.byteorder == "big":
        arr.byteswap()
    return arr


def save_index(index: InvertedIndex, path: str) -> None:
    """Persist the index as ``RPIDX003``.

    Layout: the magic; the tokenization's name; three width bytes (doc
    lengths, ordinals, tfs); a u32 doc count, the docids and the doc lengths;
    a u32 term count and, per term in sorted order, its name, a u32 df, its
    df ordinals and its df tfs. A string is a u32 byte count and its UTF-8
    bytes. Nothing follows the last term, and two builds over the same
    stream serialize to identical bytes.
    """
    length_w = _width(max(index.doc_lengths, default=0))
    ordinal_w = _width(index.doc_count - 1)
    tf_w = _width(max((max(plist.tfs, default=0) for plist in index.postings.values()), default=0))
    u32 = _U32.pack
    policy = AUTO.encode("utf-8")
    chunks: list = [_MAGIC, u32(len(policy)), policy, _HEADER.pack(length_w, ordinal_w, tf_w, index.doc_count)]
    for docid in index.docids:
        name = docid.encode("utf-8")
        chunks += (u32(len(name)), name)
    chunks += (_array(index.doc_lengths, length_w), u32(len(index.postings)))
    for term in sorted(index.postings):
        plist = index.postings[term]
        name = term.encode("utf-8")
        ordinals = _array(plist.ordinals, ordinal_w)
        chunks += (u32(len(name)), name, u32(len(ordinals)), ordinals, _array(plist.tfs, tf_w))
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def _strings(data: bytes, pos: int, count: int) -> tuple[list[str], int]:
    """``count`` strings stored back to back from ``pos``, and the offset after them."""
    strings = []
    for _ in range(count):
        (size,) = _U32.unpack_from(data, pos)
        start, pos = pos + 4, pos + 4 + size
        if pos > len(data):
            raise EOFError
        strings.append(data[start:pos].decode("utf-8"))
    return strings, pos


def load_index(path: str) -> InvertedIndex:
    """Read an ``RPIDX003`` file; a break of its layout or of the invariants
    of ``Postings`` is a ``FormatError`` naming ``path``."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:len(_MAGIC)]
    if magic in _OLD_MAGICS:
        raise FormatError(f"{magic.decode()} index from {_OLD_MAGICS[magic]}; "
                          "rebuild it with `rankpipe index build`", path=path)
    if magic != _MAGIC:
        raise FormatError(f"not a {_MAGIC.decode()} index file", path=path)
    end = len(data)
    u32 = _U32.unpack_from
    try:
        (policy,), pos = _strings(data, len(_MAGIC), 1)
        if policy != AUTO:
            raise FormatError(f"index tokenized by {policy!r}, not {AUTO!r}; "
                              "rebuild it with `rankpipe index build`", path=path)
        length_w, ordinal_w, tf_w, doc_count = _HEADER.unpack_from(data, pos)
        if not {length_w, ordinal_w, tf_w} <= _TYPECODES.keys():
            raise FormatError(f"column widths {length_w, ordinal_w, tf_w} are not each 1, 2 or 4 bytes", path=path)
        docids, pos = _strings(data, pos + _HEADER.size, doc_count)
        start, pos = pos, pos + doc_count * length_w
        if pos > end:
            raise EOFError
        doc_lengths = _array(data[start:pos], length_w)  # bytes go to array.frombytes
        (n_terms,) = u32(data, pos)
        pos += 4
        postings: dict[str, Postings] = {}
        previous = ""
        for _ in range(n_terms):
            (size,) = u32(data, pos)
            start, pos = pos + 4, pos + 4 + size
            if pos > end:
                raise EOFError
            term = data[start:pos].decode("utf-8")
            if term <= previous:
                raise FormatError(f"term {term!r} is out of sorted order or repeated", path=path)
            previous = term
            (df,) = u32(data, pos)
            start = pos + 4
            middle = start + df * ordinal_w
            pos = middle + df * tf_w
            if pos > end:
                raise EOFError
            ordinals = _array(data[start:middle], ordinal_w)
            tfs = _array(data[middle:pos], tf_w)
            if df and (ordinals[-1] >= doc_count or (df > 1 and not all(map(lt, ordinals, ordinals[1:])))):
                raise FormatError(f"ordinals of term {term!r} are not ascending below {doc_count}", path=path)
            if 0 in tfs:
                raise FormatError(f"term {term!r} has a term frequency of 0", path=path)
            postings[term] = Postings(ordinals, tfs)
    except (EOFError, struct.error):  # unpack_from raises struct.error past the end
        raise FormatError("truncated index file", path=path) from None
    except UnicodeDecodeError:
        raise FormatError("a docid or term is not valid UTF-8", path=path) from None
    if pos != end:
        raise FormatError(f"{end - pos} bytes after the last term", path=path)
    return InvertedIndex(postings, doc_lengths, docids)
