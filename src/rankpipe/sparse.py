"""Inverted index construction and BM25 ranked retrieval.

The scoring function is the Lucene-style variant

    score(q, d) = sum over unique query terms t of
        idf(t) * tf(t, d) / (tf(t, d) + k1 * (1 - b + b * dl(d) / avgdl))

with ``idf(t) = ln(1 + (N - df(t) + 0.5) / (df(t) + 0.5))``, which is
nonnegative for every term. Defaults k1=0.9, b=0.4.

An index file (``RPIDX005``) stores each term's postings as d-gaps (the
first doc ordinal, then the difference to the one before) and term
frequencies, each column at the narrowest of 1, 2 or 4 bytes that holds its
largest value, the tfs not at all where every one is 1. The sorted terms
are front-coded, and everything after the tokenization name is one zlib
stream at ``DEFLATE_LEVEL``; ``save_index`` gives the layout.
"""
from __future__ import annotations

import math
import struct
import sys
import zlib
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate, takewhile
from operator import eq, sub

from .corpus import Document, load_corpus, load_topics
from .errors import DataError, FormatError
from .runs import DEFAULT_K, Run, check_k
from .tokenization import AUTO, tokenize

_MAGIC = b"RPIDX005"
# RPIDX001 segmented auto text by majority script; RPIDX002 spent a u32 on every ordinal and tf;
# RPIDX003 stored ordinals, not d-gaps, at one width per file; RPIDX004 stored whole terms, uncompressed
_OLD_MAGICS = {b"RPIDX001": "an older auto tokenization", b"RPIDX002": "an older layout",
               b"RPIDX003": "an older layout", b"RPIDX004": "an older layout"}
DEFLATE_LEVEL = 1  # each load compresses again to check; level 6 writes 7% fewer bytes at 3 times the time
_HEADER = struct.Struct("<4BI")  # the widths of doc lengths, docid sizes, term sizes and dfs; the doc count
_TYPECODES = {1: "B", 2: "H", 4: "I"}  # column width in bytes -> array typecode
_U32 = struct.Struct("<I")
_ONE = array("B", b"\x01")  # the tf of a posting whose term stores no tfs


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 0.9
    b: float = 0.4

    def __post_init__(self) -> None:
        if not (math.isfinite(self.k1) and self.k1 > 0):  # nan > 0 is False too
            raise ValueError("k1 must be finite and > 0")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must be in [0, 1]")


@dataclass(slots=True, eq=False)  # a list column and an array column never compare equal
class Postings:
    """One term's postings as two equal-length columns: d-gaps, the first
    doc ordinal and then each ordinal minus the one before (so every gap
    after the first is >= 1), and the term's frequency (>= 1) in each
    document; lists when built, arrays when loaded. ``len()`` is the term's
    document frequency, and iterating yields (ordinal, tf) pairs."""

    gaps: Sequence[int]
    tfs: Sequence[int]

    def __len__(self) -> int:
        return len(self.gaps)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(accumulate(self.gaps), self.tfs)


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
            plist.gaps.append(ordinal)  # an ordinal until the stream ends
            plist.tfs.append(tf)
    if not docids:
        raise DataError("cannot build an index from an empty corpus")
    for plist in postings.values():
        ordinals = plist.gaps
        plist.gaps = [ordinals[0], *map(sub, ordinals[1:], ordinals)]
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
    check_k(k)
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
    check_k(k)  # before the read, so that a topics file without topics cannot hide a bad k
    topics = load_topics(topics_path)
    return Run(entries={qid: bm25_search(index, text, k, params) for qid, text in topics.items()}, tag=tag)


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


def _postings_width(plist: Postings) -> int:
    """A term's postings-width byte: its tf width << 4 | its gap width, with
    a tf width of 0 where every tf is 1 and none is stored."""
    top = max(plist.tfs, default=1)
    return (top > 1 and _width(top)) << 4 | _width(max(plist.gaps, default=0))


def save_index(index: InvertedIndex, path: str) -> None:
    """Persist the index as ``RPIDX005``.

    Layout, every integer little-endian: the magic; the tokenization's name
    as a u32 byte count and its UTF-8 bytes; the payload's u32 byte size and
    ``zlib.compress(payload, DEFLATE_LEVEL)``. The payload: four width bytes
    (doc lengths, docid sizes, term sizes, dfs) and a u32 doc count; the
    docid sizes, the docids' UTF-8 bytes back to back and the doc lengths; a
    u32 term count, then per term in sorted order the byte count of its
    longest prefix shared with the term before and the byte size of its
    rest, both at the term-size width, its df and its postings-width byte,
    each as one column, and the rests back to back; then per term its df
    d-gaps and, unless its tf width is 0, its df tfs. Each column's width is
    the narrowest of 1, 2 or 4 bytes that holds its largest value (for the
    term sizes, the longest term's). Nothing follows the last term. Two
    builds over the same documents give the same payload, and with one zlib
    build the same bytes. ``load_index`` does not check the widths, so a
    payload with a column wider than that loads and saves back narrower.
    """
    policy = AUTO.encode("utf-8")
    docids = [docid.encode("utf-8") for docid in index.docids]
    terms = sorted(index.postings)
    names = [term.encode("utf-8") for term in terms]
    # the byte count of the longest prefix that each term shares with the term before it
    shared = [sum(takewhile(bool, map(eq, previous, name))) for previous, name in zip([b"", *names], names)]
    suffixes = [name[size:] for name, size in zip(names, shared)]
    plists = [index.postings[term] for term in terms]
    docid_sizes, term_sizes, dfs = list(map(len, docids)), list(map(len, names)), list(map(len, plists))
    widths = [_width(max(column, default=0)) for column in (index.doc_lengths, docid_sizes, term_sizes, dfs)]
    length_w, docid_w, term_w, df_w = widths
    postings_widths = bytes(map(_postings_width, plists))
    chunks: list = [_HEADER.pack(*widths, index.doc_count), _array(docid_sizes, docid_w), *docids,
                    _array(index.doc_lengths, length_w), _U32.pack(len(terms)), _array(shared, term_w),
                    _array(map(len, suffixes), term_w), _array(dfs, df_w), postings_widths, *suffixes]
    for plist, width in zip(plists, postings_widths):
        chunks.append(_array(plist.gaps, width & 15))
        if width >> 4:
            chunks.append(_array(plist.tfs, width >> 4))
    payload = b"".join(chunks)
    with open(path, "wb") as fh:
        fh.write(b"".join([_MAGIC, _U32.pack(len(policy)), policy, _U32.pack(len(payload)),
                           zlib.compress(payload, DEFLATE_LEVEL)]))


def _read_column(data: bytes, pos: int, count: int, width: int) -> tuple[array, int]:
    """``count`` values of ``width`` bytes from ``pos``, and the offset after them."""
    if width not in _TYPECODES:
        raise ValueError(f"a column width of {width} bytes is not 1, 2 or 4")
    end = pos + count * width
    if end > len(data):
        raise EOFError
    return _array(data[pos:end], width), end  # bytes go to array.frombytes


def _read_strings(data: bytes, pos: int, sizes: Iterable[int]) -> tuple[list[str], int]:
    """Strings of the given byte ``sizes`` stored back to back from ``pos``, and the offset after them."""
    ends = list(accumulate(sizes, initial=pos))
    if ends[-1] > len(data):
        raise EOFError
    return [data[start:end].decode("utf-8") for start, end in zip(ends, ends[1:])], ends[-1]


def _inflate(stream: bytes, size: int) -> bytes:
    """The ``size``-byte payload in ``stream``, if the stream is exactly what ``save_index`` writes for it."""
    if size > 1032 * len(stream):  # deflate's largest ratio: no stream this long inflates to more
        raise ValueError(f"a payload of {size} bytes cannot inflate from {len(stream)} bytes")
    inflater = zlib.decompressobj()
    payload = inflater.decompress(stream)
    if not inflater.eof or inflater.unused_data or len(payload) != size:
        raise ValueError(f"the deflate stream does not end at the end of the file with a payload of {size} bytes")
    if zlib.compress(payload, DEFLATE_LEVEL) != stream:  # also a padding bit flipped in the last deflate byte
        raise ValueError(f"the deflate stream is not the one this zlib ({zlib.ZLIB_RUNTIME_VERSION}) writes "
                         f"at level {DEFLATE_LEVEL}; rebuild it with `rankpipe index build`")
    return payload


def load_index(path: str) -> InvertedIndex:
    """Read an ``RPIDX005`` file; a break of its layout, of its front coding
    or of the invariants of ``Postings``, a deflate stream other than the
    one ``save_index`` writes for its payload, or a docid that is empty,
    holds whitespace or repeats, is a ``FormatError`` naming ``path``."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:len(_MAGIC)]
    if magic in _OLD_MAGICS:
        raise FormatError(f"{magic.decode()} index from {_OLD_MAGICS[magic]}; "
                          "rebuild it with `rankpipe index build`", path=path)
    if magic != _MAGIC:
        raise FormatError(f"not a {_MAGIC.decode()} index file", path=path)
    try:
        (policy,), pos = _read_strings(data, len(_MAGIC) + 4, _U32.unpack_from(data, len(_MAGIC)))
        if policy != AUTO:
            raise FormatError(f"index tokenized by {policy!r}, not {AUTO!r}; "
                              "rebuild it with `rankpipe index build`", path=path)
        data = _inflate(data[pos + 4:], *_U32.unpack_from(data, pos))
        length_w, docid_w, term_w, df_w, doc_count = _HEADER.unpack_from(data)
        docid_sizes, pos = _read_column(data, _HEADER.size, doc_count, docid_w)
        docids, pos = _read_strings(data, pos, docid_sizes)
        doc_lengths, pos = _read_column(data, pos, doc_count, length_w)
        (n_terms,) = _U32.unpack_from(data, pos)
        shared, pos = _read_column(data, pos + 4, n_terms, term_w)
        suffix_sizes, pos = _read_column(data, pos, n_terms, term_w)
        dfs, pos = _read_column(data, pos, n_terms, df_w)
        postings_widths, pos = _read_column(data, pos, n_terms, 1)
        ends = list(accumulate(suffix_sizes, initial=pos))
        pos = ends[-1]  # if that is past the end, the first postings read raises EOFError before a rest is read
        if " ".join(docids).split() != docids:  # each docid is a run line's column, as in validate._run_id
            bad = next(docid for docid in docids if docid.split() != [docid])
            raise ValueError(f"docid {bad!r} is empty or contains whitespace")
        if len(set(docids)) != doc_count:
            raise ValueError("a docid is repeated")
        postings: dict[str, Postings] = {}
        previous = b""
        for start, end, prefix, df, width in zip(ends, ends[1:], shared, dfs, postings_widths):
            gaps, pos = _read_column(data, pos, df, width & 15)
            tfs, pos = _read_column(data, pos, df, width >> 4) if width >> 4 else (_ONE * df, pos)
            suffix = data[start:end]
            # a longest shared prefix, a non-empty rest and sorted order in one test: the rest's
            # first byte is above the previous term's byte at that offset, or the previous term ends there
            if prefix > len(previous) or suffix[:1] <= previous[prefix:prefix + 1]:
                raise ValueError(f"term {len(postings)} is not front-coded in sorted order after the term before it")
            previous = previous[:prefix] + suffix
            term = previous.decode("utf-8")
            postings[term] = Postings(gaps, tfs)
            if df and (0 in gaps[1:] or sum(gaps) >= doc_count):
                raise ValueError(f"d-gaps of term {term!r} do not give ascending ordinals below {doc_count}")
            if 0 in tfs:
                raise ValueError(f"term {term!r} has a term frequency of 0")
    except (EOFError, struct.error):  # unpack_from raises struct.error past the end
        raise FormatError("truncated index file", path=path) from None
    except UnicodeDecodeError:
        raise FormatError("a docid or term is not valid UTF-8", path=path) from None
    except (ValueError, zlib.error) as exc:  # a check above, or zlib, names what the file breaks
        raise FormatError(str(exc), path=path) from None
    if pos != len(data):
        raise FormatError(f"{len(data) - pos} bytes after the last term", path=path)
    return InvertedIndex(postings, doc_lengths, docids)
