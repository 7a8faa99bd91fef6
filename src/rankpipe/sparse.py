"""Inverted index construction and BM25 ranked retrieval.

The scoring function is the Lucene-style variant

    score(q, d) = sum over unique query terms t of
        idf(t) * tf(t, d) / (tf(t, d) + k1 * (1 - b + b * dl(d) / avgdl))

with ``idf(t) = ln(1 + (N - df(t) + 0.5) / (df(t) + 0.5))``, which is
nonnegative for every term. Defaults k1=0.9, b=0.4.

An index file (``RPIDX006``) stores the docids, the sorted terms
front-coded, and seven integer columns: the docid sizes, the doc lengths,
the terms' shared-prefix and rest sizes, the dfs, and every term's postings
as d-gaps (the first doc ordinal, then the difference to the one before)
and as term frequencies. Each column takes the narrowest of 1, 2 or 4 bytes
that holds its largest value and is stored as byte planes, every value's
lowest byte first, since deflate finds more repeats in planes than in
interleaved bytes. Everything after the tokenization name is one zlib
stream at ``DEFLATE_LEVEL``; ``save_index`` gives the layout.
"""
from __future__ import annotations

import math
import struct
import sys
import zlib
from array import array
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, compress, repeat, takewhile
from operator import eq, mul, sub

from .corpus import Document, load_corpus, load_topics
from .errors import DataError, FormatError
from .runs import DEFAULT_K, Run, check_k, sort_ranked
from .tokenization import AUTO, tokenize

_MAGIC = b"RPIDX006"
# RPIDX001 segmented auto text by majority script; RPIDX002 spent a u32 on every ordinal and tf;
# RPIDX003 stored ordinals, not d-gaps, at one width per file; RPIDX004 stored whole terms, uncompressed;
# RPIDX005 stored each term's postings at widths of its own, and no tfs where every one was 1
_OLD_MAGICS = {b"RPIDX001": "an older auto tokenization", b"RPIDX002": "an older layout",
               b"RPIDX003": "an older layout", b"RPIDX004": "an older layout", b"RPIDX005": "an older layout"}
# each load compresses again to check. On this layout level 4 deflates the three seed-1 retrieval payloads of
# perfbench to 130,174 bytes in 8.8 ms, level 1 to 137,870 in 6.3 ms; a 20,000-passage payload takes 1,018,284
# bytes in 60 ms against 1,071,376 in 42 ms (zlib 1.2.13, one core of a shared 2-CPU x86-64 box)
DEFLATE_LEVEL = 4
_HEADER = struct.Struct("<7B3I")  # the seven column widths; the doc, term and posting counts
_COLUMNS = ("docid size", "doc length", "shared prefix size", "rest size", "df", "d-gap", "tf")
_TYPECODES = {1: "B", 2: "H", 4: "I"}  # column width in bytes -> array typecode
_U32 = struct.Struct("<I")


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

    # kept for the perfbench/spans.py bm25 hook, which reads it; ROADMAP item 12 frees it
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
    return sort_ranked(list(zip(map(index.docids.__getitem__, scores), scores.values())))[:k]


def retrieve_bm25(
    index: InvertedIndex, topics_path: str, k: int = DEFAULT_K, params: Bm25Params = Bm25Params(), tag: str = "bm25"
) -> Run:
    """The bm25 stage: the top-k BM25 results of every topic, [] where none match."""
    check_k(k)  # before the read, so that a topics file without topics cannot hide a bad k
    topics = load_topics(topics_path)
    return Run(entries={qid: bm25_search(index, text, k, params) for qid, text in topics.items()}, tag=tag)


def _array(values: Iterable[int], width: int) -> array:
    """``values`` (ints to write, or little-endian bytes read) as ``width``-byte
    items, swapped to or from little-endian on a big-endian host."""
    arr = array(_TYPECODES[width], values)
    if sys.byteorder == "big":
        arr.byteswap()
    return arr


def _zero(data: bytes) -> bool:
    return data.count(0) == len(data)


def _planes(values: Iterable[int]) -> tuple[int, bytes]:
    """The width of a column of ``values``, the narrowest of 1, 2 or 4 bytes
    that holds each of them, and the column stored as byte planes: every
    value's lowest byte, then every value's next byte, up to its width."""
    data = _array(values, 4).tobytes()
    planes = [data[plane::4] for plane in range(4)]
    width = 4
    while width > 1 and _zero(b"".join(planes[width // 2:width])):  # the upper half of the planes
        width //= 2
    return width, b"".join(planes[:width])


def save_index(index: InvertedIndex, path: str) -> None:
    """Persist the index as ``RPIDX006``.

    Layout, every integer little-endian: the magic; the tokenization's name
    as a u32 byte count and its UTF-8 bytes; the payload's u32 byte size and
    ``zlib.compress(payload, DEFLATE_LEVEL)``. The payload: seven width
    bytes, one per column below, and the u32 doc, term and posting counts;
    the docids' UTF-8 bytes back to back; per term in sorted order the rest
    of its UTF-8 bytes after the longest prefix it shares with the term
    before, back to back; then the seven columns, each as byte planes
    (``_planes``): the docid byte sizes and the doc lengths (one entry per
    doc), the shared-prefix byte counts, the rest byte sizes and the dfs
    (one per term), and the d-gaps and the tfs of every term in turn (one
    per posting). Each column's width is the narrowest of 1, 2 or 4 bytes
    that holds its largest value, which ``load_index`` checks. Two builds
    over the same documents give the same payload, and with one zlib build
    the same bytes.
    """
    policy = AUTO.encode("utf-8")
    docids = [docid.encode("utf-8") for docid in index.docids]
    terms = sorted(index.postings)
    names = [term.encode("utf-8") for term in terms]
    # the byte count of the longest prefix that each term shares with the term before it
    shared = [sum(takewhile(bool, map(eq, previous, name))) for previous, name in zip([b"", *names], names)]
    rests = [name[size:] for name, size in zip(names, shared)]
    plists = [index.postings[term] for term in terms]
    gaps = list(chain.from_iterable(plist.gaps for plist in plists))
    columns = [map(len, docids), index.doc_lengths, shared, map(len, rests), map(len, plists), gaps,
               list(chain.from_iterable(plist.tfs for plist in plists))]
    widths, planes = zip(*map(_planes, columns))
    payload = b"".join([_HEADER.pack(*widths, index.doc_count, len(terms), len(gaps)), *docids, *rests, *planes])
    with open(path, "wb") as fh:
        fh.write(b"".join([_MAGIC, _U32.pack(len(policy)), policy, _U32.pack(len(payload)),
                           zlib.compress(payload, DEFLATE_LEVEL)]))


def _read_column(data: bytes, pos: int, count: int, width: int, name: str) -> array:
    """The column of ``count`` ``width``-byte values stored as byte planes
    from ``pos``; its upper half of planes must not be all zero, or a
    narrower width would hold it."""
    if width > 1 and _zero(data[pos + count * width // 2:pos + count * width]):
        raise ValueError(f"the {name} column is stored at {width} bytes, wider than its largest value needs")
    column = bytearray(count * width)
    for plane in range(width):
        column[plane::width] = data[pos + plane * count:pos + (plane + 1) * count]
    return _array(column, width)  # a bytearray goes to array.frombytes


def _nonzero(data: bytes, pos: int, count: int, width: int) -> bytes:
    """One byte per value of the column that ``_read_column`` reads, 0
    exactly where the value is 0: the column's planes ORed together, which
    finds zeros without making an int of each value."""
    planes = 0
    for plane in range(width):
        planes |= int.from_bytes(data[pos + plane * count:pos + (plane + 1) * count], "little")
    return planes.to_bytes(count, "little")


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
    """Read an ``RPIDX006`` file; a break of its layout, of its front coding
    or of the invariants of ``Postings``, a column wider than its largest
    value needs, a deflate stream other than the one ``save_index`` writes
    for its payload, or a docid that is empty, holds whitespace or repeats,
    is a ``FormatError`` naming ``path``. So an accepted file is the one
    serialization of what it loads."""
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
        *widths, doc_count, n_terms, n_postings = _HEADER.unpack_from(data)
        if bad := {*widths} - _TYPECODES.keys():
            raise ValueError(f"a column width of {min(bad)} bytes is not 1, 2 or 4")
        counts = (doc_count, doc_count, n_terms, n_terms, n_terms, n_postings, n_postings)
        sizes = list(map(mul, counts, widths))
        offsets = list(accumulate(sizes, initial=len(data) - sum(sizes)))  # the strings end where the columns start
        strings_end = offsets[0]
        if strings_end < _HEADER.size:
            raise EOFError
        docid_sizes, doc_lengths, shared, rest_sizes, dfs, gaps, tfs = map(
            _read_column, repeat(data), offsets, counts, widths, _COLUMNS)
        if sum(dfs) != n_postings:
            raise ValueError(f"the dfs add up to {sum(dfs)} postings, not {n_postings}")
        ends = list(accumulate(rest_sizes, initial=_HEADER.size + sum(docid_sizes)))
        if ends[-1] != strings_end:
            raise ValueError(f"the docids and term rests take {strings_end - _HEADER.size} bytes, "
                             f"not the {ends[-1] - _HEADER.size} that their sizes give")
        docids = _read_strings(data, _HEADER.size, docid_sizes)[0]
        if " ".join(docids).split() != docids:  # each docid is a run line's column, as in validate._run_id
            bad = next(docid for docid in docids if docid.split() != [docid])
            raise ValueError(f"docid {bad!r} is empty or contains whitespace")
        if len(set(docids)) != doc_count:
            raise ValueError("a docid is repeated")
        starts = list(accumulate(dfs, initial=0))
        postings: dict[str, Postings] = {}
        previous = b""
        for start, end, prefix, first, last in zip(ends, ends[1:], shared, starts, starts[1:]):
            suffix = data[start:end]
            # a longest shared prefix, a non-empty rest and sorted order in one test: the rest's
            # first byte is above the previous term's byte at that offset, or the previous term ends there
            if prefix > len(previous) or suffix[:1] <= previous[prefix:prefix + 1]:
                raise ValueError(f"term {len(postings)} is not front-coded in sorted order after the term before it")
            previous = previous[:prefix] + suffix
            term, term_gaps = previous.decode("utf-8"), gaps[first:last]
            postings[term] = Postings(term_gaps, tfs[first:last])
            if sum(term_gaps) >= doc_count and term_gaps:  # the term's last ordinal, if it has postings
                raise ValueError(f"d-gaps of term {term!r} do not give ascending ordinals below {doc_count}")
        # a gap of 0 only where a term's postings start
        gap_nonzero = _nonzero(data, offsets[5], n_postings, widths[5])
        if gap_nonzero.count(0) > bytes(map(gap_nonzero.__getitem__, compress(starts, dfs))).count(0):
            bad = next(term for term, plist in postings.items() if 0 in plist.gaps[1:])
            raise ValueError(f"d-gaps of term {bad!r} do not give ascending ordinals below {doc_count}")
        if (zero := _nonzero(data, offsets[6], n_postings, widths[6]).find(0)) >= 0:
            bad = list(postings)[bisect_right(starts, zero) - 1]
            raise ValueError(f"term {bad!r} has a term frequency of 0")
    except (EOFError, struct.error):  # unpack_from raises struct.error past the end
        raise FormatError("truncated index file", path=path) from None
    except UnicodeDecodeError:
        raise FormatError("a docid or term is not valid UTF-8", path=path) from None
    except (ValueError, zlib.error) as exc:  # a check above, or zlib, names what the file breaks
        raise FormatError(str(exc), path=path) from None
    return InvertedIndex(postings, doc_lengths, docids)
