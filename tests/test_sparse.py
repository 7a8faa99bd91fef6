import math
import struct
import tempfile
import zlib
from collections import Counter
from os.path import commonprefix
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import oracle_bm25, random_corpus
from rankpipe.cli import main
from rankpipe.corpus import Document
from rankpipe.errors import DataError, FormatError
from rankpipe.sparse import (
    DEFLATE_LEVEL, Bm25Params, InvertedIndex, Postings, bm25_search, build_index, idf, load_index, save_index,
)
from rankpipe.tokenization import tokenize


def oracle_postings(docs: list[Document]) -> dict[str, list[tuple[int, int]]]:
    """Each term's (ordinal, tf) pairs, counted from the indexed text."""
    expected: dict[str, list[tuple[int, int]]] = {}
    for ordinal, doc in enumerate(docs):
        for term, tf in Counter(tokenize(doc.title + " " + doc.text)).items():
            expected.setdefault(term, []).append((ordinal, tf))
    return expected


def pairs(index: InvertedIndex) -> dict[str, list[tuple[int, int]]]:
    return {term: list(plist) for term, plist in index.postings.items()}


def gaps(ordinals: list[int]) -> list[int]:
    """The first ordinal, then each ordinal minus the one before."""
    return [b - a for a, b in zip([0, *ordinals], ordinals)]


COLUMNS = ("docid_sizes", "doc_lengths", "shared", "rest_sizes", "dfs", "gaps", "tfs")


def fields(index: InvertedIndex) -> dict:
    """The docid bytes, the term rests and the seven columns of ``index``'s
    payload, found from its docids, terms and postings as the layout says."""
    names = sorted(term.encode("utf-8") for term in index.postings)
    shared = [len(commonprefix([previous, name])) for previous, name in zip([b"", *names], names)]
    rests = [name[size:] for name, size in zip(names, shared)]
    plists = [index.postings[name.decode("utf-8")] for name in names]
    docids = [docid.encode("utf-8") for docid in index.docids]
    return {"docids": b"".join(docids), "rests": b"".join(rests), "docid_sizes": [len(d) for d in docids],
            "doc_lengths": list(index.doc_lengths), "shared": shared, "rest_sizes": [len(r) for r in rests],
            "dfs": [len(p) for p in plists], "gaps": [g for p in plists for g in p.gaps],
            "tfs": [tf for p in plists for tf in p.tfs]}


def narrowest(values: list[int]) -> int:
    top = max(values, default=0)
    return 1 if top < 256 else 2 if top < 65_536 else 4


def payload(index: InvertedIndex | None = None, widths: dict[str, int] | None = None,
            counts: tuple[int, int, int] | None = None, **replaced) -> bytes:
    """An ``RPIDX006`` payload of ``index`` (the tiny index if not given) with
    the ``replaced`` fields in place of its own: seven width bytes (each
    column's narrowest, or its entry in ``widths``), the u32 doc, term and
    posting counts (``counts``, or the columns' lengths), the docid bytes,
    the rests, and each column as byte planes at its width, each value cut
    to that many low bytes."""
    f = {**fields(TINY_INDEX if index is None else index), **replaced}
    sizes = {name: narrowest(f[name]) for name in COLUMNS} | (widths or {})
    counts = counts or (len(f["doc_lengths"]), len(f["dfs"]), len(f["gaps"]))
    planes = []
    for name in COLUMNS:
        width = sizes[name]
        column = b"".join((value % 256**width).to_bytes(width, "little") for value in f[name])
        planes += [column[plane::width] for plane in range(width)]
    return b"".join([bytes(sizes[name] for name in COLUMNS), struct.pack("<3I", *counts), f["docids"], f["rests"],
                     *planes])


def header_widths(path) -> dict[str, int]:
    """The seven column widths at the start of the file's payload."""
    return dict(zip(COLUMNS, zlib.decompress(path.read_bytes()[20:])[:7]))  # after magic, tokenization, size


def index_file(payload: bytes, level: int = DEFLATE_LEVEL, size: int | None = None) -> bytes:
    """An ``RPIDX006`` file: the uncompressed header, with ``size`` in place
    of the payload's size if given, and ``payload`` deflated at ``level``."""
    size = len(payload) if size is None else size
    return b"".join([b"RPIDX006", struct.pack("<I", 4), b"auto", struct.pack("<I", size),
                     zlib.compress(payload, level)])


TINY_INDEX = build_index([Document("d1", "", "ab a ab"), Document("doc2", "", "ab b")])
# its payload: terms a, ab and b; ab shares a's byte
TINY_PAYLOAD = b"".join([
    bytes([1, 1, 1, 1, 1, 1, 1]), struct.pack("<3I", 2, 3, 4),  # widths; doc, term and posting counts
    b"d1doc2", b"a" b"b" b"b",  # docids, term rests
    bytes([2, 4]), bytes([3, 2]),  # docid sizes, doc lengths
    bytes([0, 1, 0]), bytes([1, 1, 1]), bytes([1, 2, 1]),  # shared prefix sizes, rest sizes, dfs
    bytes([0, 0, 1, 1]), bytes([1, 2, 1, 1]),  # d-gaps (a: 0; ab: 0, 1; b: 1), tfs
])


# 65,537 documents; (ordinals, tfs) per term: between them every gap and tf width (1, 2, 4)
ALL_WIDTHS = {
    "a": ([0, 65_536], [1, 1]),
    "b": ([300, 301], [2, 256]),
    "c": ([5], [70_000]),
    "d": ([1, 2], [3, 1]),
}


def edge_index(column: str, top: int) -> InvertedIndex:
    """A small index whose ``column`` holds ``top`` as its largest value; the
    other columns stay below 256, but for the rest sizes beside a shared
    prefix of ``top`` bytes."""
    docids, lengths = ["d0", "d1"], [1, 2]
    postings = {"a": Postings([0], [1]), "b": Postings([0, 1], [1, 1])}
    if column == "docid_sizes":
        docids[0] = "d" * top
    elif column == "doc_lengths":
        lengths[0] = top
    elif column in ("shared", "rest_sizes"):  # "x" * top: its rest; "x" * top + "y": a prefix of top bytes
        postings = {"x" * top: Postings([0], [1]), "x" * top + "y": Postings([1], [1])}
    elif column == "dfs":
        docids, lengths = [f"d{i}" for i in range(top)], [1] * top
        postings = {"a": Postings([0] + [1] * (top - 1), [1] * top)}
    elif column == "gaps":
        docids, lengths = [f"d{i}" for i in range(top + 1)], [1] * (top + 1)
        postings = {"a": Postings([top], [1])}
    else:
        postings["a"] = Postings([0], [top])
    return InvertedIndex(postings, lengths, docids)


# shared prefixes that end inside a character (é and ê share the byte 0xC3) and after one (北京, 北海)
_TERMS = st.text(alphabet="abéê", min_size=1, max_size=3) | st.sampled_from(["文", "字", "北", "北京", "北海"])
# (ordinals, tfs) of terms that are prefixes of the next or share part of a character with it
PREFIX_TERMS = {"a": ([0], [1]), "ab": ([1], [2]), "abé": ([0, 2], [1, 1]), "abê": ([2], [3]), "é": ([1], [1]),
                "éa": ([0], [1]), "ê": ([2], [1]), "北": ([0], [1]), "北京": ([1], [1]),
                "北海": ([0, 1], [2, 2])}
_TFS = st.integers(1, 3) | st.sampled_from([255, 256, 65_535, 65_536, 70_000])


@st.composite
def random_postings(draw) -> tuple[list[str], list[int], dict[str, tuple[list[int], list[int]]]]:
    """Docids, doc lengths and each term's ascending ordinals and tfs."""
    doc_count = draw(st.integers(1, 300) | st.sampled_from([256, 257, 65_536, 65_537]))
    prefix = draw(st.sampled_from(["d", "文档", "é-"]))
    top = draw(st.integers(0, 70_000))
    postings = {}
    for term in draw(st.sets(_TERMS, min_size=1, max_size=5)):
        ordinals = draw(st.sets(st.integers(0, doc_count - 1) | st.sampled_from([0, doc_count - 1]), min_size=1,
                                max_size=6))
        tfs = draw(st.just([1] * len(ordinals)) | st.lists(_TFS, min_size=len(ordinals), max_size=len(ordinals)))
        postings[term] = (sorted(ordinals), tfs)
    return [f"{prefix}{i}" for i in range(doc_count)], [i * 7919 % (top + 1) for i in range(doc_count)], postings


class TestBuildIndex:
    def test_avgdl_and_doc_count(self):
        docs = [Document("d1", "", "a b c"), Document("d2", "", "a b c d e")]
        index = build_index(docs)
        assert index.doc_count == 2
        assert index.avgdl == 4.0

    def test_df_equals_postings_length(self):
        docs = [Document("d1", "", "a b"), Document("d2", "", "a c")]
        index = build_index(docs)
        for term, plist in index.postings.items():
            assert len(plist) == sum(term in (doc.title + " " + doc.text).split() for doc in docs)
        assert len(index.postings["a"]) == 2 and len(index.postings["b"]) == 1

    def test_title_is_indexed(self):
        index = build_index([Document("d1", "hello", "world")])
        assert "hello" in index.postings and "world" in index.postings

    def test_postings_sorted_by_ordinal_once_per_doc(self):
        rng = np.random.default_rng(3)
        index = build_index(random_corpus(rng, 40))
        for term, plist in index.postings.items():
            ordinals = [o for o, _ in plist]
            assert ordinals == sorted(set(ordinals))

    def test_duplicate_docid_rejected(self):
        docs = [Document("d1", "", "a"), Document("d1", "", "b")]
        with pytest.raises(DataError, match="d1"):
            build_index(docs)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            build_index([])

    def test_deterministic_serialization(self, tmp_path):
        rng = np.random.default_rng(11)
        docs = random_corpus(rng, 25)
        save_index(build_index(docs), str(tmp_path / "a.idx"))
        save_index(build_index(docs), str(tmp_path / "b.idx"))
        assert (tmp_path / "a.idx").read_bytes() == (tmp_path / "b.idx").read_bytes()


class TestBm25Search:
    def test_worked_single_doc_value(self):
        # score = idf * tf / (tf + k1*(1 - b + b*dl/avgdl))
        #       = ln(1 + 0.5/1.5) * 1 / (1 + 0.9*(0.6 + 0.4*2/2)) = ln(4/3)/1.9
        index = build_index([Document("d1", "", "a b")])
        results = bm25_search(index, "a", 5, Bm25Params(k1=0.9, b=0.4))
        assert len(results) == 1
        assert results[0][0] == "d1"
        assert results[0][1] == pytest.approx(math.log(4 / 3) / 1.9, abs=1e-12)

    def test_absent_term_contributes_nothing(self):
        index = build_index([Document("d1", "", "a b"), Document("d2", "", "b c")])
        base = bm25_search(index, "a", 5)
        with_unknown = bm25_search(index, "a zzz", 5)
        assert with_unknown == base

    def test_empty_query_returns_empty(self):
        index = build_index([Document("d1", "", "a")])
        assert bm25_search(index, "...", 5) == []

    def test_repeated_query_terms_count_once(self):
        index = build_index([Document("d1", "", "a b"), Document("d2", "", "a a")])
        assert bm25_search(index, "a", 5) == bm25_search(index, "a a a", 5)

    def test_only_positive_scores_returned(self):
        index = build_index([Document("d1", "", "a b"), Document("d2", "", "c d")])
        results = bm25_search(index, "a", 10)
        assert [docid for docid, _ in results] == ["d1"]

    def test_matches_exhaustive_oracle_on_random_corpora(self):
        rng = np.random.default_rng(42)
        for trial in range(10):
            docs = random_corpus(rng, int(rng.integers(5, 60)))
            index = build_index(docs)
            for _ in range(5):
                terms = rng.choice(35, size=rng.integers(1, 4), replace=False)
                query = " ".join(f"w{t}" for t in terms)
                k = int(rng.integers(1, 20))
                expected = oracle_bm25(docs, query)[:k]
                got = bm25_search(index, query, k)
                assert [d for d, _ in got] == [d for d, _ in expected]
                for (_, s_got), (_, s_exp) in zip(got, expected):
                    assert s_got == pytest.approx(s_exp, abs=1e-9)

    def test_scores_invariant_under_insertion_order(self):
        rng = np.random.default_rng(5)
        docs = random_corpus(rng, 30)
        shuffled = list(docs)
        rng.shuffle(shuffled)
        a = bm25_search(build_index(docs), "w1 w2 w3", 30)
        b = bm25_search(build_index(shuffled), "w1 w2 w3", 30)
        assert a == b

    def test_tie_break_ascending_docid(self):
        docs = [Document("d2", "", "a x"), Document("d1", "", "a y")]
        results = bm25_search(build_index(docs), "a", 5)
        assert [d for d, _ in results] == ["d1", "d2"]
        assert results[0][1] == results[1][1]

    def test_k_validated(self):
        index = build_index([Document("d1", "", "a")])
        with pytest.raises(ValueError):
            bm25_search(index, "a", 0)


class TestScoreProperties:
    def test_idf_nonnegative(self):
        for n in (1, 2, 10, 1000):
            for df in range(1, n + 1):
                assert idf(n, df) >= 0.0

    def test_term_contribution_monotone_in_tf(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            k1 = rng.uniform(0.1, 3.0)
            b = rng.uniform(0.0, 1.0)
            dl = rng.uniform(1, 50)
            avgdl = rng.uniform(1, 50)
            norm = k1 * (1 - b + b * dl / avgdl)
            contributions = [tf / (tf + norm) for tf in range(1, 20)]
            assert all(x2 >= x1 for x1, x2 in zip(contributions, contributions[1:]))


class TestBm25Params:
    def test_defaults(self):
        params = Bm25Params()
        assert (params.k1, params.b) == (0.9, 0.4)

    @pytest.mark.parametrize(
        "k1,b", [(0.0, 0.4), (-1.0, 0.4), (float("nan"), 0.4), (float("inf"), 0.4), (0.9, -0.1), (0.9, 1.1)]
    )
    def test_invalid_rejected(self, k1, b):
        with pytest.raises(ValueError):
            Bm25Params(k1=k1, b=b)


class TestPersistence:
    def test_round_trip_preserves_search(self, tmp_path):
        rng = np.random.default_rng(21)
        docs = random_corpus(rng, 40) + [Document("zh", "北京 Flights", "到北京 w3")]
        expected = oracle_postings(docs)
        index = build_index(docs)
        path = tmp_path / "corpus.rpidx"
        save_index(index, str(path))
        loaded = load_index(str(path))
        assert pairs(index) == expected
        assert pairs(loaded) == expected
        assert list(loaded.postings) == sorted(expected)  # the file keeps terms sorted
        assert list(loaded.doc_lengths) == index.doc_lengths and loaded.docids == index.docids
        for query in ("w0", "w1 w5", "w2 w3 w29", "北京 flights"):
            assert bm25_search(loaded, query, 15) == bm25_search(index, query, 15)

    def test_layout(self, tmp_path):
        path = tmp_path / "tiny.rpidx"
        save_index(TINY_INDEX, str(path))
        assert zlib.decompress(path.read_bytes()[20:]) == TINY_PAYLOAD == payload()
        assert path.read_bytes() == index_file(TINY_PAYLOAD)

    @pytest.mark.parametrize("column", COLUMNS)
    @pytest.mark.parametrize("top, width", [(255, 1), (256, 2), (65_535, 2), (65_536, 4)])
    def test_each_column_takes_the_narrowest_width_that_holds_it(self, tmp_path, column, top, width):
        index = edge_index(column, top)
        path = tmp_path / "edge.rpidx"
        save_index(index, str(path))
        assert header_widths(path)[column] == width
        assert path.read_bytes() == index_file(payload(index))
        loaded = load_index(str(path))
        assert loaded.docids == index.docids and list(loaded.doc_lengths) == index.doc_lengths
        assert pairs(loaded) == pairs(index)
        for query in index.postings:
            assert bm25_search(loaded, query, 10) == bm25_search(index, query, 10)
        if width < 4:  # the same values one width wider: a second serialization, which the loader refuses
            path.write_bytes(index_file(payload(index, widths={column: 2 * width})))
            with pytest.raises(FormatError, match=f"column is stored at {2 * width} bytes, wider than") as exc:
                load_index(str(path))
            assert exc.value.path == str(path)

    def test_four_byte_ordinals(self, tmp_path):
        # ordinals past 65,535 and the terms of ALL_WIDTHS: the gaps and the tfs take 4 bytes
        n = 65_537
        postings = {term: Postings(gaps(ordinals), tfs) for term, (ordinals, tfs) in ALL_WIDTHS.items()}
        path = tmp_path / "big.rpidx"
        save_index(InvertedIndex(postings, [3] * n, [f"d{i}" for i in range(n)]), str(path))
        assert header_widths(path) == {name: 4 if name in ("gaps", "tfs") else 1 for name in COLUMNS}
        assert pairs(load_index(str(path))) == {t: list(zip(*columns)) for t, columns in ALL_WIDTHS.items()}

    @settings(max_examples=60, deadline=None)
    @given(random_postings())
    @example(([f"d{i}" for i in range(65_537)], [3] * 65_537, ALL_WIDTHS))
    @example((["d0", "d1", "d2"], [4, 5, 6], PREFIX_TERMS))
    def test_random_postings_round_trip(self, case):
        docids, doc_lengths, expected = case
        postings = {term: Postings(gaps(ordinals), tfs) for term, (ordinals, tfs) in expected.items()}
        index = InvertedIndex(postings, doc_lengths, docids)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "first.rpidx"), Path(tmp, "second.rpidx")
            save_index(index, str(first))
            loaded = load_index(str(first))
            save_index(loaded, str(second))
            assert second.read_bytes() == first.read_bytes()
        assert loaded.docids == docids and list(loaded.doc_lengths) == doc_lengths
        assert pairs(loaded) == pairs(index) == {t: list(zip(*columns)) for t, columns in expected.items()}
        for query in [*expected, " ".join(expected)]:
            assert repr(bm25_search(loaded, query, 10)) == repr(bm25_search(index, query, 10))

    def test_reload_reserializes_identically(self, tmp_path):
        index = build_index([Document("d1", "标题", "正文内容"), Document("d2", "t", "a b c")])
        first = tmp_path / "one.rpidx"
        second = tmp_path / "two.rpidx"
        save_index(index, str(first))
        save_index(load_index(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "not.rpidx"
        path.write_bytes(b"GARBAGE!" + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_index(str(path))

    def test_script_policy_survives(self, tmp_path):
        # the header after the magic names the one tokenization, length first
        path = tmp_path / "zh.rpidx"
        save_index(build_index([Document("d1", "", "你好 世界")]), str(path))
        assert path.read_bytes()[8:16] == struct.pack("<I", 4) + b"auto"
        assert load_index(str(path)).script_policy == "auto"

    def test_index_of_a_removed_policy_asks_for_a_rebuild(self, tmp_path, capsys):
        path, topics = tmp_path / "zh.rpidx", tmp_path / "topics.tsv"
        save_index(build_index([Document("d1", "", "你好 世界")]), str(path))
        path.write_bytes(path.read_bytes()[:8] + struct.pack("<I", 7) + b"unigram" + path.read_bytes()[16:])
        with pytest.raises(FormatError, match="rebuild it with `rankpipe index build`") as exc:
            load_index(str(path))
        assert exc.value.path == str(path)
        topics.write_text("q1\t你好\n", encoding="utf-8")
        out = tmp_path / "bm25.trec"
        assert main(["retrieve", "bm25", "--index", str(path), "--topics", str(topics), "--out", str(out)]) == 2
        assert str(path) in capsys.readouterr().err
        assert not out.exists()


class TestCorruptIndex:
    def test_every_truncation_and_byte_flip_is_a_format_error_or_a_searchable_index(self, tmp_path, capsys):
        good = tmp_path / "good.rpidx"
        save_index(build_index([Document("d1", "标题", "a b b"), Document("d2", "", "b c")]), str(good))
        original = good.read_bytes()
        topics = tmp_path / "topics.tsv"
        topics.write_text("q1\ta b c 标\n", encoding="utf-8")
        path, resaved, out = tmp_path / "bad.rpidx", tmp_path / "resaved.rpidx", tmp_path / "bm25.trec"

        def outcome(data: bytes) -> str:
            path.write_bytes(data)
            code = main(["retrieve", "bm25", "--index", str(path), "--topics", str(topics), "--out", str(out)])
            assert code in (0, 2), data
            try:
                index = load_index(str(path))
            except FormatError as exc:
                assert exc.path == str(path)
                assert code == 2
                return "error"
            save_index(index, str(resaved))  # an accepted file is the one serialization of what it loads
            assert resaved.read_bytes() == data
            assert all(docid.split() == [docid] for docid in index.docids)
            assert len(set(index.docids)) == index.doc_count
            for term, plist in index.postings.items():
                ordinals = [ordinal for ordinal, _ in plist]
                assert ordinals == sorted(set(ordinals)) and ordinals[-1] < index.doc_count
                assert len(plist.tfs) == len(plist.gaps) and min(plist.tfs) >= 1
                bm25_search(index, term, 10)
            return "loaded"

        assert outcome(original) == "loaded"
        assert outcome(original + b"\0") == "error"
        for size in range(len(original)):
            assert outcome(original[:size]) == "error", size
        flips = Counter(
            outcome(original[:i] + bytes([original[i] ^ mask]) + original[i + 1:])
            for i in range(len(original))
            for mask in (0x01, 0x02, 0x04, 0x80, 0xFF)
        )
        assert flips["error"] > 0 and sum(flips.values()) == 5 * len(original)
        capsys.readouterr()

    def test_an_edited_payload_byte_is_a_format_error_or_the_one_serialization(self, tmp_path):
        # every other value of every payload byte, deflated again behind the file's header as
        # save_index deflates, so that the stream checks pass and only the payload's can fail
        good, path, resaved = tmp_path / "good.rpidx", tmp_path / "edited.rpidx", tmp_path / "resaved.rpidx"
        save_index(build_index([Document("d1", "", "a b b"), Document("d2", "", "b c")]), str(good))
        data = good.read_bytes()
        header, original = data[:20], zlib.decompress(data[20:])  # magic, tokenization, payload size
        outcomes = Counter()
        for i in range(len(original)):
            for value in sorted(set(range(256)) - {original[i]}):
                edited = original[:i] + bytes([value]) + original[i + 1:]
                path.write_bytes(header + zlib.compress(edited, DEFLATE_LEVEL))
                try:
                    index = load_index(str(path))
                except FormatError as exc:
                    assert exc.path == str(path)
                    outcomes["error"] += 1
                    continue
                save_index(index, str(resaved))
                assert resaved.read_bytes() == path.read_bytes(), (i, value)
                outcomes["loaded"] += 1
        assert outcomes["error"] and outcomes["loaded"]

    def test_an_rpidx005_index_asks_for_a_rebuild(self, tmp_path, capsys):
        # the tiny index as RPIDX005 wrote it: four header widths and a doc count, the documents, a
        # term count, a dictionary with one postings-width byte per term, then per term its postings
        path, topics, out = tmp_path / "old.rpidx", tmp_path / "topics.tsv", tmp_path / "bm25.trec"
        old = b"".join([bytes([1, 1, 1, 1]), struct.pack("<I", 2), bytes([2, 4]), b"d1doc2", bytes([3, 2]),
                        struct.pack("<I", 3), bytes([0, 1, 0, 1, 1, 1, 1, 2, 1, 0x01, 0x11, 0x01]), b"abb",
                        bytes([0, 0, 1, 2, 1, 1])])
        path.write_bytes(b"RPIDX005" + struct.pack("<I", 4) + b"auto" + struct.pack("<I", len(old))
                         + zlib.compress(old, 1))
        with pytest.raises(FormatError, match="RPIDX005 index from another rankpipe version; rebuild it with `rankpipe "
                                              "index build`") as exc:
            load_index(str(path))
        assert exc.value.path == str(path)
        topics.write_text("q1\tab\n", encoding="utf-8")
        assert main(["retrieve", "bm25", "--index", str(path), "--topics", str(topics), "--out", str(out)]) == 2
        assert str(path) in capsys.readouterr().err
        assert not out.exists()
        assert main(["validate", str(path)]) == 2
        assert f"{path}:0: [index] {exc.value.message}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "magic, message",
        [
            (b"RPIDX001", "RPIDX001 index from another rankpipe version; rebuild it with `rankpipe index build`"),
            (b"RPIDX005", "RPIDX005 index from another rankpipe version; rebuild it with `rankpipe index build`"),
            (b"RPIDX007", "RPIDX007 index from another rankpipe version; rebuild it with `rankpipe index build`"),
            (b"XPIDX006", "not a RPIDX006 index file"),
            (b"RPIDX00", "not a RPIDX006 index file"),
            (b"RPIDX", "not a RPIDX006 index file"),
        ],
        ids=["RPIDX001", "RPIDX005", "RPIDX007", "XPIDX006", "RPIDX00-only", "RPIDX-only"],
    )
    def test_another_versions_magic_asks_for_a_rebuild_and_any_other_is_not_an_index(
        self, tmp_path, capsys, magic, message
    ):
        # the current file under another magic, or only the magic where it is shorter than RPIDX006
        path, topics, out = tmp_path / "other.rpidx", tmp_path / "topics.tsv", tmp_path / "bm25.trec"
        save_index(build_index([Document("d1", "", "a")]), str(path))
        path.write_bytes(magic + path.read_bytes()[8:] if len(magic) == 8 else magic)
        with pytest.raises(FormatError) as exc:
            load_index(str(path))
        assert (exc.value.message, exc.value.path) == (message, str(path))
        topics.write_text("q1\ta\n", encoding="utf-8")
        assert main(["retrieve", "bm25", "--index", str(path), "--topics", str(topics), "--out", str(out)]) == 2
        assert f"{path}: {message}" in capsys.readouterr().err
        assert not out.exists()
        assert main(["validate", str(path)]) == 2
        assert f"{path}:0: [index] {message}" in capsys.readouterr().out

    def test_a_docid_that_begins_with_a_comment_mark_is_a_format_error(self, tmp_path, capsys):
        # an index that a build before the corpus refused such docids could write; a "#" inside an id is valid
        path = tmp_path / "comment.rpidx"
        save_index(InvertedIndex({"a": Postings([0, 1], [1, 1])}, [1, 1, 1], ["d1", "12#0", "#d3"]), str(path))
        message = "docid '#d3' is empty or contains whitespace, or begins with '#'"
        with pytest.raises(FormatError) as exc:
            load_index(str(path))
        assert (exc.value.message, exc.value.path) == (message, str(path))
        assert main(["validate", str(path)]) == 2
        assert f"{path}:0: [index] {message}" in capsys.readouterr().out
        save_index(InvertedIndex({"a": Postings([0, 1], [1, 1])}, [1, 1], ["d1", "12#0"]), str(path))
        assert load_index(str(path)).docids == ["d1", "12#0"]

    @pytest.mark.parametrize("level", [0, 1, 9])
    def test_a_stream_deflated_at_another_level_asks_for_a_rebuild(self, tmp_path, level):
        path = tmp_path / "other.rpidx"
        path.write_bytes(index_file(TINY_PAYLOAD, level))
        with pytest.raises(FormatError, match=f"at level {DEFLATE_LEVEL}; rebuild it with `rankpipe index build`") \
                as exc:
            load_index(str(path))
        assert exc.value.path == str(path)

    def test_a_flipped_padding_bit_is_a_format_error(self, tmp_path):
        # the bits after the end of the last deflate block, in the byte before the adler-32; several
        # indexes, since a block may end on a byte boundary
        path, padded = tmp_path / "padded.rpidx", []
        for text in ("ab a ab", "b c", "x y z", "a", "c d e f"):
            save_index(build_index([Document("d1", "", text)]), str(path))
            data = path.read_bytes()
            for bit in range(8):
                flip = data[:-5] + bytes([data[-5] ^ 1 << bit]) + data[-4:]
                try:
                    if zlib.decompress(flip[20:]) == zlib.decompress(data[20:]):
                        padded.append(flip)
                except zlib.error:  # a bit of the block's end code
                    pass
        assert padded
        for flip in padded:
            path.write_bytes(flip)
            with pytest.raises(FormatError, match="is not the one"):
                load_index(str(path))

    @pytest.mark.parametrize("size", [1032 * len(zlib.compress(TINY_PAYLOAD, DEFLATE_LEVEL)) + 1, 2**32 - 1])
    def test_a_size_past_deflates_largest_ratio_is_rejected_before_inflating(self, tmp_path, size):
        path, stream_size = tmp_path / "huge.rpidx", len(zlib.compress(TINY_PAYLOAD, DEFLATE_LEVEL))
        path.write_bytes(index_file(TINY_PAYLOAD, size=size))
        with pytest.raises(FormatError, match=f"a payload of {size} bytes cannot inflate from {stream_size} bytes"):
            load_index(str(path))

    @pytest.mark.parametrize(
        "data, size",
        [
            (index_file(TINY_PAYLOAD, size=len(TINY_PAYLOAD) - 1), len(TINY_PAYLOAD) - 1),
            (index_file(TINY_PAYLOAD, size=len(TINY_PAYLOAD) + 1), len(TINY_PAYLOAD) + 1),
            (index_file(TINY_PAYLOAD)[:-1], len(TINY_PAYLOAD)),
            (index_file(TINY_PAYLOAD) + b"\0", len(TINY_PAYLOAD)),
        ],
        ids=["size-short", "size-long", "stream-truncated", "byte-after-stream"],
    )
    def test_a_stream_that_does_not_end_at_the_files_end_with_its_size_is_rejected(self, tmp_path, data, size):
        path = tmp_path / "size.rpidx"
        path.write_bytes(data)
        with pytest.raises(FormatError, match=f"does not end at the end of the file with a payload of {size} bytes"):
            load_index(str(path))

    @pytest.mark.parametrize(
        "shared, sizes, rests",
        [
            ([0, 0, 0], [1, 2, 1], b"aabb"),
            ([0, 2, 0], [1, 1, 1], b"abb"),
            ([0, 1, 0], [1, 0, 1], b"ab"),
            ([0, 0, 0], [1, 1, 1], b"bab"),
        ],
        ids=["prefix-not-the-longest", "prefix-past-the-term-before", "empty-rest", "out-of-order"],
    )
    def test_a_break_of_the_front_coding_is_a_format_error(self, tmp_path, shared, sizes, rests):
        path = tmp_path / "front.rpidx"
        path.write_bytes(index_file(payload(shared=shared, rest_sizes=sizes, rests=rests)))
        with pytest.raises(FormatError, match="term 1 is not front-coded in sorted order") as exc:
            load_index(str(path))
        assert exc.value.path == str(path)

    @pytest.mark.parametrize(
        "replaced, message",
        [
            ({"widths": {"doc_lengths": 3}}, "a column width of 3 bytes is not 1, 2 or 4"),
            ({"widths": {"tfs": 0}}, "a column width of 0 bytes is not 1, 2 or 4"),
            ({"widths": {"gaps": 8}}, "a column width of 8 bytes is not 1, 2 or 4"),
            ({"widths": {"tfs": 2}}, "the tf column is stored at 2 bytes, wider than its largest value needs"),
            ({"counts": (2, 3, 40)}, "truncated index file"),
            ({"dfs": [1, 2, 2]}, "the dfs add up to 5 postings, not 4"),
            ({"docids": b"d1doc"}, "the docids and term rests take 8 bytes, not the 9 that their sizes give"),
            ({"rests": b"abb\0"}, "the docids and term rests take 10 bytes, not the 9 that their sizes give"),
            ({"docids": b"d1do\xff2"}, "a docid or term is not valid UTF-8"),
            ({"gaps": [0, 0, 0, 1]}, "d-gaps of term 'ab' do not give ascending ordinals below 2"),
            ({"gaps": [2, 0, 1, 1]}, "d-gaps of term 'a' do not give ascending ordinals below 2"),
            ({"tfs": [1, 0, 1, 1]}, "term 'ab' has a term frequency of 0"),
        ],
        ids=["doc-length-width-3", "tf-width-0", "gap-width-8", "tf-column-too-wide", "columns-past-the-end",
             "dfs-past-the-postings", "docids-short", "byte-after-the-rests", "docid-not-utf-8", "gap-of-0",
             "ordinal-past-doc-count", "tf-of-0"],
    )
    def test_a_payload_check_behind_a_valid_stream_is_a_format_error(self, tmp_path, capsys, replaced, message):
        # each payload deflated as save_index deflates it, so that the stream checks pass and the payload's fail
        path = tmp_path / "payload.rpidx"
        path.write_bytes(index_file(payload(**replaced)))
        with pytest.raises(FormatError, match=message) as exc:
            load_index(str(path))
        assert exc.value.path == str(path)
        assert main(["validate", str(path)]) == 2
        assert f"{path}:0: [index] {message}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "docids, message",
        [
            (["d 1", "d2"], "docid 'd 1' is empty or contains whitespace"),
            (["d1", ""], "docid '' is empty or contains whitespace"),
            (["d1", "d\u30002"], r"docid 'd\\u30002' is empty or contains whitespace"),
            (["d1", "d1"], "a docid is repeated"),
        ],
        ids=["space", "empty", "ideographic-space", "repeated"],
    )
    def test_a_docid_that_cannot_be_a_run_column_is_a_format_error(self, tmp_path, capsys, docids, message):
        path, topics, out = tmp_path / "bad.rpidx", tmp_path / "topics.tsv", tmp_path / "bm25.trec"
        save_index(InvertedIndex({"a": Postings([0], [1])}, [1, 1], docids), str(path))
        with pytest.raises(FormatError, match=message) as exc:
            load_index(str(path))
        assert exc.value.path == str(path)
        topics.write_text("q1\ta\n", encoding="utf-8")
        assert main(["retrieve", "bm25", "--index", str(path), "--topics", str(topics), "--out", str(out)]) == 2
        assert str(path) in capsys.readouterr().err
        assert not out.exists()
