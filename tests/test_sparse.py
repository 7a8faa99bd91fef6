import math
import struct
import tempfile
import zlib
from collections import Counter
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


def file_widths(path) -> tuple[tuple[int, ...], dict[str, int]]:
    """The payload header's four widths (doc lengths, docid sizes, term
    sizes, dfs) and each term's postings-width byte, found by inflating the
    file and walking the layout."""
    data = zlib.decompress(path.read_bytes()[20:])  # after the magic, the tokenization name and the payload size
    typecode = {1: "B", 2: "H", 4: "I"}
    length_w, docid_w, term_w, df_w, doc_count = struct.unpack_from("<4BI", data)
    docid_sizes = struct.unpack_from(f"<{doc_count}{typecode[docid_w]}", data, 8)
    pos = 8 + doc_count * (docid_w + length_w) + sum(docid_sizes)
    (n_terms,) = struct.unpack_from("<I", data, pos)
    shared, suffix_sizes = (struct.unpack_from(f"<{n_terms}{typecode[term_w]}", data, pos + 4 + i * n_terms * term_w)
                            for i in (0, 1))
    pos += 4 + n_terms * (2 * term_w + df_w)
    widths, pos = data[pos:pos + n_terms], pos + n_terms
    terms, name = [], b""
    for prefix, size in zip(shared, suffix_sizes):
        name = name[:prefix] + data[pos:pos + size]
        terms.append(name.decode("utf-8"))
        pos += size
    return (length_w, docid_w, term_w, df_w), dict(zip(terms, widths))


def index_file(payload: bytes, level: int = 1, size: int | None = None) -> bytes:
    """An ``RPIDX005`` file: the uncompressed header, with ``size`` in place
    of the payload's size if given, and ``payload`` deflated at ``level``."""
    size = len(payload) if size is None else size
    return b"".join([b"RPIDX005", struct.pack("<I", 4), b"auto", struct.pack("<I", size),
                     zlib.compress(payload, level)])


# the payload of an index of Document("d1", "", "ab a ab") and Document("doc2", "", "ab b"),
# with its term dictionary (terms a, ab, b) at offsets 22 to 37
TINY_DICTIONARY = b"".join([
    bytes([0, 1, 0]), bytes([1, 1, 1]),  # shared prefix sizes, suffix sizes: ab shares a's byte
    bytes([1, 2, 1]), bytes([0x01, 0x11, 0x01]), b"a" b"b" b"b",  # dfs, postings widths, suffixes
])
TINY_PAYLOAD = b"".join([
    bytes([1, 1, 1, 1]), struct.pack("<I", 2),  # widths: doc lengths, docid sizes, term sizes, dfs
    bytes([2, 4]), b"d1doc2", bytes([3, 2]),  # docid sizes, docids, doc lengths
    struct.pack("<I", 3), TINY_DICTIONARY,
    bytes([0]), bytes([0, 1]), bytes([2, 1]), bytes([1]),  # a: gap; ab: gaps, tfs; b: gap
])


# 65,537 documents; (ordinals, tfs) per term: between them every gap width
# (1, 2, 4) and every tf width (0 where every tf is 1, then 1, 2, 4)
ALL_WIDTHS = {
    "a": ([0, 65_536], [1, 1]),
    "b": ([300, 301], [2, 256]),
    "c": ([5], [70_000]),
    "d": ([1, 2], [3, 1]),
}
ALL_WIDTHS_BYTES = {"a": 0x04, "b": 0x22, "c": 0x41, "d": 0x11}
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
        save_index(build_index([Document("d1", "", "ab a ab"), Document("doc2", "", "ab b")]), str(path))
        assert zlib.decompress(path.read_bytes()[20:]) == TINY_PAYLOAD
        assert path.read_bytes() == index_file(TINY_PAYLOAD)

    @pytest.mark.parametrize(
        "texts,widths,postings_widths",
        [
            (["a"] * 255, (1, 1, 1, 1), {"a": 0x01}),
            (["a"] * 256, (1, 1, 1, 2), {"a": 0x01}),
            (["x"] * 256 + ["a"], (1, 1, 1, 2), {"a": 0x02, "x": 0x01}),
            (["a " * 255, "b"], (1, 1, 1, 1), {"a": 0x11, "b": 0x01}),
            (["a " * 256, "b"], (2, 1, 1, 1), {"a": 0x21, "b": 0x01}),
            ([" ".join(f"t{i}" for i in range(256)), "t0"], (2, 1, 1, 1), {"t0": 0x01, "t255": 0x01}),
            (["a " * 65_535, "a b"], (2, 1, 1, 1), {"a": 0x21, "b": 0x01}),
            (["a " * 65_536, "a b"], (4, 1, 1, 1), {"a": 0x41, "b": 0x01}),
            (["x" * 255], (1, 1, 1, 1), {"x" * 255: 0x01}),
            (["x" * 256], (1, 1, 2, 1), {"x" * 256: 0x01}),
        ],
        ids=["255-docs", "256-docs", "257-docs", "tf-255", "tf-256", "doc-length-256", "tf-65535", "tf-65536",
             "term-255-bytes", "term-256-bytes"],
    )
    def test_each_column_takes_the_narrowest_width_that_holds_it(self, tmp_path, texts, widths, postings_widths):
        docs = [Document(f"d{i}", "", text) for i, text in enumerate(texts)]
        index = build_index(docs)
        path = tmp_path / "w.rpidx"
        save_index(index, str(path))
        header, per_term = file_widths(path)
        assert header == widths
        assert postings_widths.items() <= per_term.items()
        loaded = load_index(str(path))
        assert pairs(loaded) == pairs(index) == oracle_postings(docs)
        assert list(loaded.doc_lengths) == index.doc_lengths
        for query in [*postings_widths, "a b t0 t255"]:
            assert bm25_search(loaded, query, 300) == bm25_search(index, query, 300)

    def test_docid_sizes_take_two_bytes_past_255(self, tmp_path):
        path = tmp_path / "long.rpidx"
        save_index(build_index([Document("d" * 256, "", "a"), Document("e", "", "a b")]), str(path))
        assert file_widths(path)[0] == (1, 2, 1, 1)
        assert load_index(str(path)).docids == ["d" * 256, "e"]

    def test_four_byte_ordinals(self, tmp_path):
        # ordinals past 65,535 and the terms of ALL_WIDTHS: every gap and tf width
        n = 65_537
        postings = {term: Postings(gaps(ordinals), tfs) for term, (ordinals, tfs) in ALL_WIDTHS.items()}
        path = tmp_path / "big.rpidx"
        save_index(InvertedIndex(postings, [3] * n, [f"d{i}" for i in range(n)]), str(path))
        assert file_widths(path) == ((1, 1, 1, 1), ALL_WIDTHS_BYTES)
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

    @pytest.mark.parametrize("level", [0, 6, 9])
    def test_a_stream_deflated_at_another_level_asks_for_a_rebuild(self, tmp_path, level):
        path = tmp_path / "other.rpidx"
        path.write_bytes(index_file(TINY_PAYLOAD, level))
        with pytest.raises(FormatError, match="at level 1; rebuild it with `rankpipe index build`") as exc:
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

    @pytest.mark.parametrize("size", [1032 * len(zlib.compress(TINY_PAYLOAD, 1)) + 1, 2**32 - 1])
    def test_a_size_past_deflates_largest_ratio_is_rejected_before_inflating(self, tmp_path, size):
        path, stream_size = tmp_path / "huge.rpidx", len(zlib.compress(TINY_PAYLOAD, 1))
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
        "shared, sizes, suffixes, message",
        [
            ([0, 0, 0], [1, 2, 1], b"aabb", "term 1 is not front-coded in sorted order"),
            ([0, 2, 0], [1, 1, 1], b"abb", "term 1 is not front-coded in sorted order"),
            ([0, 1, 0], [1, 0, 1], b"ab", "term 1 is not front-coded in sorted order"),
            ([0, 0, 0], [1, 1, 1], b"bab", "term 1 is not front-coded in sorted order"),
        ],
        ids=["prefix-not-the-longest", "prefix-past-the-term-before", "empty-rest", "out-of-order"],
    )
    def test_a_break_of_the_front_coding_is_a_format_error(self, tmp_path, shared, sizes, suffixes, message):
        dictionary = bytes(shared) + bytes(sizes) + TINY_DICTIONARY[6:12] + suffixes  # dfs, postings widths kept
        path = tmp_path / "front.rpidx"
        path.write_bytes(index_file(TINY_PAYLOAD.replace(TINY_DICTIONARY, dictionary)))
        with pytest.raises(FormatError, match=message) as exc:
            load_index(str(path))
        assert exc.value.path == str(path)

    @pytest.mark.parametrize(
        "payload, message",
        [
            (bytes([3]) + TINY_PAYLOAD[1:], "a column width of 3 bytes is not 1, 2 or 4"),
            # in the dictionary, byte 9 is a's postings width and byte 8 is b's df
            (TINY_PAYLOAD.replace(TINY_DICTIONARY, TINY_DICTIONARY[:9] + bytes([0x03]) + TINY_DICTIONARY[10:]),
             "a column width of 3 bytes is not 1, 2 or 4"),
            (TINY_PAYLOAD.replace(TINY_DICTIONARY, TINY_DICTIONARY[:8] + bytes([2]) + TINY_DICTIONARY[9:]),
             "truncated index file"),
            # the last 6 bytes are the postings: a: gap; ab: gaps, tfs; b: gap
            (TINY_PAYLOAD[:-6] + bytes([0, 0, 0, 2, 1, 1]),
             "d-gaps of term 'ab' do not give ascending ordinals below 2"),
            (TINY_PAYLOAD[:-6] + bytes([2, 0, 1, 2, 1, 1]),
             "d-gaps of term 'a' do not give ascending ordinals below 2"),
            (TINY_PAYLOAD[:-6] + bytes([0, 0, 1, 0, 1, 1]), "term 'ab' has a term frequency of 0"),
            (TINY_PAYLOAD + b"\0", "1 bytes after the last term"),
        ],
        ids=["doc-length-width-3", "gap-width-3", "postings-past-the-end", "gap-of-0", "ordinal-past-doc-count",
             "tf-of-0", "byte-after-the-last-term"],
    )
    def test_a_payload_check_behind_a_valid_stream_is_a_format_error(self, tmp_path, capsys, payload, message):
        # each payload deflated as save_index deflates it, so that the stream checks pass and the payload's fail
        path = tmp_path / "payload.rpidx"
        path.write_bytes(index_file(payload, DEFLATE_LEVEL))
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
