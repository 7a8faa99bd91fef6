import math
import struct

import numpy as np
import pytest

from helpers import oracle_bm25, random_corpus
from rankpipe.cli import main
from rankpipe.corpus import Document
from rankpipe.errors import DataError, FormatError
from rankpipe.sparse import Bm25Params, bm25_search, build_index, idf, load_index, save_index


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

    @pytest.mark.parametrize("k1,b", [(0.0, 0.4), (-1.0, 0.4), (0.9, -0.1), (0.9, 1.1)])
    def test_invalid_rejected(self, k1, b):
        with pytest.raises(ValueError):
            Bm25Params(k1=k1, b=b)


class TestPersistence:
    def test_round_trip_preserves_search(self, tmp_path):
        rng = np.random.default_rng(21)
        docs = random_corpus(rng, 40)
        index = build_index(docs)
        path = tmp_path / "corpus.rpidx"
        save_index(index, str(path))
        loaded = load_index(str(path))
        # the same lists of (ordinal, tf) int tuples; the file keeps terms sorted
        assert repr(loaded.postings) == repr(dict(sorted(index.postings.items())))
        for query in ("w0", "w1 w5", "w2 w3 w29"):
            assert bm25_search(loaded, query, 15) == bm25_search(index, query, 15)

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
