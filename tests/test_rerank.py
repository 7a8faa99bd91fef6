import json
import os
import re
import sys
import time
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import oracle_lexical_score, oracle_pair_text
from rankpipe import rerank
from rankpipe.cli import main
from rankpipe.corpus import Document, load_corpus, load_topics
from rankpipe.errors import DataError, FormatError, ProtocolError
from rankpipe.fusion import cut_pool
from rankpipe.rerank import (
    PairInput,
    ScorerHandle,
    build_pairs,
    escape_text,
    lexical_score,
    score_pairs,
    unescape_text,
)
from rankpipe.runs import Run, read_run, write_run
from rankpipe.tokenization import tokenize

from test_cli import DESK

EXAMPLE_SCORER = Path(__file__).resolve().parent.parent / "demos" / "example_scorer.py"


def simple_pool(docids, qid="q1"):
    run = Run.from_scores({qid: {d: float(len(docids) - i) for i, d in enumerate(docids)}}, tag="hybrid")
    return cut_pool(run, len(docids))


CORPUS = {
    "d1": Document("d1", "title words", "body text here"),
    "d2": Document("d2", "", "another body"),
}
TOPICS = {"q1": "q-text"}

# segments built from the pieces the composition rewrites: the separator
# marker, parts of it, line breaks, and a tab, which is kept
_PIECES = st.lists(
    st.sampled_from(["a", "北", " ", "[SEP]", "[", "SEP", "]", "\n", "\r", "\r\n", "\t"]), max_size=12
).map("".join)


class TestBuildPairs:
    def test_construction_rule(self):
        pairs = list(build_pairs(simple_pool(["d1"]), TOPICS, CORPUS))
        assert pairs[0].text == "q-text [SEP] title words [SEP] body text here"
        assert (pairs[0].qid, pairs[0].docid) == ("q1", "d1")

    def test_empty_title_keeps_both_separators(self):
        pairs = list(build_pairs(simple_pool(["d2"]), TOPICS, CORPUS))
        assert pairs[0].text == "q-text [SEP]  [SEP] another body"
        assert pairs[0].text.count("[SEP]") == 2
        assert (pairs[0].query, pairs[0].title, pairs[0].body) == ("q-text", "", "another body")

    def test_pool_order_preserved(self):
        pairs = list(build_pairs(simple_pool(["d2", "d1"]), TOPICS, CORPUS))
        assert [p.docid for p in pairs] == ["d2", "d1"]

    def test_unresolvable_docid_named(self):
        with pytest.raises(DataError, match="ghost"):
            list(build_pairs(simple_pool(["ghost"]), TOPICS, CORPUS))

    def test_missing_topic_named(self):
        with pytest.raises(DataError, match="q9"):
            list(build_pairs(simple_pool(["d1"], qid="q9"), {"q1": "x"}, CORPUS))

    def test_separator_literal_inside_fields_is_scrubbed(self):
        corpus = {"d1": Document("d1", "sneaky [SEP] title", "body")}
        pairs = list(build_pairs(simple_pool(["d1"]), TOPICS, corpus))
        assert pairs[0].text.count("[SEP]") == 2
        assert pairs[0].title == "sneaky   title"

    def test_default_emits_untruncated_text(self):
        body = " ".join(f"tok{i}" for i in range(300))
        corpus = {"d1": Document("d1", "", body)}
        pairs = list(build_pairs(simple_pool(["d1"]), TOPICS, corpus, budget=256))
        assert len(tokenize(pairs[0].text)) > 256
        assert pairs[0].truncation_budget == 256

    @settings(max_examples=300, deadline=None)
    @given(_PIECES, _PIECES, _PIECES)
    def test_text_is_the_composition_scorers_always_received(self, query, title, body):
        built = next(build_pairs(simple_pool(["d1"]), {"q1": query}, {"d1": Document("d1", title, body)}))
        assert built.text == oracle_pair_text(query, title, body)


def pair(query, title, body, budget=256):
    return PairInput("q", "d", query, title, body, truncation_budget=budget)


# the lexical baseline applies the budget to the pair's token lists: with
# auto segmentation the query counts its tokens, each separator one ("sep")
class TestTruncation:
    def test_under_budget_untouched(self):
        # 1 query + 2 sep + 1 title + 2 body = 6 tokens: the last one still counts
        assert lexical_score(pair("body", "t", "short body", budget=256)) == 1.0
        assert lexical_score(pair("body", "t", "short body", budget=6)) == 1.0
        assert lexical_score(pair("body", "t", "short body", budget=5)) == 0.0

    def test_exact_budget_token_count(self):
        # 2 query + 2 sep + 2 title leave 250 body tokens, w0 to w249
        body = " ".join(f"w{i}" for i in range(300))
        assert lexical_score(pair("one w249", "title here", body)) == 0.5
        assert lexical_score(pair("one w250", "title here", body)) == 0.0

    def test_query_survives_verbatim(self):
        body = "query " + " ".join(f"w{i}" for i in range(300))
        # every query token counts, even when the query and separators fill the budget
        assert lexical_score(pair("Keep My Query!", "t", body, budget=20)) == pytest.approx(1 / 3)
        assert lexical_score(pair("Keep My Query!", "query", body, budget=5)) == 0.0
        assert lexical_score(pair("Keep My Query!", "query", body, budget=6)) == pytest.approx(1 / 3)

    def test_title_kept_before_body(self):
        body = " ".join(f"w{i}" for i in range(100))
        # budget: 1 query + 2 sep + 3 title + 2 body = 8
        assert [lexical_score(pair(q, "ta tb tc", body, budget=8)) for q in ("tc", "w1", "w2")] == [1.0, 1.0, 0.0]

    def test_cjk_unigram_budget(self):
        # one token per Han character: 2 query + 2 separator ("sep") leave 60 body characters
        body = "正" * 59 + "查询" + "正文" * 300
        assert lexical_score(pair("查询", "", body, budget=64)) == 0.5
        assert lexical_score(pair("查询", "", body, budget=65)) == 1.0


class TestLexicalScore:
    def test_half_overlap(self):
        assert lexical_score(pair("a b", "", "a x y")) == pytest.approx(0.5)

    def test_disjoint_is_zero(self):
        assert lexical_score(pair("a b", "", "x y")) == 0.0

    def test_full_containment_is_one(self):
        assert lexical_score(pair("a b", "b words", "a body")) == 1.0

    def test_title_counts_as_document_text(self):
        assert lexical_score(pair("a", "a", "zzz")) == 1.0

    def test_empty_query_scores_zero(self):
        assert lexical_score(pair("...", "", "body")) == 0.0

    def test_matches_set_arithmetic_oracle(self):
        rng = np.random.default_rng(42)
        vocab = [f"w{i}" for i in range(20)]
        for _ in range(30):
            q_terms = rng.choice(vocab, size=rng.integers(1, 6), replace=False).tolist()
            d_terms = rng.choice(vocab, size=rng.integers(1, 15), replace=True).tolist()
            expected = len(set(q_terms) & set(d_terms)) / len(set(q_terms))
            assert lexical_score(pair(" ".join(q_terms), "", " ".join(d_terms))) == pytest.approx(expected, abs=1e-12)

    def test_bounded_and_one_iff_all_query_tokens_present(self):
        rng = np.random.default_rng(5)
        vocab = [f"w{i}" for i in range(12)]
        for _ in range(100):
            q_terms = set(rng.choice(vocab, size=rng.integers(1, 5), replace=False).tolist())
            d_terms = set(rng.choice(vocab, size=rng.integers(1, 10), replace=False).tolist())
            score = lexical_score(pair(" ".join(sorted(q_terms)), "", " ".join(sorted(d_terms))))
            assert 0.0 <= score <= 1.0
            assert (score == 1.0) == (q_terms <= d_terms)


# Latin, Han, kana, Hangul and Thai letters, case pairs whose folding grows or
# decomposes (ß, ǰ, İ, Σ), a combining mark, digits, punctuation and the
# separator's own characters
_SEGMENT = st.text(st.sampled_from("aAbZ9 ._-[]SEP北京タ한กßǰİΣς\u0301\t"), max_size=30) | st.text(max_size=12)


class TestLexicalScoreOnTokenLists:
    @settings(max_examples=400, deadline=None)
    @given(_SEGMENT, _SEGMENT, _SEGMENT, st.integers(1, 30))
    def test_scores_as_the_truncate_and_split_path(self, query, title, body, budget):
        built = next(build_pairs(simple_pool(["d"], qid="q"), {"q": query}, {"d": Document("d", title, body)}, budget))
        assert lexical_score(built) == oracle_lexical_score(built.text, budget)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_score_pairs_scores_a_pool_that_repeats_queries_and_documents_as_the_oracle(self, data):
        # texts drawn from small lists, so qids share query texts and docids
        # share titles and bodies; each pair has its own budget, often
        # shorter than its query
        texts = data.draw(st.lists(_SEGMENT, min_size=1, max_size=3))
        topics = {f"q{i}": data.draw(st.sampled_from(texts)) for i in range(data.draw(st.integers(1, 4)))}
        corpus = {f"d{i}": Document(f"d{i}", data.draw(st.sampled_from(texts)), data.draw(st.sampled_from(texts)))
                  for i in range(data.draw(st.integers(1, 5)))}
        pool = Run(entries={qid: [(docid, 1.0) for docid in data.draw(st.lists(st.sampled_from(sorted(corpus)),
                                                                                  unique=True))]
                            for qid in topics})
        pairs = [replace(pair, truncation_budget=data.draw(st.integers(1, 30)))
                 for pair in build_pairs(pool, topics, corpus)]
        run = score_pairs(pairs, ScorerHandle())
        assert [run.scores(p.qid)[p.docid] for p in pairs] == [oracle_lexical_score(p.text, p.truncation_budget)
                                                               for p in pairs]


class TestLexicalScriptPolicy:
    # "北京大学" is one run of Han characters, so it matches the Han query
    # only because each of them is a token of its own
    PAIR = PairInput("q1", "d1", "北京", "", "北京大学 is a university in the capital")

    def test_score_pairs_segments_han_per_character(self):
        run = score_pairs([self.PAIR], ScorerHandle("lexical_baseline"))
        assert run.scores("q1")["d1"] == 1.0 == lexical_score(self.PAIR)

    def test_cli_rerank_segments_han_per_character(self, tmp_path):
        query, title, body = self.PAIR.query, self.PAIR.title, self.PAIR.body
        corpus, topics, pool, out = (tmp_path / n for n in ("c.jsonl", "t.tsv", "pool.trec", "rerank.trec"))
        corpus.write_text(json.dumps({"docid": "d1", "title": title, "text": body}) + "\n", encoding="utf-8")
        topics.write_text(f"q1\t{query}\n", encoding="utf-8")
        write_run(Run.from_scores({"q1": {"d1": 1.0}}, tag="pool"), str(pool))
        assert main(["rerank", "--pool", str(pool), "--topics", str(topics), "--corpus", str(corpus),
                     "--out", str(out)]) == 0
        assert read_run(str(out)).scores("q1")["d1"] == 1.0


class TestScorerHandle:
    def test_parse_variants(self):
        assert ScorerHandle.parse("lexical").kind == "lexical_baseline"
        assert ScorerHandle.parse("file:scores.tsv").location == "scores.tsv"
        assert ScorerHandle.parse("cmd:python3 scorer.py").kind == "external_process"

    def test_unknown_spec(self):
        with pytest.raises(ValueError):
            ScorerHandle.parse("magic")


def _rerank_inputs(root, docids, extra_lines=()):
    """A corpus of ``docids`` followed by ``extra_lines``, a topic q1 and a pool
    of q1 over ``docids``: the paths of the corpus, topics, pool and output."""
    corpus, topics, pool = (root / n for n in ("c.jsonl", "t.tsv", "pool.trec"))
    lines = [json.dumps({"docid": d, "title": "", "text": f"body {d}"}) for d in docids]
    corpus.write_text("".join(f"{line}\n" for line in [*lines, *extra_lines]), encoding="utf-8")
    topics.write_text("q1\tbody d1\n", encoding="utf-8")
    write_run(Run.from_scores({"q1": {d: float(len(docids) - i) for i, d in enumerate(docids)}}, tag="pool"), str(pool))
    return corpus, topics, pool, root / "r.trec"


class TestRerankPoolCorpus:
    """The rerank stage keeps only pooled documents but parses every corpus line."""

    @pytest.mark.parametrize(
        "line, message",
        [("{not json", "malformed JSON"), ('{"docid": "d9", "text": " "}', "document 'd9' has empty 'text'")],
        ids=["malformed-json", "empty-text"],
    )
    def test_bad_line_outside_the_pool_exits_2_at_its_line(self, tmp_path, capsys, line, message):
        corpus, topics, pool, out = _rerank_inputs(tmp_path, ["d1", "d2"], ['{"docid": "d8", "text": "x"}', line])
        code = main(["rerank", "--pool", str(pool), "--topics", str(topics), "--corpus", str(corpus),
                     "--pool-k", "1", "--out", str(out)])
        assert code == 2
        assert f"error: {corpus}:4: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_pooled_docid_missing_from_the_corpus_exits_2(self, tmp_path, capsys):
        corpus, topics, pool, out = _rerank_inputs(tmp_path, ["d1", "d2"])
        write_run(Run.from_scores({"q1": {"d1": 2.0, "d3": 1.0}}, tag="pool"), str(pool))
        code = main(["rerank", "--pool", str(pool), "--topics", str(topics), "--corpus", str(corpus),
                     "--out", str(out)])
        assert code == 2
        assert "error: pool document 'd3' not found in corpus" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("language", ["en", "zh"])
    @pytest.mark.parametrize("external", [False, True], ids=["lexical", "external"])
    def test_scores_as_with_the_whole_corpus(self, language, external):
        desk = DESK / language
        topics, corpus = load_topics(str(desk / "topics.tsv")), list(load_corpus(str(desk / "corpus.jsonl")))
        # every topic over every document, of which the pool keeps the first 7
        pool = Run.from_scores({qid: {doc.docid: float((i * 31 + j * 17) % 101) for j, doc in enumerate(corpus)}
                                for i, qid in enumerate(topics)}, tag="hybrid")
        scorer = ScorerHandle.parse(f"cmd:{sys.executable} {EXAMPLE_SCORER}" if external else "lexical")
        expected = score_pairs(build_pairs(cut_pool(pool, 7), topics, {d.docid: d for d in corpus}, 40), scorer, 1)
        got = rerank.rerank_pool(pool, str(desk / "topics.tsv"), str(desk / "corpus.jsonl"), scorer, 7, 40, 1)
        assert got == expected
        assert len(got) == 7 * len(topics)


def _score_run(path, lines):
    """A run of probabilities: one ``qid Q0 docid rank score tag`` line per
    (qid, docid, score) of ``lines``, ranked as listed."""
    path.write_text("".join(f"{q} Q0 {d} {r} {s} model\n" for r, (q, d, s) in enumerate(lines, 1)), encoding="utf-8")
    return str(path)


class TestScoreFileScorer:
    """``file:`` names a TREC run of probabilities; its loader is the run parser."""

    def test_scores_copied_verbatim(self, tmp_path):
        score_path = _score_run(tmp_path / "scores.trec", [("q1", "d1", "0.25"), ("q1", "d2", "0.75")])
        pairs = list(build_pairs(simple_pool(["d1", "d2"]), TOPICS, CORPUS))
        run = score_pairs(pairs, ScorerHandle("score_file", score_path))
        assert run.scores("q1") == {"d1": 0.25, "d2": 0.75}
        assert run.docids("q1") == ["d2", "d1"]
        assert run.tag == "rerank-file"

    def test_missing_entry_is_protocol_error(self, tmp_path):
        score_path = _score_run(tmp_path / "scores.trec", [("q1", "d1", "0.25")])
        pairs = list(build_pairs(simple_pool(["d1", "d2"]), TOPICS, CORPUS))
        with pytest.raises(ProtocolError, match="d2"):
            score_pairs(pairs, ScorerHandle("score_file", score_path))

    def test_duplicate_entry_is_a_format_error_at_its_line(self, tmp_path):
        score_path = _score_run(tmp_path / "scores.trec",
                                [("q1", "d1", "0.5"), ("q1", "d2", "0.75"), ("q1", "d1", "0.9")])
        pairs = list(build_pairs(simple_pool(["d1", "d2"]), TOPICS, CORPUS))
        with pytest.raises(FormatError, match=r"scores\.trec:3: duplicate document 'd1' for query 'q1'"):
            score_pairs(pairs, ScorerHandle("score_file", score_path))

    @pytest.mark.parametrize(
        "lines, message",
        [("q1 Q0 d1 1 0.5 m\nq1 d2\n", "2: expected 6 columns, got 2"),
         ("q1 Q0 d1 1 0.5 m\nq1 Q0 d2 2 0.25\n", "2: expected 6 columns, got 5"),
         ("q1 Q0 d1 1 0.5 m\nq1 Q0 d2 2 high m\n", "2: non-numeric score 'high'"),
         ("q1 Q0 d1 1 0.5 m\nq1 Q0 d2 2 nan m\n", "2: non-finite score 'nan'"),
         ("q1 Q0 d1 1 0.5 m\nq1 Q0 d2 2 1.25 m\n", "2: score 1.25 for (q1, d2) outside [0, 1]"),
         ("q1 Q0 d1 1 0.5 m\nq1 Q0 d1 2 0.25 m\n", "2: duplicate document 'd1' for query 'q1'")],
        ids=["two-columns", "five-columns", "non-numeric-score", "nan", "above-one", "repeated-pair"],
    )
    def test_bad_line_through_the_cli_exits_2_at_its_line(self, tmp_path, capsys, lines, message):
        score_path = tmp_path / "scores.trec"
        score_path.write_text(lines, encoding="utf-8")
        corpus, topics, pool, out = _rerank_inputs(tmp_path, ["d1", "d2"])
        code = main(["rerank", "--pool", str(pool), "--topics", str(topics), "--corpus", str(corpus),
                     "--scorer", f"file:{score_path}", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {score_path}:{message}\n"
        assert not out.exists()

    def test_missing_pair_through_the_cli_exits_3(self, tmp_path, capsys):
        score_path = _score_run(tmp_path / "scores.trec", [("q1", "d1", "0.5")])
        corpus, topics, pool, out = _rerank_inputs(tmp_path, ["d1", "d2"])
        code = main(["rerank", "--pool", str(pool), "--topics", str(topics), "--corpus", str(corpus),
                     "--scorer", f"file:{score_path}", "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == "protocol error: score file lacks an entry for (q1, d2)\n"
        assert not out.exists()

    def test_out_of_range_score_rejected(self, tmp_path):
        score_path = _score_run(tmp_path / "scores.trec", [("q1", "d1", "1.25"), ("q1", "d2", "0.5")])
        pairs = list(build_pairs(simple_pool(["d1", "d2"]), TOPICS, CORPUS))
        with pytest.raises(FormatError, match=r"scores\.trec:1: score 1\.25 for \(q1, d1\) outside \[0, 1\]"):
            score_pairs(pairs, ScorerHandle("score_file", score_path))

    def test_rerun_through_file_is_idempotent(self, tmp_path):
        score_path = _score_run(tmp_path / "scores.trec", [("q1", "d1", "0.25"), ("q1", "d2", "0.75")])
        pairs = list(build_pairs(simple_pool(["d1", "d2"]), TOPICS, CORPUS))
        handle = ScorerHandle("score_file", score_path)
        run1 = score_pairs(pairs, handle)
        out = tmp_path / "r.trec"
        write_run(run1, str(out))
        run2 = score_pairs(pairs, handle)
        assert read_run(str(out)).entries == run2.entries

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_scores_are_the_table_lookup(self, tmp_path_factory, data):
        """Each pooled pair gets its entry of a table of probabilities written
        with ``write_run``, whatever pairs outside the pool the table holds."""
        docids = st.lists(st.sampled_from(["d1", "d2", "d3", "d4"]), min_size=1, unique=True)
        ranked = data.draw(st.dictionaries(st.sampled_from(["q1", "q2", "q3"]), docids, min_size=1))
        pool = Run.from_scores({q: {d: float(-i) for i, d in enumerate(ds)} for q, ds in ranked.items()}, tag="pool")
        probability = st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, 5e-324, 0.5])
        unpooled = data.draw(st.lists(st.sampled_from([("q1", "d5"), ("q9", "d1")]), unique=True))
        table: dict[str, dict[str, float]] = {}
        for qid, docid in [(q, d) for q, ds in ranked.items() for d in ds] + unpooled:
            table.setdefault(qid, {})[docid] = data.draw(probability)
        path = str(tmp_path_factory.mktemp("probabilities") / "scores.trec")
        write_run(Run.from_scores(table, tag="model"), path)
        corpus = {d: Document(d, "", f"body {d}") for d in ("d1", "d2", "d3", "d4")}
        topics = {q: f"text {q}" for q in ranked}
        got = score_pairs(build_pairs(pool, topics, corpus), ScorerHandle("score_file", path))
        assert {q: got.scores(q) for q in got.entries} == {q: {d: table[q][d] for d in ds} for q, ds in ranked.items()}

    @settings(max_examples=25, deadline=None)
    @given(ranked=st.dictionaries(st.sampled_from(["q1", "q2"]),
                                  st.lists(st.sampled_from(["d1", "d2", "d3", "d4"]), min_size=1, unique=True),
                                  min_size=1),
           budget=st.integers(1, 12))
    def test_a_written_lexical_run_scores_as_itself(self, tmp_path_factory, ranked, budget):
        """A lexical run, written and fed back as ``file:``, reranks the same pool to the same entries."""
        corpus = {d: Document(d, f"title {d}", f"body text {d} here") for d in ("d1", "d2", "d3", "d4")}
        topics = {"q1": "body d1 d3 text", "q2": "title here"}
        pool = Run.from_scores({q: {d: float(-i) for i, d in enumerate(ds)} for q, ds in ranked.items()}, tag="pool")
        pairs = list(build_pairs(pool, topics, corpus, budget))
        lexical = score_pairs(pairs, ScorerHandle())
        path = str(tmp_path_factory.mktemp("lexical") / "rerank.trec")
        write_run(lexical, path)
        assert score_pairs(pairs, ScorerHandle.parse(f"file:{path}")).entries == lexical.entries


ECHO_SCORER = """\
import sys
assert sys.stdin.readline().strip() == "HELLO 1"
print("READY 1", flush=True)
for line in sys.stdin:
    cmd, qid, docid, text = line.rstrip("\\n").split("\\t")
    assert cmd == "SCORE"
    print(f"{qid}\\t{docid}\\t0.5", flush=True)
"""

LENGTH_SCORER = """\
import sys
assert sys.stdin.readline().strip() == "HELLO 1"
print("READY 1", flush=True)
for line in sys.stdin:
    parts = line.rstrip("\\n").split("\\t")
    assert len(parts) == 4, f"expected 4 fields, got {len(parts)}"
    text = parts[3]
    assert "\\t" not in text and "\\n" not in text
    score = min(1.0, len(text) / 1000.0)
    print(f"{parts[1]}\\t{parts[2]}\\t{score}", flush=True)
"""

BAD_HANDSHAKE_SCORER = 'print("HOWDY 9", flush=True)\n'

BAD_SCORE_SCORER = """\
import sys
assert sys.stdin.readline().strip() == "HELLO 1"
print("READY 1", flush=True)
for line in sys.stdin:
    parts = line.rstrip("\\n").split("\\t")
    print(f"{parts[1]}\\t{parts[2]}\\t7.5", flush=True)
"""

WRONG_ID_SCORER = """\
import sys
assert sys.stdin.readline().strip() == "HELLO 1"
print("READY 1", flush=True)
for line in sys.stdin:
    parts = line.rstrip("\\n").split("\\t")
    print(f"{parts[1]}\\tWRONG\\t0.5", flush=True)
"""

CLOSED_INPUT_SCORER = """\
import os, sys, time
assert sys.stdin.readline().strip() == "HELLO 1"
print("READY 1", flush=True)
os.close(0)
time.sleep(60)
"""

SILENT_AFTER_READY_SCORER = """\
import sys, time
assert sys.stdin.readline().strip() == "HELLO 1"
print("READY 1", flush=True)
sys.stdin.readline()
time.sleep(60)
"""

SILENT_BEFORE_READY_SCORER = "import time\ntime.sleep(60)\n"

# every response in two writes with a pause between them
SPLIT_LINE_SCORER = """\
import sys, time
assert sys.stdin.readline().strip() == "HELLO 1"
print("READY 1", flush=True)
for line in sys.stdin:
    parts = line.rstrip("\\n").split("\\t")
    print(f"{parts[1]}\\t{parts[2]}", end="", flush=True)
    time.sleep(0.05)
    print("\\t0.25", flush=True)
"""


# answers READY, then reads nothing more
DEAF_AFTER_READY_SCORER = """\
import sys, time
assert sys.stdin.readline().strip() == "HELLO 1"
print("READY 1", flush=True)
time.sleep(60)
"""

# appends its pid to the file named by its argument, then answers every request with a wrong docid
PID_SCORER = """\
import os, sys
with open(sys.argv[1], "a") as fh:
    fh.write(f"{os.getpid()}\\n")
assert sys.stdin.readline().strip() == "HELLO 1"
print("READY 1", flush=True)
for line in sys.stdin:
    parts = line.rstrip("\\n").split("\\t")
    print(f"{parts[1]}\\tWRONG\\t0.5", flush=True)
"""

# a score that depends on the request text alone
CHECKSUM_SCORER = """\
import sys, zlib
assert sys.stdin.readline().strip() == "HELLO 1"
print("READY 1", flush=True)
for line in sys.stdin:
    _, qid, docid, text = line.rstrip("\\n").split("\\t")
    print(f"{qid}\\t{docid}\\t{zlib.crc32(text.encode()) / 2**32!r}", flush=True)
"""

# answer every request with two columns, a non-numeric score, or nothing at all
TWO_COLUMN_SCORER = """\
import sys
assert sys.stdin.readline().strip() == "HELLO 1"
print("READY 1", flush=True)
for line in sys.stdin:
    parts = line.rstrip("\\n").split("\\t")
    print(f"{parts[1]}\\t{parts[2]}", flush=True)
"""

NON_NUMERIC_SCORER = """\
import sys
assert sys.stdin.readline().strip() == "HELLO 1"
print("READY 1", flush=True)
for line in sys.stdin:
    parts = line.rstrip("\\n").split("\\t")
    print(f"{parts[1]}\\t{parts[2]}\\thigh", flush=True)
"""

EXIT_AFTER_REQUEST_SCORER = """\
import sys
assert sys.stdin.readline().strip() == "HELLO 1"
print("READY 1", flush=True)
sys.stdin.readline()
"""


# answers two requests, the second without a newline, then exits
NO_FINAL_NEWLINE_SCORER = """\
import sys
assert sys.stdin.readline().strip() == "HELLO 1"
print("READY 1", flush=True)
for end in ("\\n", ""):
    parts = sys.stdin.readline().rstrip("\\n").split("\\t")
    print(f"{parts[1]}\\t{parts[2]}\\t0.75", end=end, flush=True)
"""


def scorer_handle(tmp_path, source, name="scorer.py"):
    path = tmp_path / name
    path.write_text(source)
    return ScorerHandle("external_process", f"{sys.executable} {path}")


class TestExternalScorer:
    def test_echo_scorer_roundtrip(self, tmp_path):
        docids = [f"d{i}" for i in range(5)]
        corpus = {d: Document(d, "", f"body {d}") for d in docids}
        pairs = list(build_pairs(simple_pool(docids), TOPICS, corpus))
        run = score_pairs(pairs, scorer_handle(tmp_path, ECHO_SCORER))
        assert run.docids("q1") == sorted(docids)
        assert all(s == 0.5 for s in run.scores("q1").values())
        assert run.tag == "rerank-ext"

    def test_text_with_tabs_and_newlines_is_escaped(self, tmp_path):
        corpus = {"d1": Document("d1", "tab\there", "line\nbreak body")}
        pairs = list(build_pairs(simple_pool(["d1"]), TOPICS, corpus))
        run = score_pairs(pairs, scorer_handle(tmp_path, LENGTH_SCORER))
        assert len(run.scores("q1")) == 1

    def test_bad_handshake(self, tmp_path):
        pairs = [PairInput("q1", "d1", "a", "", "b")]
        with pytest.raises(ProtocolError, match="handshake"):
            score_pairs(pairs, scorer_handle(tmp_path, BAD_HANDSHAKE_SCORER))

    def test_out_of_range_score(self, tmp_path):
        pairs = [PairInput("q1", "d1", "a", "", "b")]
        with pytest.raises(ProtocolError, match="outside"):
            score_pairs(pairs, scorer_handle(tmp_path, BAD_SCORE_SCORER))

    def test_mismatched_ids(self, tmp_path):
        pairs = [PairInput("q1", "d1", "a", "", "b")]
        with pytest.raises(ProtocolError, match="match"):
            score_pairs(pairs, scorer_handle(tmp_path, WRONG_ID_SCORER))

    def test_scorer_that_closes_its_input(self, tmp_path):
        pairs = [PairInput("q1", "d1", "a", "", "b")]
        with pytest.raises(ProtocolError, match="closed its input after 0 of 1"):
            score_pairs(pairs, scorer_handle(tmp_path, CLOSED_INPUT_SCORER))

    def test_silent_scorer_is_a_protocol_error_naming_the_pending_pair(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(rerank, "RESPONSE_DEADLINE_S", 0.5)
        corpus, topics, pool = (tmp_path / n for n in ("c.jsonl", "t.tsv", "pool.trec"))
        corpus.write_text(json.dumps({"docid": "d1", "title": "", "text": "b"}) + "\n", encoding="utf-8")
        topics.write_text("q1\ta\n", encoding="utf-8")
        write_run(Run.from_scores({"q1": {"d1": 1.0}}, tag="pool"), str(pool))
        command = scorer_handle(tmp_path, SILENT_AFTER_READY_SCORER).location
        started = time.monotonic()
        code = main(["rerank", "--pool", str(pool), "--topics", str(topics), "--corpus", str(corpus),
                     "--scorer", f"cmd:{command}", "--out", str(tmp_path / "r.trec")])
        assert code == 3
        assert "within 0.5 s, waiting for the response to (q1, d1)" in capsys.readouterr().err
        assert time.monotonic() - started < 10

    def test_deadline_covers_the_handshake(self, tmp_path, monkeypatch):
        monkeypatch.setattr(rerank, "RESPONSE_DEADLINE_S", 0.5)
        pairs = [PairInput("q1", "d1", "a", "", "b")]
        with pytest.raises(ProtocolError, match="waiting for READY 1"):
            score_pairs(pairs, scorer_handle(tmp_path, SILENT_BEFORE_READY_SCORER))

    def test_a_response_written_in_pieces_is_one_line(self, tmp_path):
        pairs = [PairInput("q1", f"d{i}", "a", "", "b") for i in range(3)]
        run = score_pairs(pairs, scorer_handle(tmp_path, SPLIT_LINE_SCORER))
        assert run.scores("q1") == {"d0": 0.25, "d1": 0.25, "d2": 0.25}

    def test_last_response_without_a_newline_before_exit_is_accepted(self, tmp_path):
        pairs = [PairInput("q1", f"d{i}", "a", "", "b") for i in range(2)]
        run = score_pairs(pairs, scorer_handle(tmp_path, NO_FINAL_NEWLINE_SCORER), cpus=1)
        assert run.scores("q1") == {"d0": 0.75, "d1": 0.75}

    def test_unlaunchable_command(self):
        pairs = [PairInput("q1", "d1", "a", "", "b")]
        with pytest.raises(ProtocolError, match="launch"):
            score_pairs(pairs, ScorerHandle("external_process", "/nonexistent/scorer"))

    def test_scorer_that_stops_reading_is_a_protocol_error_naming_the_pending_pair(self, tmp_path, monkeypatch):
        monkeypatch.setattr(rerank, "RESPONSE_DEADLINE_S", 0.5)
        pairs = [PairInput("q1", "d1", "a", "", "b" * 1_000_000)]  # more than a pipe holds
        started = time.monotonic()
        with pytest.raises(ProtocolError, match=r"within 0\.5 s, waiting for the response to \(q1, d1\)"):
            score_pairs(pairs, scorer_handle(tmp_path, DEAF_AFTER_READY_SCORER))
        assert time.monotonic() - started < 10

    @pytest.mark.parametrize(
        "source, message",
        [
            (TWO_COLUMN_SCORER, r"malformed response 'q1\\td1'"),
            (NON_NUMERIC_SCORER, r"non-numeric score in response 'q1\\td1\\thigh'"),
            (EXIT_AFTER_REQUEST_SCORER, "scorer closed the stream after 0 of 1 responses"),
        ],
        ids=["two-columns", "non-numeric-score", "exit-before-answering"],
    )
    def test_bad_response_through_the_cli_exits_3(self, tmp_path, capsys, source, message):
        corpus, topics, pool, out = (tmp_path / n for n in ("c.jsonl", "t.tsv", "pool.trec", "r.trec"))
        corpus.write_text(json.dumps({"docid": "d1", "title": "", "text": "b"}) + "\n", encoding="utf-8")
        topics.write_text("q1\ta\n", encoding="utf-8")
        write_run(Run.from_scores({"q1": {"d1": 1.0}}, tag="pool"), str(pool))
        command = scorer_handle(tmp_path, source).location
        code = main(["rerank", "--pool", str(pool), "--topics", str(topics), "--corpus", str(corpus),
                     "--scorer", f"cmd:{command}", "--out", str(out)])
        assert code == 3
        assert re.search(message, capsys.readouterr().err)
        assert not out.exists()


def _assert_gone(pids):
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestScorerPerCpu:
    @settings(max_examples=12, deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=9))
    def test_run_bytes_do_not_depend_on_the_cpu_count(self, tmp_path_factory, sizes):
        tmp_path = tmp_path_factory.mktemp("scorer")
        pairs = [PairInput(f"q{q}", f"d{d}", f"query {q}", "", f"body {q} {d}")
                 for q, size in enumerate(sizes) for d in range(size)]
        handle = scorer_handle(tmp_path, CHECKSUM_SCORER)
        texts = set()
        for cpus in (1, 2, 3):
            shares = rerank._shares(pairs, cpus)
            # contiguous runs of whole queries that cover the pairs, one per CPU and at most one per query
            assert len(shares) == min(cpus, len(sizes)) and all(shares)
            assert [pair for share in shares for pair in share] == pairs
            assert all(before[-1].qid != after[0].qid for before, after in zip(shares, shares[1:]))
            with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))):
                out = tmp_path / f"run{cpus}.trec"
                write_run(score_pairs(pairs, handle), str(out))
            texts.add(out.read_bytes())
        assert len(texts) == 1

    @given(st.lists(st.integers(1, 40), min_size=1, max_size=12), st.integers(1, 5))
    def test_shares_are_runs_of_whole_queries_balanced_by_query_count(self, sizes, cpus):
        pairs = [PairInput(f"q{q}", f"d{d}", "a", "", "b") for q, size in enumerate(sizes) for d in range(size)]
        shares = rerank._shares(pairs, cpus)
        assert len(shares) == min(cpus, len(sizes)) and all(shares)
        assert [pair for share in shares for pair in share] == pairs
        queries = [[*dict.fromkeys(pair.qid for pair in share)] for share in shares]
        assert sum(map(len, queries)) == len(sizes)  # no query is split between two shares
        assert max(map(len, queries)) - min(map(len, queries)) <= 1
        assert rerank._shares([], cpus) == [[]]

    def test_no_scorer_outlives_a_failed_call(self, tmp_path):
        pids = tmp_path / "pids"
        script = tmp_path / "scorer.py"
        script.write_text(PID_SCORER)
        pairs = [PairInput(f"q{q}", f"d{d}", "a", "", "b") for q in range(3) for d in range(4)]
        handle = ScorerHandle("external_process", f"{sys.executable} {script} {pids}")
        with pytest.raises(ProtocolError, match="does not match"):
            score_pairs(pairs, handle, cpus=3)
        started = [int(pid) for pid in pids.read_text().split()]
        assert 1 <= len(started) <= 3
        _assert_gone(started)

    def test_a_scorer_that_cannot_be_launched_stops_those_started(self, tmp_path, monkeypatch):
        import subprocess

        popen, launched = subprocess.Popen, []

        def second_fails(*args, **kwargs):
            if launched:
                raise OSError("no more processes")
            launched.append(popen(*args, **kwargs))
            return launched[-1]

        monkeypatch.setattr(subprocess, "Popen", second_fails)
        pairs = [PairInput(f"q{q}", "d1", "a", "", "b") for q in range(2)]
        with pytest.raises(ProtocolError, match="cannot launch scorer .*no more processes"):
            score_pairs(pairs, scorer_handle(tmp_path, ECHO_SCORER), cpus=2)
        assert launched[0].returncode is not None
        _assert_gone([launched[0].pid])


class TestEscaping:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        pool = list("ab\\\t\nc ")
        for _ in range(200):
            text = "".join(rng.choice(pool, size=rng.integers(0, 30)))
            escaped = escape_text(text)
            assert "\t" not in escaped and "\n" not in escaped
            assert unescape_text(escaped) == text


class TestScorePairsContract:
    def test_output_ids_exactly_match_input(self):
        rng = np.random.default_rng(11)
        docids = [f"d{i}" for i in range(8)]
        corpus = {d: Document(d, "", " ".join(f"w{int(x)}" for x in rng.integers(0, 9, 6))) for d in docids}
        pool = simple_pool(docids)
        pairs = list(build_pairs(pool, {"q1": "w1 w2"}, corpus))
        run = score_pairs(pairs, ScorerHandle("lexical_baseline"))
        assert sorted(run.docids("q1")) == sorted(docids)
        assert len(run) == len(pairs)
