import json
import sys

import numpy as np
import pytest

from rankpipe.cli import main
from rankpipe.corpus import Document
from rankpipe.errors import DataError, ProtocolError
from rankpipe.fusion import cut_pool
from rankpipe.rerank import (
    PairInput,
    ScorerHandle,
    build_pairs,
    compose_pair_text,
    escape_text,
    lexical_score,
    score_pairs,
    truncate_pair_text,
    unescape_text,
)
from rankpipe.runs import Run, read_run, write_run
from rankpipe.tokenization import tokenize


def simple_pool(docids, qid="q1"):
    run = Run.from_scores({qid: {d: float(len(docids) - i) for i, d in enumerate(docids)}}, tag="hybrid")
    return cut_pool(run, len(docids))


CORPUS = {
    "d1": Document("d1", "title words", "body text here"),
    "d2": Document("d2", "", "another body"),
}
TOPICS = {"q1": "q-text"}


class TestBuildPairs:
    def test_construction_rule(self):
        pairs = list(build_pairs(simple_pool(["d1"]), TOPICS, CORPUS))
        assert pairs[0].text == "q-text [SEP] title words [SEP] body text here"
        assert (pairs[0].qid, pairs[0].docid) == ("q1", "d1")

    def test_empty_title_keeps_both_separators(self):
        pairs = list(build_pairs(simple_pool(["d2"]), TOPICS, CORPUS))
        assert pairs[0].text == "q-text [SEP]  [SEP] another body"
        assert pairs[0].text.count("[SEP]") == 2
        assert pairs[0].segments() == ("q-text", "", "another body")

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

    def test_truncate_flag_caps_emitted_tokens(self):
        body = " ".join(f"tok{i}" for i in range(300))
        corpus = {"d1": Document("d1", "title words", body)}
        pairs = list(build_pairs(simple_pool(["d1"]), TOPICS, corpus, budget=256, truncate=True))
        assert len(tokenize(pairs[0].text)) == 256

    def test_default_emits_untruncated_text(self):
        body = " ".join(f"tok{i}" for i in range(300))
        corpus = {"d1": Document("d1", "", body)}
        pairs = list(build_pairs(simple_pool(["d1"]), TOPICS, corpus, budget=256))
        assert len(tokenize(pairs[0].text)) > 256
        assert pairs[0].truncation_budget == 256


class TestTruncation:
    def test_under_budget_untouched(self):
        text = compose_pair_text("q", "t", "short body")
        assert truncate_pair_text(text, 256) == text

    def test_exact_budget_token_count(self):
        text = compose_pair_text("one two", "title here", " ".join(f"w{i}" for i in range(300)))
        truncated = truncate_pair_text(text, 256)
        assert len(tokenize(truncated)) == 256

    def test_query_survives_verbatim(self):
        text = compose_pair_text("Keep My Query!", "t", " ".join(f"w{i}" for i in range(300)))
        truncated = truncate_pair_text(text, 20)
        assert truncated.startswith("Keep My Query! [SEP] ")

    def test_title_kept_before_body(self):
        text = compose_pair_text("q", "ta tb tc", " ".join(f"w{i}" for i in range(100)))
        # budget: 1 query + 2 sep + 3 title + 2 body = 8
        truncated = truncate_pair_text(text, 8)
        _, title, body = PairInput("q", "d", truncated).segments()
        assert title == "ta tb tc"
        assert body == "w0 w1"

    def test_cjk_unigram_budget(self):
        text = compose_pair_text("查询", "", "正文" * 300)
        truncated = truncate_pair_text(text, 64, "unigram")
        assert len(tokenize(truncated, "unigram")) == 64


class TestLexicalScore:
    def test_half_overlap(self):
        pair = PairInput("q", "d", compose_pair_text("a b", "", "a x y"))
        assert lexical_score(pair) == pytest.approx(0.5)

    def test_disjoint_is_zero(self):
        pair = PairInput("q", "d", compose_pair_text("a b", "", "x y"))
        assert lexical_score(pair) == 0.0

    def test_full_containment_is_one(self):
        pair = PairInput("q", "d", compose_pair_text("a b", "b words", "a body"))
        assert lexical_score(pair) == 1.0

    def test_title_counts_as_document_text(self):
        pair = PairInput("q", "d", compose_pair_text("a", "a", "zzz"))
        assert lexical_score(pair) == 1.0

    def test_empty_query_scores_zero(self):
        pair = PairInput("q", "d", compose_pair_text("...", "", "body"))
        assert lexical_score(pair) == 0.0

    def test_matches_set_arithmetic_oracle(self):
        rng = np.random.default_rng(42)
        vocab = [f"w{i}" for i in range(20)]
        for _ in range(30):
            q_terms = rng.choice(vocab, size=rng.integers(1, 6), replace=False).tolist()
            d_terms = rng.choice(vocab, size=rng.integers(1, 15), replace=True).tolist()
            pair = PairInput("q", "d", compose_pair_text(" ".join(q_terms), "", " ".join(d_terms)))
            expected = len(set(q_terms) & set(d_terms)) / len(set(q_terms))
            assert lexical_score(pair) == pytest.approx(expected, abs=1e-12)

    def test_bounded_and_one_iff_all_query_tokens_present(self):
        rng = np.random.default_rng(5)
        vocab = [f"w{i}" for i in range(12)]
        for _ in range(100):
            q_terms = set(rng.choice(vocab, size=rng.integers(1, 5), replace=False).tolist())
            d_terms = set(rng.choice(vocab, size=rng.integers(1, 10), replace=False).tolist())
            pair = PairInput("q", "d", compose_pair_text(" ".join(sorted(q_terms)), "", " ".join(sorted(d_terms))))
            score = lexical_score(pair)
            assert 0.0 <= score <= 1.0
            assert (score == 1.0) == (q_terms <= d_terms)


class TestLexicalScriptPolicy:
    # a Latin-majority pair, so auto segmentation splits on words and the
    # Han query only matches character by character under unigram
    PAIR = PairInput("q1", "d1", compose_pair_text("北京", "", "北京大学 is a university in the capital"))

    @pytest.mark.parametrize("policy, expected", [("whitespace", 0.0), ("unigram", 1.0)])
    def test_score_pairs_uses_the_configured_policy(self, policy, expected):
        run = score_pairs([self.PAIR], ScorerHandle("lexical_baseline"), script_policy=policy)
        assert run.scores("q1")["d1"] == expected == lexical_score(self.PAIR, policy)

    @pytest.mark.parametrize("policy, expected", [("whitespace", 0.0), ("unigram", 1.0)])
    def test_cli_rerank_passes_the_policy(self, tmp_path, policy, expected):
        query, title, body = self.PAIR.segments()
        corpus, topics, pool, out = (tmp_path / n for n in ("c.jsonl", "t.tsv", "pool.trec", "rerank.trec"))
        corpus.write_text(json.dumps({"docid": "d1", "title": title, "text": body}) + "\n", encoding="utf-8")
        topics.write_text(f"q1\t{query}\n", encoding="utf-8")
        write_run(Run.from_scores({"q1": {"d1": 1.0}}, tag="pool"), str(pool))
        assert main(["rerank", "--pool", str(pool), "--topics", str(topics), "--corpus", str(corpus),
                     "--script-policy", policy, "--out", str(out)]) == 0
        assert read_run(str(out)).scores("q1")["d1"] == expected


class TestScorerHandle:
    def test_parse_variants(self):
        assert ScorerHandle.parse("lexical").kind == "lexical_baseline"
        assert ScorerHandle.parse("file:scores.tsv").location == "scores.tsv"
        assert ScorerHandle.parse("cmd:python3 scorer.py").kind == "external_process"

    def test_unknown_spec(self):
        with pytest.raises(ValueError):
            ScorerHandle.parse("magic")


class TestScoreFileScorer:
    def test_scores_copied_verbatim(self, tmp_path):
        score_path = tmp_path / "scores.tsv"
        score_path.write_text("q1 d1 0.25\nq1 d2 0.75\n")
        pairs = list(build_pairs(simple_pool(["d1", "d2"]), TOPICS, CORPUS))
        run = score_pairs(pairs, ScorerHandle("score_file", str(score_path)))
        assert run.scores("q1") == {"d1": 0.25, "d2": 0.75}
        assert run.docids("q1") == ["d2", "d1"]

    def test_missing_entry_is_protocol_error(self, tmp_path):
        score_path = tmp_path / "scores.tsv"
        score_path.write_text("q1 d1 0.25\n")
        pairs = list(build_pairs(simple_pool(["d1", "d2"]), TOPICS, CORPUS))
        with pytest.raises(ProtocolError, match="d2"):
            score_pairs(pairs, ScorerHandle("score_file", str(score_path)))

    def test_out_of_range_score_rejected(self, tmp_path):
        score_path = tmp_path / "scores.tsv"
        score_path.write_text("q1 d1 1.25\nq1 d2 0.5\n")
        pairs = list(build_pairs(simple_pool(["d1", "d2"]), TOPICS, CORPUS))
        with pytest.raises(ProtocolError):
            score_pairs(pairs, ScorerHandle("score_file", str(score_path)))

    def test_rerun_through_file_is_idempotent(self, tmp_path):
        from rankpipe.runs import read_run, write_run

        score_path = tmp_path / "scores.tsv"
        score_path.write_text("q1 d1 0.25\nq1 d2 0.75\n")
        pairs = list(build_pairs(simple_pool(["d1", "d2"]), TOPICS, CORPUS))
        handle = ScorerHandle("score_file", str(score_path))
        run1 = score_pairs(pairs, handle)
        out = tmp_path / "r.trec"
        write_run(run1, str(out))
        run2 = score_pairs(pairs, handle)
        assert read_run(str(out)).entries == run2.entries


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
        pairs = [PairInput("q1", "d1", compose_pair_text("a", "", "b"))]
        with pytest.raises(ProtocolError, match="handshake"):
            score_pairs(pairs, scorer_handle(tmp_path, BAD_HANDSHAKE_SCORER))

    def test_out_of_range_score(self, tmp_path):
        pairs = [PairInput("q1", "d1", compose_pair_text("a", "", "b"))]
        with pytest.raises(ProtocolError, match="outside"):
            score_pairs(pairs, scorer_handle(tmp_path, BAD_SCORE_SCORER))

    def test_mismatched_ids(self, tmp_path):
        pairs = [PairInput("q1", "d1", compose_pair_text("a", "", "b"))]
        with pytest.raises(ProtocolError, match="match"):
            score_pairs(pairs, scorer_handle(tmp_path, WRONG_ID_SCORER))

    def test_unlaunchable_command(self):
        pairs = [PairInput("q1", "d1", compose_pair_text("a", "", "b"))]
        with pytest.raises(ProtocolError, match="launch"):
            score_pairs(pairs, ScorerHandle("external_process", "/nonexistent/scorer"))


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
