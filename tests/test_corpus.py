import json

import pytest

from rankpipe.corpus import (
    Document,
    JudgmentSet,
    Query,
    corpus_stats,
    load_corpus,
    load_qrels,
    load_topics,
    write_qrels,
)
from rankpipe.errors import FormatError


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


class TestLoadCorpus:
    def test_maps_fields(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", ['{"docid":"d1","title":"T","text":"body"}'])
        assert list(load_corpus(path)) == [Document("d1", "T", "body")]

    def test_empty_file_yields_nothing(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", [])
        assert list(load_corpus(path)) == []

    def test_duplicate_docid_reports_line_and_id(self, tmp_path):
        path = write_lines(
            tmp_path / "c.jsonl",
            ['{"docid":"d1","title":"","text":"a"}', '{"docid":"d1","title":"","text":"b"}'],
        )
        with pytest.raises(FormatError, match="d1") as exc:
            list(load_corpus(path))
        assert exc.value.line == 2

    def test_malformed_json_reports_line(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", ['{"docid":"d1","title":"","text":"a"}', "{oops"])
        with pytest.raises(FormatError) as exc:
            list(load_corpus(path))
        assert exc.value.line == 2

    def test_blank_text_rejected(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", ['{"docid":"d1","title":"","text":"  "}'])
        with pytest.raises(FormatError, match="empty 'text'"):
            list(load_corpus(path))

    def test_missing_title_defaults_to_empty(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", ['{"docid":"d1","text":"a"}'])
        assert next(load_corpus(path)).title == ""

    def test_unknown_extra_fields_ignored(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", ['{"docid":"d1","title":"","text":"a","url":"x"}'])
        assert next(load_corpus(path)).docid == "d1"

    def test_invalid_utf8_is_a_hard_error(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'{"docid":"d1","title":"","text":"a"}\n\xff\xfe broken\n')
        with pytest.raises(FormatError, match="UTF-8") as exc:
            list(load_corpus(str(path)))
        assert exc.value.line == 2

    def test_streaming_touches_each_record_once(self, tmp_path):
        lines = [json.dumps({"docid": f"d{i}", "title": "", "text": f"t{i}"}) for i in range(100)]
        path = write_lines(tmp_path / "c.jsonl", lines)
        seen = []
        for doc in load_corpus(path):
            seen.append(doc.docid)
        assert seen == [f"d{i}" for i in range(100)]


class TestLoadTopics:
    def test_basic(self, tmp_path):
        path = write_lines(tmp_path / "t.tsv", ["q1\twhat is bm25"])
        assert load_topics(path) == [Query("q1", "what is bm25")]

    def test_language_and_split_attached(self, tmp_path):
        path = write_lines(tmp_path / "t.tsv", ["q1\tx"])
        query = load_topics(path, language="sw", split="dev")[0]
        assert (query.language, query.split) == ("sw", "dev")

    def test_tabs_after_first_stay_in_text(self, tmp_path):
        path = write_lines(tmp_path / "t.tsv", ["q1\ta\tb"])
        assert load_topics(path)[0].text == "a\tb"

    def test_missing_column(self, tmp_path):
        path = write_lines(tmp_path / "t.tsv", ["q1-no-tab"])
        with pytest.raises(FormatError):
            load_topics(path)

    def test_duplicate_qid(self, tmp_path):
        path = write_lines(tmp_path / "t.tsv", ["q1\ta", "q1\tb"])
        with pytest.raises(FormatError, match="q1"):
            load_topics(path)


class TestLoadQrels:
    def test_basic(self, tmp_path):
        path = write_lines(tmp_path / "q.txt", ["q1 Q0 d7 1"])
        qrels = load_qrels(path)
        assert qrels.judged_docids("q1") == {"d7": 1}

    def test_non_integer_grade_line_1(self, tmp_path):
        path = write_lines(tmp_path / "q.txt", ["q1 Q0 d7 x"])
        with pytest.raises(FormatError) as exc:
            load_qrels(path)
        assert exc.value.line == 1

    def test_wrong_column_count(self, tmp_path):
        path = write_lines(tmp_path / "q.txt", ["q1 d7 1"])
        with pytest.raises(FormatError, match="4 columns"):
            load_qrels(path)

    def test_negative_grade_rejected(self, tmp_path):
        path = write_lines(tmp_path / "q.txt", ["q1 Q0 d7 -1"])
        with pytest.raises(FormatError, match="negative"):
            load_qrels(path)

    def test_duplicate_pair_rejected(self, tmp_path):
        path = write_lines(tmp_path / "q.txt", ["q1 Q0 d7 1", "q1 Q0 d7 0"])
        with pytest.raises(FormatError, match="duplicate"):
            load_qrels(path)

    def test_round_trip_equal_and_byte_identical(self, tmp_path):
        path = write_lines(tmp_path / "q.txt", ["q2 Q0 d9 0", "q1 Q0 d7 1", "q1 Q0 d2 2"])
        qrels = load_qrels(path)
        out1 = tmp_path / "out1.txt"
        out2 = tmp_path / "out2.txt"
        write_qrels(qrels, str(out1))
        reloaded = load_qrels(str(out1))
        assert reloaded == qrels
        write_qrels(reloaded, str(out2))
        assert out1.read_bytes() == out2.read_bytes()


class TestJudgmentSet:
    def test_positives_exclude_grade_zero(self):
        qrels = JudgmentSet({("q1", "d1"): 1, ("q1", "d2"): 0})
        assert qrels.positives("q1") == {"d1"}

    def test_len_counts_pairs(self):
        qrels = JudgmentSet({("q1", "d1"): 1, ("q2", "d1"): 0})
        assert len(qrels) == 2


class TestCorpusStats:
    def test_synthetic_counts(self):
        corpus = [Document(f"d{i}", "", "x") for i in range(3)]
        topics = {"train": [Query("q1", "a"), Query("q2", "b")]}
        qrels = {"train": JudgmentSet({("q1", "d0"): 1, ("q1", "d1"): 0, ("q2", "d0"): 1, ("q2", "d2"): 1})}
        row = corpus_stats(corpus, topics, qrels, language="xx")
        assert row.queries["train"] == 2
        assert row.judgments["train"] == 4
        assert row.passages == 3
        assert row.articles is None

    def test_zero_queries(self):
        row = corpus_stats([], {"dev": []}, {"dev": JudgmentSet()})
        assert row.queries["dev"] == 0
        assert row.judgments["dev"] == 0

    def test_permutation_invariant(self):
        docs = [Document(f"d{i}", "", "x") for i in range(5)]
        topics = [Query(f"q{i}", "t") for i in range(4)]
        a = corpus_stats(docs, {"train": topics}, {})
        b = corpus_stats(reversed(docs), {"train": reversed(topics)}, {})
        assert (a.passages, a.queries) == (b.passages, b.queries)
