"""The loaders and ``rankpipe validate`` agree on every line format.

Both go through the parsers in ``rankpipe.validate``. The property test
mutates valid files line by line and checks that a loader raises exactly
when ``validate`` reports a problem it does not tolerate, at the same line.
The binary index has no lines: ``validate`` reports its loader's error.
"""
from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankpipe.cli import main
from rankpipe.corpus import load_corpus, load_qrels, load_topics
from rankpipe.dense import load_embeddings
from rankpipe.errors import DataError, FormatError
from rankpipe.forge import read_pairs
from rankpipe.runs import read_run
from rankpipe.sparse import load_index
from rankpipe.validate import KINDS, Diagnostic, validate_artifacts

from test_cli import write_tiny_project

# the two canonical-order rules on runs; read_run re-sorts, so it tolerates both
ORDER_RULES = ("run.rank", "run.order")

VALID = {
    "corpus": [
        '{"docid": "d1", "title": "T", "text": "alpha beta"}',
        '{"docid": "d2", "title": "", "text": "gamma"}',
        '{"docid": "d3", "text": "delta epsilon", "url": "x"}',
    ],
    "topics": ["q1\talpha", "q2\tgamma\tdelta", "q3\tepsilon"],
    "qrels": ["q1 Q0 d1 1", "q1 Q0 d2 0", "q2 Q0 d3 2"],
    "run": ["q1 Q0 d1 1 2.5 t", "q1 Q0 d2 2 1.0 t", "q2 Q0 d3 1 0.5 t", "q2 Q0 d1 2 0.25 t"],
    "pairs": [
        "q1\td1\t1.0\tannotation\talpha",
        "q1\td2\t0.0\tnegative\talpha",
        "q2\td3\t0.45\tpseudo\tgamma\tdelta",
        "q2\td1\t0.7\tq2q2d\tgamma",
    ],
    "vectors": ["a\t1.0,0.5,-2.0", "b\t0.0,1.0,0.25", "c\t3.0,0.0,1.0"],
}

LOADERS = {
    "corpus": lambda path: list(load_corpus(path)),
    "topics": load_topics,
    "qrels": load_qrels,
    "run": read_run,
    "pairs": read_pairs,
    "vectors": load_embeddings,
}

SEPARATORS = {"topics": "\t", "qrels": " ", "run": " ", "pairs": "\t", "vectors": "\t"}
NUMERIC_FIELD = {"qrels": 3, "run": 4, "pairs": 2}
LINE_KINDS = tuple(kind for kind in KINDS if kind != "index")


def _fields(kind: str, line: str) -> list[str]:
    return line.split(SEPARATORS[kind])


def _join(kind: str, fields: list[str]) -> str:
    return SEPARATORS[kind].join(fields)


def _set_field(kind: str, line: str, index: int, value: str) -> str:
    fields = _fields(kind, line)
    if index < len(fields):
        fields[index] = value
    return _join(kind, fields)


def _record(line: str) -> dict:
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return {}
    return record if isinstance(record, dict) else {}


def _mutate(kind: str, lines: list[str], draw) -> list[str]:
    """Apply one random mutation to the line list."""
    lines = list(lines)
    if not lines:
        return [draw(st.sampled_from(["  # note", "\t# note", "", "# header"]))]
    i = draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    choice = draw(st.sampled_from(
        ["drop_column", "non_number", "non_finite", "duplicate", "bad_label", "dimension", "title",
         "indented_comment", "blank", "swap", "delete", "rank"]
    ))
    if choice == "drop_column":
        if kind == "corpus":
            record = _record(line)
            record.pop(draw(st.sampled_from(["docid", "title", "text"])), None)
            lines[i] = json.dumps(record)
        else:
            fields = _fields(kind, line)
            del fields[draw(st.integers(0, len(fields) - 1))]
            lines[i] = _join(kind, fields)
    elif choice in ("non_number", "non_finite"):
        value = draw(st.sampled_from(["x1", "", "1,5"] if choice == "non_number" else ["nan", "inf", "-inf", "NaN"]))
        if kind == "vectors":
            vid, _, payload = line.partition("\t")
            values = payload.split(",")
            values[draw(st.integers(0, len(values) - 1))] = value
            lines[i] = f"{vid}\t{','.join(values)}"
        elif kind == "corpus":
            field = draw(st.sampled_from(["docid", "title", "text"]))
            lines[i] = json.dumps({**_record(line), field: float(value) if choice == "non_finite" else 1})
        elif kind in NUMERIC_FIELD:
            lines[i] = _set_field(kind, line, NUMERIC_FIELD[kind], value)
    elif choice == "duplicate":
        lines.insert(draw(st.integers(0, len(lines))), line)
    elif choice == "bad_label":
        if kind == "pairs":
            label, source = draw(st.sampled_from(
                [("1.5", "pseudo"), ("-0.1", "q2q2d"), ("0.5", "negative"), ("0.5", "annotation"), ("0.0", "bogus")]
            ))
            lines[i] = _set_field(kind, _set_field(kind, line, 2, label), 3, source)
        elif kind == "qrels":
            lines[i] = _set_field(kind, line, 3, "-1")
    elif choice == "dimension" and kind == "vectors":
        lines[i] = line + ",1.0" if draw(st.booleans()) else line.rsplit(",", 1)[0]
    elif choice == "title" and kind == "corpus":
        title = draw(st.sampled_from(["5", "null", "[]", "{}"]))
        lines[i] = json.dumps({**_record(line), "title": json.loads(title)})
    elif choice == "indented_comment":
        lines.insert(i, draw(st.sampled_from(["  # note", "\t# note q1 Q0 d1", " #"])))
    elif choice == "blank":
        lines.insert(i, draw(st.sampled_from(["", "   ", "\t"])))
    elif choice == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif choice == "delete":
        del lines[i]
    elif choice == "rank" and kind == "run":
        lines[i] = _set_field(kind, line, 3, draw(st.sampled_from(["7", "one", "0"])))
    return lines


def _check_agreement(kind: str, path: str) -> list:
    """Assert the agreement; return every diagnostic, order rules included."""
    every = validate_artifacts([path], kind=kind)
    diags = [d for d in every if d.rule not in ORDER_RULES]
    try:
        LOADERS[kind](path)
    except DataError as exc:
        assert isinstance(exc, FormatError), repr(exc)
        assert diags, f"loader raised {exc}, validate found nothing"
        assert (exc.line or 0) == diags[0].line, (str(exc), [str(d) for d in diags])
    else:
        assert not diags, [str(d) for d in diags]
    return every


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(LINE_KINDS), data=st.data())
def test_loader_raises_exactly_when_validate_reports(kind, data):
    lines = VALID[kind]
    for _ in range(data.draw(st.integers(1, 3))):
        lines = _mutate(kind, lines, data.draw)
    crlf = data.draw(st.booleans())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"file.{kind}"
        path.write_text("".join(line + ("\r\n" if crlf else "\n") for line in lines), encoding="utf-8")
        diags = _check_agreement(kind, str(path))
    # one diagnostic per bad line
    assert len({d.line for d in diags}) == len(diags)


@pytest.mark.parametrize("kind", LINE_KINDS)
def test_valid_files_load_and_validate_clean(tmp_path, kind):
    path = tmp_path / f"file.{kind}"
    path.write_text("# provenance\n" + "\n".join(VALID[kind]) + "\n", encoding="utf-8")
    assert validate_artifacts([str(path)], kind=kind) == []
    LOADERS[kind](str(path))


def test_validate_reports_an_index_exactly_when_its_loader_raises(tmp_path, capsys):
    write_tiny_project(tmp_path)
    good = tmp_path / "idx.rpidx"
    assert main(["index", "build", "--corpus", str(tmp_path / "corpus.jsonl"), "--out", str(good)]) == 0
    data = good.read_bytes()
    assert validate_artifacts([str(good)]) == []
    assert main(["validate", str(good)]) == 0
    bad = tmp_path / "bad.idx"  # no .rpidx suffix, so only --kind index names it
    for mutation in (b"RPIDX004" + data[8:], data[:-1], data + b"\0", data[:30] + bytes([data[30] ^ 1]) + data[31:]):
        bad.write_bytes(mutation)
        assert validate_artifacts([str(bad)])[0].rule == "kind"
        with pytest.raises(FormatError) as exc:
            load_index(str(bad))
        assert validate_artifacts([str(bad)], kind="index") == [Diagnostic(str(bad), 0, "index", exc.value.message)]
        capsys.readouterr()
        assert main(["validate", "--kind", "index", str(bad)]) == 2
        assert capsys.readouterr().out == f"{bad}:0: [index] {exc.value.message}\n1 problem(s) found\n"


class TestFormerDrifts:
    """Files on which validate and the loaders used to disagree."""

    def test_non_string_title(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"docid": "d1", "title": "ok", "text": "a"}\n{"docid": "d2", "title": 5, "text": "b"}\n')
        assert [(d.line, d.rule) for d in validate_artifacts([str(path)])] == [(2, "corpus.title")]
        with pytest.raises(FormatError, match="title") as exc:
            list(load_corpus(str(path)))
        assert exc.value.line == 2
        assert main(["validate", str(path)]) == 2

    def test_header_only_vector_file(self, tmp_path, capsys):
        path = tmp_path / "v.vec.tsv"
        path.write_text("# vectors from some encoder\n")
        assert [(d.line, d.rule) for d in validate_artifacts([str(path)])] == [(0, "vectors.empty")]
        with pytest.raises(DataError, match="no vectors"):
            load_embeddings(str(path))
        assert main(["validate", str(path)]) == 2
        assert "no vectors" in capsys.readouterr().out

    def test_indented_comment_in_run(self, tmp_path):
        path = tmp_path / "r.trec"
        path.write_text("q1 Q0 d1 1 2.0 t\n  # note\nq1 Q0 d2 2 1.0 t\n")
        assert validate_artifacts([str(path)]) == []
        assert read_run(str(path)).docids("q1") == ["d1", "d2"]


class TestOneDiagnosticPerLine:
    def test_pair_with_bad_label_and_source(self, tmp_path):
        path = tmp_path / "p.pairs.tsv"
        path.write_text("q1\td1\t1.5\tbogus\ttext\nq1\td2\t0.5\tnegative\ttext\n")
        diags = validate_artifacts([str(path)])
        assert [(d.line, d.rule) for d in diags] == [(1, "pairs.source"), (2, "pairs.label")]

    def test_negative_duplicate_judgment(self, tmp_path):
        path = tmp_path / "x.qrels"
        path.write_text("q1 Q0 d1 1\nq1 Q0 d1 -2\n")
        assert [(d.line, d.rule) for d in validate_artifacts([str(path)])] == [(2, "qrels.grade")]

    def test_run_rank_and_order_on_one_line(self, tmp_path):
        path = tmp_path / "r.trec"
        path.write_text("q1 Q0 d1 1 1.0 t\nq1 Q0 d2 5 3.0 t\nq1 Q0 d3 3 4.0 t\n")
        diags = validate_artifacts([str(path)])
        assert [(d.line, d.rule) for d in diags] == [(2, "run.rank"), (3, "run.order")]
        assert read_run(str(path)).docids("q1") == ["d3", "d2", "d1"]


# line 2 of a file of each kind, with an id that no TREC run line can carry
BAD_IDS = [
    ("corpus", "c.jsonl", '{"docid": "d 2", "text": "b"}', "corpus.docid"),
    ("corpus", "c.jsonl", '{"docid": "d\\u30002", "text": "b"}', "corpus.docid"),
    ("topics", "t.topics.tsv", "q 2\tgamma", "topics.qid"),
    ("topics", "t.topics.tsv", "\tgamma", "topics.qid"),
    ("vectors", "v.vec.tsv", "b b\t0.0,1.0,0.25", "vectors.id"),
]


@pytest.mark.parametrize(
    "kind, name, line, rule", BAD_IDS, ids=["docid", "docid-ideographic", "qid", "qid-empty", "vector-id"]
)
def test_id_that_a_run_cannot_carry_is_a_data_error(tmp_path, kind, name, line, rule):
    path = tmp_path / name
    path.write_text(VALID[kind][0] + "\n" + line + "\n", encoding="utf-8")
    assert [(d.line, d.rule) for d in validate_artifacts([str(path)])] == [(2, rule)]
    with pytest.raises(FormatError, match="whitespace") as exc:
        LOADERS[kind](str(path))
    assert exc.value.line == 2


def _utf8_case(root: Path, case: str) -> tuple[list[str], Path]:
    """argv for one subcommand and the file in it that gets a bad byte."""
    write_tiny_project(root)
    run = root / "run.trec"
    run.write_text("q1 Q0 d1 1 0.9 t\nq1 Q0 d2 2 0.5 t\nq2 Q0 d3 1 0.7 t\n")
    out = str(root / "out.trec")
    if case == "eval --run":
        return ["eval", "--run", str(run), "--qrels", str(root / "qrels.txt")], run
    if case == "fuse":
        return ["fuse", "--runs", str(run), str(run), "--out", out], run
    if case == "retrieve dense":
        bad = root / "queries.vec.tsv"
        return ["retrieve", "dense", "--queries", str(bad), "--docs", str(root / "docs.vec.tsv"), "--out", out], bad
    if case == "forge pseudo":
        return ["forge", "pseudo", "--run", str(run), "--out", str(root / "p.pairs.tsv")], run
    if case == "rerank --scorer file:":
        scores = root / "scores.trec"
        scores.write_text("q1 Q0 d1 1 0.5 m\nq1 Q0 d2 2 0.25 m\nq2 Q0 d3 1 0.75 m\n")
        return ["rerank", "--pool", str(run), "--topics", str(root / "topics.tsv"), "--corpus",
                str(root / "corpus.jsonl"), "--scorer", f"file:{scores}", "--out", out], scores
    if case == "pipeline --config":
        config = root / "exp.cfg"
        return ["pipeline", "--config", str(config)], config
    kind = case.split()[1]
    files = {
        "corpus": root / "corpus.jsonl",
        "topics": root / "topics.tsv",
        "qrels": root / "qrels.txt",
        "run": run,
        "vectors": root / "docs.vec.tsv",
        "pairs": root / "x.pairs.tsv",
    }
    files["pairs"].write_text("q1\td1\t1.0\tannotation\ta\nq1\td2\t0.0\tnegative\ta\n")
    return ["validate", "--kind", kind, str(files[kind])], files[kind]


@pytest.mark.parametrize(
    "case",
    ["eval --run", "fuse", "retrieve dense", "forge pseudo", "rerank --scorer file:", "pipeline --config"]
    + [f"validate {kind}" for kind in LINE_KINDS],
)
def test_invalid_utf8_is_a_data_error_with_location(tmp_path, capsys, case):
    argv, bad = _utf8_case(tmp_path, case)
    lines = bad.read_bytes().split(b"\n")
    lines[1] += b"\xff"
    bad.write_bytes(b"\n".join(lines))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"{bad}:2" in captured.out + captured.err


@pytest.mark.parametrize(
    "name, text, diagnostic",
    [
        ("c.jsonl", '{"docid": "d1", "text": "a"}\n["d2", "b"]\n', "2: [corpus.json] record is not an object"),
        ("r.trec", "q1 Q0 d1 1 2.0 t\nq1 Q0 d2 2 high t\n", "2: [run.score] non-numeric score 'high'"),
        ("r.trec", "q1 Q0 d1 1 2.0 t\nq1 Q0 d2 two 1.0 t\n", "2: [run.rank] rank two, expected 2"),
    ],
    ids=["corpus-array", "run-score", "run-rank"],
)
def test_validate_reports_a_bad_line_at_its_number(tmp_path, capsys, name, text, diagnostic):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().out == f"{path}:{diagnostic}\n1 problem(s) found\n"


@pytest.mark.parametrize("grade", ["9" * 400, str(2**53 + 1)], ids=["400-digits", "2**53+1"])
def test_qrels_grade_that_a_float_cannot_hold_is_a_data_error(tmp_path, capsys, grade):
    qrels = tmp_path / "big.qrels"
    qrels.write_text(f"q1 Q0 d1 {grade}\nq1 Q0 d2 {2**53}\n")
    run = tmp_path / "r.trec"
    run.write_text("q1 Q0 d1 1 1.0 t\n")
    assert main(["eval", "--run", str(run), "--qrels", str(qrels)]) == 2
    assert f"{qrels}:1: grade {grade} for (q1, d1) outside [0, 2**53]" in capsys.readouterr().err
    assert [(d.line, d.rule) for d in validate_artifacts([str(qrels)])] == [(1, "qrels.grade")]
    qrels.write_text(f"q1 Q0 d2 {2**53}\n")
    assert load_qrels(str(qrels)) == {"q1": {"d2": 2**53}}


def test_corpus_line_nested_past_the_recursion_limit_is_malformed_json(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    path.write_text('{"docid": "d1", "text": "a"}\n' + "[" * 200_000 + "]" * 200_000 + "\n")
    assert [(d.line, d.rule) for d in validate_artifacts([str(path)])] == [(2, "corpus.json")]
    with pytest.raises(FormatError, match="malformed JSON") as exc:
        list(load_corpus(str(path)))
    assert exc.value.line == 2
    assert main(["index", "build", "--corpus", str(path), "--out", str(tmp_path / "i.rpidx")]) == 2
    assert f"{path}:2" in capsys.readouterr().err


@pytest.mark.parametrize("kind", LINE_KINDS)
def test_byte_order_mark_is_a_data_error_at_line_1(tmp_path, capsys, kind):
    path = tmp_path / f"file.{kind}"
    path.write_bytes(b"\xef\xbb\xbf" + "".join(line + "\n" for line in VALID[kind]).encode("utf-8"))
    mark = Diagnostic(str(path), 1, "encoding", "UTF-8 byte order mark")
    assert validate_artifacts([str(path)], kind=kind) == [mark]
    with pytest.raises(FormatError, match="byte order mark") as exc:
        LOADERS[kind](str(path))
    assert exc.value.line == 1
    assert main(["validate", "--kind", kind, str(path)]) == 2
    assert capsys.readouterr().out == f"{mark}\n1 problem(s) found\n"
