"""The line formats of the toolkit's text files, parsed once for the loaders
and for ``validate``.

Every reader goes through ``data_lines``. Each artifact kind has one parser
generator, ``parse_<kind>(path, report)``, that yields ``(line number,
record)`` for every valid line and passes each bad line to ``report`` as one
Diagnostic, then skips it. The loaders pass ``raise_diagnostic``, so the
first problem raises FormatError; ``validate_artifacts`` collects them all.
"""
from __future__ import annotations

import json
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import TypeVar

from .errors import FormatError

# the provenance labels a training pair may carry (checked by check_pair_label)
SOURCES = ("annotation", "negative", "q2q2d", "pseudo")

_SUFFIXES = {
    ".trec": "run",
    ".run": "run",
    ".qrels": "qrels",
    ".pairs.tsv": "pairs",
    ".vec.tsv": "vectors",
    ".jsonl": "corpus",
    ".topics.tsv": "topics",
}


@dataclass(frozen=True)
class Diagnostic:
    """One problem in one file; line 0 stands for the whole file."""

    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


Report = Callable[[Diagnostic], None]
Records = Iterator[tuple[int, tuple]]
T = TypeVar("T")


class RecordError(ValueError):
    """A record that breaks its format, tagged with the rule it breaks."""

    def __init__(self, rule: str, message: str):
        super().__init__(message)
        self.rule = rule


def raise_diagnostic(diag: Diagnostic) -> None:
    """The loaders' sink: the first problem aborts the load."""
    raise FormatError(diag.message, path=diag.path, line=diag.line or None)


def detect_kind(path: str) -> str | None:
    name = path.lower()
    for suffix, kind in _SUFFIXES.items():
        if name.endswith(suffix):
            return kind
    basename = name.rsplit("/", 1)[-1]
    if "qrels" in basename:
        return "qrels"
    if "topics" in basename and basename.endswith(".tsv"):
        return "topics"
    return None


def data_lines(
    path: str, report: Report = raise_diagnostic, parse: Callable[[str], T] = str
) -> Iterator[tuple[int, T]]:
    """Yield (line number, ``parse(line)``) for each data line of a UTF-8
    text file.

    Lines end at ``\\n`` and are decoded one at a time, so invalid UTF-8 is
    reported with its line number; the ``\\n`` or ``\\r\\n`` ending is
    removed. Blank lines and comment lines, whose first non-blank character
    is ``#``, are skipped. A RecordError from ``parse`` is reported and its
    line skipped.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.rstrip(b"\r\n").decode("utf-8")
                first = line.lstrip()
                if first and not first.startswith("#"):
                    yield lineno, parse(line)
            except UnicodeDecodeError as exc:
                report(Diagnostic(path, lineno, "encoding", f"invalid UTF-8: {exc}"))
            except RecordError as exc:
                report(Diagnostic(path, lineno, exc.rule, str(exc)))


def _number(convert: Callable[[str], T], text: str, rule: str, what: str) -> T:
    try:
        return convert(text)
    except ValueError:
        raise RecordError(rule, f"{what} {text!r}") from None


def _first_use(seen: set, key: object, rule: str, message: str) -> None:
    if key in seen:
        raise RecordError(rule, message)
    seen.add(key)


def check_pair_label(label: float, source: str) -> None:
    """The label rules of a training pair; raises RecordError (a ValueError)."""
    if source not in SOURCES:
        raise RecordError("pairs.source", f"unknown pair source {source!r}")
    if not 0.0 <= label <= 1.0:
        raise RecordError("pairs.label", f"label {label} outside [0, 1]")
    if source == "negative" and label != 0.0:
        raise RecordError("pairs.label", "negative pairs must carry label 0")
    if source == "annotation" and label not in (0.0, 1.0):
        raise RecordError("pairs.label", "annotation pairs must carry label 0 or 1")


def parse_corpus(path: str, report: Report = raise_diagnostic) -> Records:
    """Corpus JSON lines -> (docid, title, text); a missing title is ''."""
    seen: set[str] = set()

    def parse(line: str) -> tuple:
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RecordError("corpus.json", f"malformed JSON: {exc.msg}") from None
        if not isinstance(record, dict):
            raise RecordError("corpus.json", "record is not an object")
        docid = record.get("docid")
        title = record.get("title", "")
        text = record.get("text")
        if not isinstance(docid, str) or not docid:
            raise RecordError("corpus.docid", "missing or empty 'docid'")
        if not isinstance(title, str):
            raise RecordError("corpus.title", f"document {docid!r}: 'title' is not a string")
        if not isinstance(text, str) or not text.strip():
            raise RecordError("corpus.text", f"document {docid!r} has empty 'text'")
        _first_use(seen, docid, "corpus.duplicate", f"duplicate docid {docid!r}")
        return docid, title, text

    return data_lines(path, report, parse)


def parse_topics(path: str, report: Report = raise_diagnostic) -> Records:
    """Topics TSV -> (qid, text); tabs after the first stay in the text."""
    seen: set[str] = set()

    def parse(line: str) -> tuple:
        qid, tab, text = line.partition("\t")
        if not tab:
            raise RecordError("topics.columns", "expected 'qid<TAB>text'")
        _first_use(seen, qid, "topics.duplicate", f"duplicate qid {qid!r}")
        return qid, text

    return data_lines(path, report, parse)


def parse_qrels(path: str, report: Report = raise_diagnostic) -> Records:
    """Qrels ``qid Q0 docid grade`` -> (qid, docid, grade), grades >= 0."""
    seen: set[tuple[str, str]] = set()

    def parse(line: str) -> tuple:
        parts = line.split()
        if len(parts) != 4:
            raise RecordError("qrels.columns", f"expected 4 columns, got {len(parts)}")
        qid, _, docid, grade_str = parts
        grade = _number(int, grade_str, "qrels.grade", "non-integer grade")
        if grade < 0:
            raise RecordError("qrels.grade", f"negative grade {grade} for ({qid}, {docid})")
        _first_use(seen, (qid, docid), "qrels.duplicate", f"duplicate judgment for ({qid}, {docid})")
        return qid, docid, grade

    return data_lines(path, report, parse)


def parse_run(path: str, report: Report = raise_diagnostic, scores: dict | None = None) -> Records:
    """TREC run lines -> (qid, docid, rank as written, score, tag); scores
    are finite and each (qid, docid) appears once. The duplicate check keeps
    qid -> docid -> score in ``scores``, so a loader can pass a dict and
    build the run from it."""
    seen: dict[str, dict[str, float]] = {} if scores is None else scores

    def parse(line: str) -> tuple:
        parts = line.split()
        if len(parts) != 6:
            raise RecordError("run.columns", f"expected 6 columns, got {len(parts)}")
        qid, _, docid, rank, score_str, tag = parts
        # no helper calls here: run files are the largest inputs
        try:
            score = float(score_str)
        except ValueError:
            raise RecordError("run.score", f"non-numeric score {score_str!r}") from None
        if not math.isfinite(score):
            raise RecordError("run.score", f"non-finite score {score_str!r}")
        docs = seen.get(qid)
        if docs is None:
            docs = seen[qid] = {}
        if docid in docs:
            raise RecordError("run.duplicate", f"duplicate document {docid!r} for query {qid!r}")
        docs[docid] = score
        return qid, docid, rank, score, tag

    return data_lines(path, report, parse)


def parse_pairs(path: str, report: Report = raise_diagnostic) -> Records:
    """Pairs TSV -> (qid, docid, label, source, query text)."""

    def parse(line: str) -> tuple:
        parts = line.split("\t", 4)
        if len(parts) != 5:
            raise RecordError("pairs.columns", f"expected 5 columns, got {len(parts)}")
        qid, docid, label_str, source, text = parts
        label = _number(float, label_str, "pairs.label", "non-numeric label")
        check_pair_label(label, source)
        return qid, docid, label, source, text

    return data_lines(path, report, parse)


def parse_vectors(path: str, report: Report = raise_diagnostic) -> Records:
    """Vector TSV -> (id, components); every vector has the first one's
    dimension, and a file without vectors is a problem of the whole file."""
    seen: set[str] = set()
    dims: list[int] = []

    def parse(line: str) -> tuple:
        parts = line.split("\t")
        if len(parts) != 2:
            raise RecordError("vectors.columns", "expected 'id<TAB>v1,v2,...'")
        vid, payload = parts
        try:
            values = [float(v) for v in payload.split(",")]
        except ValueError:
            raise RecordError("vectors.value", f"non-numeric component for id {vid!r}") from None
        if not all(map(math.isfinite, values)):
            raise RecordError("vectors.value", f"non-finite component for id {vid!r}")
        if not dims:
            dims.append(len(values))
        elif len(values) != dims[0]:
            raise RecordError("vectors.dim", f"vector {vid!r} has {len(values)} components, expected {dims[0]}")
        _first_use(seen, vid, "vectors.duplicate", f"duplicate vector id {vid!r}")
        return vid, values

    yield from data_lines(path, report, parse)
    if not seen:
        report(Diagnostic(path, 0, "vectors.empty", "no vectors"))


def _check_run_order(path: str, records: Records, report: Report) -> None:
    """The canonical order of a written run, which read_run tolerates
    because it re-sorts: ranks count 1, 2, ... per query, and scores fall
    with ties broken by ascending docid."""
    last: dict[str, tuple[int, float, str]] = {}
    for lineno, (qid, docid, rank, score, _) in records:
        expected, prev_score, prev_docid = last.get(qid, (0, math.inf, ""))
        expected += 1
        last[qid] = (expected, score, docid)
        try:
            rank_ok = int(rank) == expected
        except ValueError:
            rank_ok = False
        if not rank_ok:
            report(Diagnostic(path, lineno, "run.rank", f"rank {rank}, expected {expected}"))
        elif score > prev_score or (score == prev_score and docid < prev_docid):
            report(Diagnostic(path, lineno, "run.order", f"({qid}, {docid}) out of ranked order"))


_PARSERS = {
    "run": parse_run,
    "qrels": parse_qrels,
    "pairs": parse_pairs,
    "vectors": parse_vectors,
    "corpus": parse_corpus,
    "topics": parse_topics,
}
KINDS = tuple(_PARSERS)


def validate_artifacts(paths: list[str], kind: str | None = None) -> list[Diagnostic]:
    """Check each file against its format and return every problem, one per
    bad line; kind is inferred from the filename unless given explicitly."""
    diags: list[Diagnostic] = []
    for path in paths:
        file_kind = kind or detect_kind(path)
        if file_kind is None:
            diags.append(Diagnostic(path, 0, "kind", "cannot infer file kind; pass --kind"))
            continue
        if file_kind not in _PARSERS:
            diags.append(Diagnostic(path, 0, "kind", f"unknown kind {file_kind!r}"))
            continue
        records = _PARSERS[file_kind](path, diags.append)
        if file_kind == "run":
            _check_run_order(path, records, diags.append)
        else:
            for _ in records:
                pass
    return diags
