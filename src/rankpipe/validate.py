"""Artifact file validation against the documented formats.

Unlike the loaders, which raise at the first problem, these checkers scan
whole files and report every violation as a diagnostic (file, line, rule),
which is what the CLI ``validate`` subcommand prints.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

RUN = "run"
QRELS = "qrels"
PAIRS = "pairs"
VECTORS = "vectors"
CORPUS = "corpus"
TOPICS = "topics"

KINDS = (RUN, QRELS, PAIRS, VECTORS, CORPUS, TOPICS)

# the provenance labels a training pair may carry (checked here and by forge.TrainingPair)
SOURCES = ("annotation", "negative", "q2q2d", "pseudo")

_SUFFIXES = {
    ".trec": RUN,
    ".run": RUN,
    ".qrels": QRELS,
    ".pairs.tsv": PAIRS,
    ".vec.tsv": VECTORS,
    ".jsonl": CORPUS,
    ".topics.tsv": TOPICS,
}


@dataclass(frozen=True)
class Diagnostic:
    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def detect_kind(path: str) -> str | None:
    name = path.lower()
    for suffix, kind in _SUFFIXES.items():
        if name.endswith(suffix):
            return kind
    basename = name.rsplit("/", 1)[-1]
    if "qrels" in basename:
        return QRELS
    if "topics" in basename and basename.endswith(".tsv"):
        return TOPICS
    return None


def _data_lines(path: str) -> list[tuple[int, str]]:
    out: list[tuple[int, str]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.rstrip("\n")
            if not stripped.strip() or stripped.startswith("#"):
                continue
            out.append((lineno, stripped))
    return out


def validate_run_file(path: str) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    seen: set[tuple[str, str]] = set()
    prev: dict[str, tuple[float, str]] = {}
    ranks: dict[str, int] = {}
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 6:
            diags.append(Diagnostic(path, lineno, "run.columns", f"expected 6 columns, got {len(parts)}"))
            continue
        qid, _, docid, rank_str, score_str, _ = parts
        try:
            rank = int(rank_str)
        except ValueError:
            diags.append(Diagnostic(path, lineno, "run.rank", f"non-integer rank {rank_str!r}"))
            continue
        try:
            score = float(score_str)
        except ValueError:
            diags.append(Diagnostic(path, lineno, "run.score", f"non-numeric score {score_str!r}"))
            continue
        if not math.isfinite(score):
            diags.append(Diagnostic(path, lineno, "run.score", f"non-finite score {score_str!r}"))
            continue
        if (qid, docid) in seen:
            diags.append(Diagnostic(path, lineno, "run.duplicate", f"duplicate ({qid}, {docid})"))
            continue
        seen.add((qid, docid))
        expected_rank = ranks.get(qid, 0) + 1
        if rank != expected_rank:
            diags.append(Diagnostic(path, lineno, "run.rank", f"rank {rank}, expected {expected_rank}"))
        ranks[qid] = expected_rank
        if qid in prev:
            prev_score, prev_docid = prev[qid]
            if score > prev_score or (score == prev_score and docid < prev_docid):
                diags.append(
                    Diagnostic(path, lineno, "run.order", f"({qid}, {docid}) out of ranked order")
                )
        prev[qid] = (score, docid)
    return diags


def validate_qrels_file(path: str) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    seen: set[tuple[str, str]] = set()
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 4:
            diags.append(Diagnostic(path, lineno, "qrels.columns", f"expected 4 columns, got {len(parts)}"))
            continue
        qid, _, docid, grade_str = parts
        try:
            grade = int(grade_str)
        except ValueError:
            diags.append(Diagnostic(path, lineno, "qrels.grade", f"non-integer grade {grade_str!r}"))
            continue
        if grade < 0:
            diags.append(Diagnostic(path, lineno, "qrels.grade", f"negative grade {grade}"))
        if (qid, docid) in seen:
            diags.append(Diagnostic(path, lineno, "qrels.duplicate", f"duplicate ({qid}, {docid})"))
        seen.add((qid, docid))
    return diags


def validate_pairs_file(path: str) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for lineno, line in _data_lines(path):
        parts = line.split("\t", 4)
        if len(parts) != 5:
            diags.append(Diagnostic(path, lineno, "pairs.columns", f"expected 5 columns, got {len(parts)}"))
            continue
        qid, docid, label_str, source, _ = parts
        try:
            label = float(label_str)
        except ValueError:
            diags.append(Diagnostic(path, lineno, "pairs.label", f"non-numeric label {label_str!r}"))
            continue
        if not 0.0 <= label <= 1.0:
            diags.append(Diagnostic(path, lineno, "pairs.label", f"label {label} outside [0, 1]"))
        if source not in SOURCES:
            diags.append(Diagnostic(path, lineno, "pairs.source", f"unknown source {source!r}"))
            continue
        if source == "negative" and label != 0.0:
            diags.append(Diagnostic(path, lineno, "pairs.label", "negative pair with nonzero label"))
        if source == "annotation" and label not in (0.0, 1.0):
            diags.append(Diagnostic(path, lineno, "pairs.label", "annotation pair with non-binary label"))
    return diags


def validate_vectors_file(path: str) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    dim: int | None = None
    seen: set[str] = set()
    for lineno, line in _data_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            diags.append(Diagnostic(path, lineno, "vectors.columns", "expected 'id<TAB>v1,v2,...'"))
            continue
        vid, payload = parts
        try:
            values = [float(v) for v in payload.split(",")]
        except ValueError:
            diags.append(Diagnostic(path, lineno, "vectors.value", f"non-numeric component for {vid!r}"))
            continue
        if not all(math.isfinite(v) for v in values):
            diags.append(Diagnostic(path, lineno, "vectors.value", f"non-finite component for {vid!r}"))
        if dim is None:
            dim = len(values)
        elif len(values) != dim:
            diags.append(
                Diagnostic(path, lineno, "vectors.dim", f"{vid!r} has {len(values)} components, expected {dim}")
            )
        if vid in seen:
            diags.append(Diagnostic(path, lineno, "vectors.duplicate", f"duplicate id {vid!r}"))
        seen.add(vid)
    return diags


def validate_corpus_file(path: str) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    seen: set[str] = set()
    for lineno, line in _data_lines(path):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            diags.append(Diagnostic(path, lineno, "corpus.json", f"malformed JSON: {exc.msg}"))
            continue
        if not isinstance(record, dict):
            diags.append(Diagnostic(path, lineno, "corpus.json", "record is not an object"))
            continue
        docid = record.get("docid")
        if not isinstance(docid, str) or not docid:
            diags.append(Diagnostic(path, lineno, "corpus.docid", "missing or empty 'docid'"))
            continue
        text = record.get("text")
        if not isinstance(text, str) or not text.strip():
            diags.append(Diagnostic(path, lineno, "corpus.text", f"document {docid!r} has empty 'text'"))
        if docid in seen:
            diags.append(Diagnostic(path, lineno, "corpus.duplicate", f"duplicate docid {docid!r}"))
        seen.add(docid)
    return diags


def validate_topics_file(path: str) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    seen: set[str] = set()
    for lineno, line in _data_lines(path):
        parts = line.split("\t", 1)
        if len(parts) != 2:
            diags.append(Diagnostic(path, lineno, "topics.columns", "expected 'qid<TAB>text'"))
            continue
        qid = parts[0]
        if qid in seen:
            diags.append(Diagnostic(path, lineno, "topics.duplicate", f"duplicate qid {qid!r}"))
        seen.add(qid)
    return diags


_VALIDATORS = {
    RUN: validate_run_file,
    QRELS: validate_qrels_file,
    PAIRS: validate_pairs_file,
    VECTORS: validate_vectors_file,
    CORPUS: validate_corpus_file,
    TOPICS: validate_topics_file,
}


def validate_artifacts(paths: list[str], kind: str | None = None) -> list[Diagnostic]:
    """Validate each file against its format; kind is inferred from the
    filename unless given explicitly."""
    diags: list[Diagnostic] = []
    for path in paths:
        file_kind = kind or detect_kind(path)
        if file_kind is None:
            diags.append(Diagnostic(path, 0, "kind", "cannot infer file kind; pass --kind"))
            continue
        if file_kind not in _VALIDATORS:
            diags.append(Diagnostic(path, 0, "kind", f"unknown kind {file_kind!r}"))
            continue
        diags.extend(_VALIDATORS[file_kind](path))
    return diags
