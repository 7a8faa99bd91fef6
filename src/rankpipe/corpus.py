"""Documents, queries and judgments: loading and statistics for line-based
retrieval collections.

Three on-disk formats live here:

* corpus: one JSON object per line with string fields ``docid``, ``title``,
  ``text`` (unknown extra fields are ignored);
* topics: two-column TSV ``qid<TAB>query text``, no header;
* qrels: whitespace-delimited ``qid Q0 docid grade``, no header.

The loaders build objects from the records of the shared line parsers in
``validate``, which also define the UTF-8 and comment rules.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

from .validate import parse_corpus, parse_qrels, parse_topics

SPLITS = ("train", "dev", "test-a", "test-b")


@dataclass(frozen=True)
class Document:
    """A passage: the unit of retrieval."""

    docid: str
    title: str
    text: str


class JudgmentSet:
    """Graded relevance labels keyed by (qid, docid), grades >= 0."""

    def __init__(self, entries: Mapping[tuple[str, str], int] | None = None):
        self._by_qid: dict[str, dict[str, int]] = {}
        if entries:
            for (qid, docid), grade in entries.items():
                self.add(qid, docid, grade)

    def add(self, qid: str, docid: str, grade: int) -> None:
        if grade < 0:
            raise ValueError(f"negative grade for ({qid}, {docid})")
        docs = self._by_qid.setdefault(qid, {})
        if docid in docs:
            raise ValueError(f"duplicate judgment for ({qid}, {docid})")
        docs[docid] = int(grade)

    def judged_docids(self, qid: str) -> dict[str, int]:
        return dict(self._by_qid.get(qid, {}))

    def positives(self, qid: str) -> set[str]:
        return {d for d, g in self._by_qid.get(qid, {}).items() if g >= 1}

    @property
    def qids(self) -> list[str]:
        return list(self._by_qid)

    def items(self) -> Iterator[tuple[str, str, int]]:
        for qid, docs in self._by_qid.items():
            for docid, grade in docs.items():
                yield qid, docid, grade

    def __len__(self) -> int:
        return sum(len(d) for d in self._by_qid.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JudgmentSet):
            return NotImplemented
        return self._by_qid == other._by_qid

    def __repr__(self) -> str:
        return f"JudgmentSet({len(self)} judgments, {len(self._by_qid)} queries)"


@dataclass
class StatsRow:
    """Per-language collection statistics: queries and judgments per split."""

    language: str
    queries: dict[str, int]
    judgments: dict[str, int]
    passages: int


def load_corpus(path: str) -> Iterator[Document]:
    """Stream documents from a JSON-lines corpus file.

    Yields in file order with constant per-record memory; duplicate docids
    and malformed records raise with the offending line number.
    """
    for _, (docid, title, text) in parse_corpus(path):
        yield Document(docid=docid, title=title, text=text)


def load_topics(path: str) -> dict[str, str]:
    """Load a two-column topics TSV as qid -> query text, in file order; tabs
    after the first stay in the text."""
    return {qid: text for _, (qid, text) in parse_topics(path)}


def load_qrels(path: str) -> JudgmentSet:
    """Load whitespace-delimited qrels ``qid Q0 docid grade``."""
    judgments = JudgmentSet()
    for _, (qid, docid, grade) in parse_qrels(path):
        judgments.add(qid, docid, grade)
    return judgments


def write_qrels(judgments: JudgmentSet, path: str, header: str | None = None) -> None:
    """Write qrels sorted by (qid, docid) so output bytes are deterministic."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for qid, docid, grade in sorted(judgments.items()):
            fh.write(f"{qid} Q0 {docid} {grade}\n")


def corpus_stats(
    corpus: Iterable[Document],
    topics_by_split: Mapping[str, Iterable[str]],
    qrels_by_split: Mapping[str, JudgmentSet],
    language: str = "",
) -> StatsRow:
    """Count queries (the qids of each split), judgments, and passages for one language."""
    queries = {split: sum(1 for _ in topics) for split, topics in topics_by_split.items()}
    judgments = {split: len(qrels) for split, qrels in qrels_by_split.items()}
    passages = sum(1 for _ in corpus)
    return StatsRow(language=language, queries=queries, judgments=judgments, passages=passages)
