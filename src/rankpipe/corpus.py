"""Documents, queries and judgments: loading and statistics for line-based
retrieval collections.

Three on-disk formats live here:

* corpus: one JSON object per line with string fields ``docid``, ``title``,
  ``text`` (unknown extra fields are ignored);
* topics: two-column TSV ``qid<TAB>query text``, no header;
* qrels: whitespace-delimited ``qid Q0 docid grade``, no header.

``load_topics`` returns qid -> query text and ``load_qrels`` qid -> docid ->
grade (an integer in [0, 2**53]), each in file order; ``positives`` holds
the one relevance rule, grade >= 1. The loaders build these from the records
of the shared line parsers in ``validate``, which also define the UTF-8 and
comment rules.
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


def positives(judged: Mapping[str, int]) -> set[str]:
    """The relevant documents of one query's judgments: those of grade >= 1."""
    return {docid for docid, grade in judged.items() if grade >= 1}


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


def load_qrels(path: str) -> dict[str, dict[str, int]]:
    """Load whitespace-delimited qrels ``qid Q0 docid grade`` as qid -> docid
    -> grade, in file order."""
    qrels: dict[str, dict[str, int]] = {}
    for _, (qid, docid, grade) in parse_qrels(path):
        qrels.setdefault(qid, {})[docid] = grade
    return qrels


def write_qrels(qrels: Mapping[str, Mapping[str, int]], path: str) -> None:
    """Write qrels sorted by (qid, docid) so output bytes are deterministic."""
    with open(path, "w", encoding="utf-8") as fh:
        for qid in sorted(qrels):
            for docid, grade in sorted(qrels[qid].items()):
                fh.write(f"{qid} Q0 {docid} {grade}\n")


def corpus_stats(
    corpus: Iterable[Document],
    topics_by_split: Mapping[str, Iterable[str]],
    qrels_by_split: Mapping[str, Mapping[str, Mapping[str, int]]],
    language: str = "",
) -> StatsRow:
    """Count queries (the qids of each split), judgments, and passages for one language."""
    queries = {split: sum(1 for _ in topics) for split, topics in topics_by_split.items()}
    judgments = {split: sum(map(len, qrels.values())) for split, qrels in qrels_by_split.items()}
    passages = sum(1 for _ in corpus)
    return StatsRow(language=language, queries=queries, judgments=judgments, passages=passages)
