"""Ranked run lists and TREC-format run file IO.

A run maps qid -> list of (docid, score) sorted by score descending with
ties broken by ascending docid; docids are unique within a query. The file
format is the six-column TREC layout ``qid Q0 docid rank score tag`` with
ranks starting at 1 and scores written at full precision.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from operator import gt, itemgetter, lt, neg

from .errors import DataError, FormatError
from .validate import parse_run


DEFAULT_K = 1000  # results per query a retrieval run keeps


def check_k(k: int, minimum: int = 1, name: str = "k") -> None:
    """A cut-off, or the count ``name``, below ``minimum`` is a ValueError."""
    if k < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


def _canonical(pairs: list) -> bool:
    """Whether ``pairs`` are (docid, float) tuples in canonical order already:
    every producer emits that order, and a check of adjacent entries in C
    costs less than a sort whose key is a Python call per entry."""
    if set(map(type, pairs)) - {tuple}:
        return False
    scores = list(map(itemgetter(1), pairs))
    if set(map(type, scores)) - {float}:
        return False
    if all(map(gt, scores, scores[1:])):
        return True
    keys = list(zip(map(neg, scores), map(itemgetter(0), pairs)))
    return all(map(lt, keys, keys[1:]))


def sort_ranked(pairs: list[tuple[str, float]]) -> list[tuple[str, float]]:
    """Sort (docid, score) tuples into canonical order in place and return
    them: two stable sorts keyed in C, by docid, then by score descending."""
    pairs.sort(key=itemgetter(0))
    pairs.sort(key=itemgetter(1), reverse=True)
    return pairs


def rank_sorted(pairs: Iterable[tuple[str, float]]) -> list[tuple[str, float]]:
    """``pairs`` as a new list of (docid, float) tuples in canonical order."""
    pairs = list(pairs)
    if _canonical(pairs):
        return pairs
    return sort_ranked([(docid, float(score)) for docid, score in pairs])


@dataclass
class Run:
    entries: dict[str, list[tuple[str, float]]] = field(default_factory=dict)
    tag: str = "run"

    @classmethod
    def from_scores(cls, scores: Mapping[str, Mapping[str, float]], tag: str = "run") -> "Run":
        """Build a valid run from per-query docid -> score mappings."""
        return cls(entries={qid: rank_sorted(docs.items()) for qid, docs in scores.items()}, tag=tag)

    def scores(self, qid: str) -> dict[str, float]:
        return dict(self.entries.get(qid, []))

    def docids(self, qid: str) -> list[str]:
        return [docid for docid, _ in self.entries.get(qid, [])]

    def __len__(self) -> int:
        return sum(len(v) for v in self.entries.values())


def read_run(path: str) -> Run:
    """Read a TREC run file; entries are re-sorted into canonical order.

    Duplicate (qid, docid) pairs are rejected with their line number.
    """
    per_query: dict[str, dict[str, float]] = {}
    tag: str | None = None
    for _, (_, _, _, _, line_tag) in parse_run(path, scores=per_query):
        if tag is None:
            tag = line_tag
    return Run.from_scores(per_query, tag=tag or "run")


def read_probabilities(path: str) -> dict[str, dict[str, float]]:
    """qid -> docid -> score of a TREC run of model probabilities; rank and
    tag are not read, so a reranked run serves. A score outside [0, 1] is a
    FormatError at its line."""
    scores: dict[str, dict[str, float]] = {}
    for lineno, (qid, docid, _, score, _) in parse_run(path, scores=scores):
        if not 0.0 <= score <= 1.0:
            raise FormatError(f"score {score} for ({qid}, {docid}) outside [0, 1]", path=path, line=lineno)
    return scores


def write_run(run: Run, path: str, header: str | None = None) -> Run:
    """Write a run file with queries in sorted order and entries in
    canonical order, so the bytes are stable and valid.

    Returns the run that ``read_run`` gives back from the file: queries in
    sorted qid order without the empty ones, scores as floats, and tag "run"
    when no line was written. That holds for runs whose ids are single
    whitespace-free tokens and whose scores are finite, which the loaders
    enforce where ids and scores enter. A docid listed twice for one query is
    a DataError, as it is on read, and so is a tag that is not one token, before
    the file is opened. Scores are converted with ``float()``, so a numpy
    scalar prints as a Python float; a query's entries that are (docid,
    float) tuples in canonical order already are written as given.
    """
    if run.tag.split() != [run.tag]:
        raise DataError(f"{path}: run tag {run.tag!r} is empty or contains whitespace")
    entries: dict[str, list[tuple[str, float]]] = {}
    tail = f" {run.tag}\n"
    ranks: list[str] = []  # the rank column " 1 ", " 2 ", ..., as deep as the deepest query so far
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for qid in sorted(run.entries):
            ranked = rank_sorted(run.entries[qid])
            if not ranked:
                continue
            docids, scores = zip(*ranked)
            if len(set(docids)) != len(ranked):
                raise DataError(f"{path}: duplicate document for query {qid!r}")
            # the five columns of every line filled by slice, so the loop runs in C
            n = len(ranked)
            ranks.extend(f" {rank} " for rank in range(len(ranks) + 1, n + 1))
            parts = [f"{qid} Q0 "] * (5 * n)
            parts[1::5] = docids
            parts[2::5] = ranks[:n]
            parts[3::5] = map(repr, scores)
            parts[4::5] = [tail] * n
            fh.write("".join(parts))
            entries[qid] = ranked
    return Run(entries=entries, tag=run.tag if entries else "run")
