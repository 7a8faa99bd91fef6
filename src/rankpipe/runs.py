"""Ranked run lists and TREC-format run file IO.

A run maps qid -> list of (docid, score) sorted by score descending with
ties broken by ascending docid; docids are unique within a query. The file
format is the six-column TREC layout ``qid Q0 docid rank score tag`` with
ranks starting at 1 and scores written at full precision.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from .validate import parse_run


def rank_sorted(pairs: Iterable[tuple[str, float]]) -> list[tuple[str, float]]:
    return sorted(pairs, key=lambda p: (-p[1], p[0]))


@dataclass
class Run:
    entries: dict[str, list[tuple[str, float]]] = field(default_factory=dict)
    tag: str = "run"

    @classmethod
    def from_scores(cls, scores: Mapping[str, Mapping[str, float]], tag: str = "run") -> "Run":
        """Build a valid run from per-query docid -> score mappings."""
        entries = {
            qid: rank_sorted((docid, float(s)) for docid, s in docs.items())
            for qid, docs in scores.items()
        }
        return cls(entries=entries, tag=tag)

    def scores(self, qid: str) -> dict[str, float]:
        return dict(self.entries.get(qid, []))

    def docids(self, qid: str) -> list[str]:
        return [docid for docid, _ in self.entries.get(qid, [])]

    @property
    def qids(self) -> list[str]:
        return list(self.entries)

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


def write_run(run: Run, path: str, header: str | None = None) -> None:
    """Write a run file with queries in sorted order for stable bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for qid in sorted(run.entries):
            for rank, (docid, score) in enumerate(run.entries[qid], 1):
                fh.write(f"{qid} Q0 {docid} {rank} {score!r} {run.tag}\n")
