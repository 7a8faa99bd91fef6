"""Rank-cut relevance metrics: nDCG@k, recall@k, and macro averages.

Gains are linear (rel / log2(rank + 1)); for binary judgments this
coincides with the exponential-gain variant. Queries without a positive
judgment, and run queries absent from the qrels, are skipped and counted
rather than scored as zero.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from .corpus import positives
from .runs import Run, check_k

NDCG = "ndcg"
RECALL = "recall"


@dataclass
class MetricReport:
    metric: str
    k: int
    per_query: dict[str, float] = field(default_factory=dict)
    skipped_queries: int = 0

    @property
    def evaluated_queries(self) -> int:
        return len(self.per_query)

    @property
    def mean(self) -> float:
        if not self.per_query:
            return 0.0
        return math.fsum(self.per_query.values()) / len(self.per_query)


def _dcg(grades: Iterable[int], k: int) -> float:
    total = 0.0
    for i, grade in enumerate(grades, 1):
        if i > k:
            break
        total += grade / math.log2(i + 1)
    return total


def ndcg_at_k(run: Run, qrels: Mapping[str, Mapping[str, int]], k: int = 10) -> MetricReport:
    """Normalized discounted cumulative gain at cutoff ``k`` per run query.

    The ideal ordering sorts that query's judged grades descending and cuts
    at k; unjudged retrieved documents count as grade 0.
    """
    check_k(k)
    report = MetricReport(metric=NDCG, k=k)
    for qid, ranked in run.entries.items():
        judged = qrels.get(qid, {})
        if not positives(judged):
            report.skipped_queries += 1
            continue
        gains = [judged.get(docid, 0) for docid, _ in ranked[:k]]
        ideal = sorted(judged.values(), reverse=True)
        idcg = _dcg(ideal, k)
        report.per_query[qid] = _dcg(gains, k) / idcg
    return report


def recall_at_k(run: Run, qrels: Mapping[str, Mapping[str, int]], k: int) -> MetricReport:
    """Fraction of each query's relevant documents found in the top k."""
    check_k(k, 0)
    report = MetricReport(metric=RECALL, k=k)
    for qid, ranked in run.entries.items():
        relevant = positives(qrels.get(qid, {}))
        if not relevant:
            report.skipped_queries += 1
            continue
        top = {docid for docid, _ in ranked[:k]}
        report.per_query[qid] = len(relevant & top) / len(relevant)
    return report


def macro_average(reports: Iterable[MetricReport]) -> float:
    """Unweighted mean of per-language report means."""
    means = [report.mean for report in reports]
    if not means:
        raise ValueError("macro_average needs at least one report")
    return math.fsum(means) / len(means)
