"""Per-query score normalization, weighted run fusion, and candidate pooling.

Sparse and dense scores live on incomparable scales, so each system's run is
min-max normalized per query before a weighted sum over the candidate union;
a document missing from one run contributes 0 from that run. The fused run's
top-K prefix per query is the candidate pool fed to sampling and reranking.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from operator import itemgetter

from .errors import DataError
from .runs import Run, check_k, sort_ranked

DEFAULT_POOL_K = 200


def normalize_run(run: Run) -> Run:
    """Min-max normalize scores per query; a degenerate query (max == min)
    maps every score to 1.0. Ranking order is unchanged."""
    entries: dict[str, list[tuple[str, float]]] = {}
    for qid, ranked in run.entries.items():
        if not ranked:
            entries[qid] = []
            continue
        values = list(map(itemgetter(1), ranked))
        lo, hi = min(values), max(values)
        if hi == lo:
            entries[qid] = [(docid, 1.0) for docid, _ in ranked]
        else:
            span = hi - lo
            if not math.isfinite(span):
                raise DataError(f"scores of query {qid!r} span more than the float range; cannot min-max normalize")
            entries[qid] = [(docid, (s - lo) / span) for docid, s in ranked]
    return Run(entries=entries, tag=run.tag)


def check_weights(weights: Sequence[float]) -> None:
    """The one rule for fusion and ensemble weights: each is finite and >= 0,
    and their sum is positive and inside the float range, since a candidate
    at the top of every min-max normalized run scores that sum; a
    ValueError names the values otherwise."""
    try:
        valid = all(math.isfinite(w) and w >= 0 for w in weights) and math.fsum(weights) > 0
    except OverflowError:  # fsum's exact sum passes the float range
        valid = False
    if not valid:
        raise ValueError(f"weights {list(weights)} must be finite and >= 0 with a positive sum inside the float range")


def parse_weights(raw: str) -> list[float]:
    """A comma-separated weight list that passes ``check_weights``; a
    ValueError names a value that is not a finite number."""
    weights = []
    for value in raw.split(","):
        try:
            weight = float(value)
        except ValueError:
            weight = math.nan
        if not math.isfinite(weight):
            raise ValueError(f"weight {value.strip()!r} is not a finite number")
        weights.append(weight)
    check_weights(weights)
    return weights


def check_legs(n_runs: int, weights: Sequence[float]) -> None:
    """Weights that pass ``check_weights``, one per run; a ValueError otherwise."""
    if n_runs != len(weights):
        raise ValueError(f"{n_runs} runs but {len(weights)} weights")
    check_weights(weights)


def fuse(runs: Sequence[Run], weights: Sequence[float]) -> Run:
    """Weighted per-(qid, docid) sum over the union of run candidates.

    Callers normalize first when combining heterogeneous systems. Weights
    that break ``check_weights`` or do not match the runs one to one are a
    ValueError; a weighted sum past the float range is a DataError.
    """
    check_legs(len(runs), weights)
    entries: dict[str, list[tuple[str, float]]] = {}
    for qid in dict.fromkeys(qid for run in runs for qid in run.entries):
        legs = [(run.entries.get(qid, ()), weight) for run, weight in zip(runs, weights)]
        try:
            fused = _weighted_sums(legs)
        except (OverflowError, ValueError):  # a partial sum overflows, or inf meets -inf
            fused = None
        if fused is None or not all(map(math.isfinite, fused.values())):
            raise DataError(f"weighted scores of query {qid!r} overflow the float range")
        entries[qid] = sort_ranked(list(fused.items()))
    return Run(entries=entries, tag="hybrid")


def _weighted_sums(legs: list[tuple[Sequence[tuple[str, float]], float]]) -> dict[str, float]:
    """docid -> math.fsum of its weighted scores, which is exactly rounded, so
    the order of the legs does not matter. For one or two parts a sum from
    +0.0 is the same float: an IEEE addition is exactly rounded too, and +0.0
    turns a -0.0 sum into the +0.0 that fsum returns."""
    if len(legs) <= 2:
        sums: dict[str, float] = {}
        for ranked, weight in legs:
            for docid, score in ranked:
                sums[docid] = sums.get(docid, 0.0) + weight * score
        return sums
    parts: dict[str, list[float]] = {}
    for ranked, weight in legs:
        for docid, score in ranked:
            parts.setdefault(docid, []).append(weight * score)
    return {docid: math.fsum(values) for docid, values in parts.items()}


def cut_pool(run: Run, k: int = DEFAULT_POOL_K) -> Run:
    """Keep the first min(k, len) entries per query, preserving run order and tag."""
    check_k(k)
    return Run(entries={qid: ranked[:k] for qid, ranked in run.entries.items()}, tag=run.tag)
