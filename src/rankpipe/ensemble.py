"""Correlation-aware combination of multiple reranker runs.

Base weights reflect how much each system is trusted (e.g. its standalone
score); systems whose predictions correlate strongly with the rest are then
damped so the ensemble stays diverse: w_i = max(0, base_i * (1 - lambda *
mean_corr_i)), renormalized to sum 1. Correlation is Spearman's rank
correlation averaged over shared queries, since reranker score scales are
not comparable.

Weights follow ``fusion.check_weights``, the rule fusion uses. Means add
with ``math.fsum``, which is exactly rounded, so no result depends on the
order of its terms; the arithmetic is plain Python, so ``ensemble`` starts
without numpy.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import groupby

from .errors import DataError
from .fusion import check_weights, fuse, normalize_run
from .runs import Run


@dataclass
class EnsembleConfig:
    base_weights: list[float]
    lam: float = 0.5

    def __post_init__(self) -> None:
        check_weights(self.base_weights)
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must be in [0, 1]")

    def check_run_count(self, n_runs: int) -> None:
        if len(self.base_weights) != n_runs:
            raise ValueError(f"{len(self.base_weights)} base weights for {n_runs} runs")


def _average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks; tied values share the mean of the ranks they span,
    which is always a half-integer, so the result is exact."""
    ranks = [0.0] * len(values)
    start = 0
    for _, tied in groupby(sorted(range(len(values)), key=values.__getitem__), key=values.__getitem__):
        members = list(tied)
        end = start + len(members)
        for i in members:
            ranks[i] = (start + end + 1) / 2
        start = end
    return ranks


def _spearman(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Spearman rho with average ranks for ties; None when undefined
    (either side constant).

    Average ranks sum to n(n+1)/2, so their mean is a half-integer and every
    deviation, product and sum below is exact: only the divisions and the
    square roots round, in the same order as numpy's ``std`` and ``mean``.
    """
    n = len(x)
    dx = [r - (n + 1) / 2 for r in _average_ranks(x)]
    dy = [r - (n + 1) / 2 for r in _average_ranks(y)]
    sx = math.sqrt(sum(d * d for d in dx) / n)
    sy = math.sqrt(sum(d * d for d in dy) / n)
    if sx == 0.0 or sy == 0.0:
        return None
    return sum(a * b for a, b in zip(dx, dy)) / n / (sx * sy)


def correlation_matrix(runs: Sequence[Run]) -> list[list[float]]:
    """Pairwise mean Spearman correlation over shared queries.

    For each query both runs rank, correlation is computed on the
    intersection of their candidates; queries with fewer than 2 shared
    candidates (or a constant score vector) are skipped. A pair with no
    usable query at all is an error. A single run gives ``[[1.0]]``.
    """
    n = len(runs)
    corr = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rhos: list[float] = []
            shared_qids = set(runs[i].entries) & set(runs[j].entries)
            for qid in sorted(shared_qids):
                scores_i = runs[i].scores(qid)
                scores_j = runs[j].scores(qid)
                common = sorted(set(scores_i) & set(scores_j))
                if len(common) < 2:
                    continue
                rho = _spearman([scores_i[d] for d in common], [scores_j[d] for d in common])
                if rho is not None:
                    rhos.append(rho)
            if not rhos:
                raise DataError(f"runs {i} and {j} share no queries with comparable candidates")
            corr[i][j] = corr[j][i] = min(max(math.fsum(rhos) / len(rhos), -1.0), 1.0)
    return corr


def adjust_weights(config: EnsembleConfig, corr: Sequence[Sequence[float]]) -> list[float]:
    """Damp base weights by mean off-diagonal correlation and renormalize.

    ``corr`` is any n x n nested sequence, such as ``correlation_matrix``'s
    result. Negative mean correlations are clamped to 0 (never boosted); if
    every weight damps to 0 the normalized base weights are returned.
    """
    n = len(corr)
    config.check_run_count(n)
    base = [float(w) for w in config.base_weights]
    base_total = math.fsum(base)  # finite by check_weights, and a damped weight is at most its base
    if base_total <= 0:
        raise DataError("base weights sum to zero")
    weights = []
    for i, row in enumerate(corr):
        row = [float(v) for v in row]
        # a lone run has no off-diagonal entry to damp it: rho_bar is 0
        rho_bar = min(max((math.fsum(row) - row[i]) / max(n - 1, 1), 0.0), 1.0)
        weight = base[i] * (1.0 - config.lam * rho_bar)
        weights.append(0.0 if weight <= 0.0 else weight)  # NaN stays NaN
    total = math.fsum(weights)
    if total <= 0:
        weights, total = base, base_total
    return [w / total for w in weights]


def ensemble_runs(runs: Sequence[Run], weights: Sequence[float]) -> Run:
    """Min-max normalize each run per query, then weighted-sum over the
    candidate union (absent documents contribute 0)."""
    fused = fuse([normalize_run(run) for run in runs], weights)
    return Run(entries=fused.entries, tag="ensemble")
