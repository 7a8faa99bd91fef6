"""Correlation-aware combination of multiple reranker runs.

Base weights reflect how much each system is trusted (e.g. its standalone
score); systems whose predictions correlate strongly with the rest are then
damped so the ensemble stays diverse: w_i = max(0, base_i * (1 - lambda *
mean_corr_i)), renormalized to sum 1. Correlation is Spearman's rank
correlation averaged over shared queries, since reranker score scales are
not comparable.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .fusion import fuse, normalize_run
from .runs import Run


@dataclass
class EnsembleConfig:
    base_weights: list[float] = field(default_factory=list)
    lam: float = 0.5

    def __post_init__(self) -> None:
        if any(w < 0 for w in self.base_weights):
            raise ValueError("base weights must be >= 0")
        if self.base_weights and sum(self.base_weights) <= 0:
            raise ValueError("base weights must sum to > 0")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must be in [0, 1]")


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span,
    which is always a half-integer, so the result is exact."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _spearman(x: np.ndarray, y: np.ndarray) -> float | None:
    """Spearman rho with average ranks for ties; None when undefined
    (either side constant)."""
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    sx = rx.std()
    sy = ry.std()
    if sx == 0.0 or sy == 0.0:
        return None
    return float(((rx - rx.mean()) * (ry - ry.mean())).mean() / (sx * sy))


def correlation_matrix(runs: Sequence[Run]) -> np.ndarray:
    """Pairwise mean Spearman correlation over shared queries.

    For each query both runs rank, correlation is computed on the
    intersection of their candidates; queries with fewer than 2 shared
    candidates (or a constant score vector) are skipped. A pair with no
    usable query at all is an error.
    """
    if len(runs) < 2:
        raise ValueError("need at least 2 runs")
    n = len(runs)
    corr = np.eye(n)
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
                rho = _spearman(
                    np.array([scores_i[d] for d in common]),
                    np.array([scores_j[d] for d in common]),
                )
                if rho is not None:
                    rhos.append(rho)
            if not rhos:
                raise DataError(f"runs {i} and {j} share no queries with comparable candidates")
            corr[i, j] = corr[j, i] = float(np.clip(np.mean(rhos), -1.0, 1.0))
    return corr


def adjust_weights(config: EnsembleConfig, corr: np.ndarray) -> list[float]:
    """Damp base weights by mean off-diagonal correlation and renormalize.

    Negative mean correlations are clamped to 0 (never boosted); if every
    weight damps to 0 the normalized base weights are returned.
    """
    n = corr.shape[0]
    if len(config.base_weights) != n:
        raise ValueError(f"{len(config.base_weights)} base weights for {n} runs")
    base = np.asarray(config.base_weights, dtype=np.float64)
    if base.sum() <= 0:
        raise DataError("base weights sum to zero")
    if n == 1:
        return [1.0]
    off_diag_mean = (corr.sum(axis=1) - np.diag(corr)) / (n - 1)
    rho_bar = np.clip(off_diag_mean, 0.0, 1.0)
    weights = np.maximum(0.0, base * (1.0 - config.lam * rho_bar))
    total = weights.sum()
    if total <= 0:
        weights = base
        total = base.sum()
    return (weights / total).tolist()


def ensemble_runs(runs: Sequence[Run], weights: Sequence[float]) -> Run:
    """Min-max normalize each run per query, then weighted-sum over the
    candidate union (absent documents contribute 0)."""
    fused = fuse([normalize_run(run) for run in runs], weights)
    return Run(entries=fused.entries, tag="ensemble")
