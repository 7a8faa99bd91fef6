"""rankpipe: hybrid sparse+dense retrieval, ranking data engineering, and
correlation-aware run ensembling, with an nDCG/recall evaluation harness.

The public names below are imported from their submodules on first use
(PEP 562), so ``import rankpipe`` stays cheap: a CLI call loads only the
modules its subcommand needs, and numpy only when one of them uses it.
"""
from __future__ import annotations

import importlib
import os

__version__ = "0.1.0"

# submodule -> the public names it defines
_SUBMODULE_EXPORTS = {
    "corpus": ("Document", "StatsRow", "corpus_stats", "load_corpus", "load_qrels", "load_topics", "write_qrels"),
    "dense": ("EmbeddingStore", "dense_search", "load_embeddings"),
    "ensemble": ("EnsembleConfig", "adjust_weights", "correlation_matrix", "ensemble_runs"),
    "errors": ("DataError", "FormatError", "ProtocolError"),
    "forge": ("AugmentationParams", "TrainingPair", "pseudo_label", "q2q2d_augment", "read_pairs",
              "sample_negatives", "write_pairs"),
    "fusion": ("cut_pool", "fuse", "normalize_run"),
    "metrics": ("MetricReport", "macro_average", "ndcg_at_k", "recall_at_k"),
    "rerank": ("PairInput", "ScorerHandle", "build_pairs", "lexical_score", "score_pairs"),
    "runs": ("Run", "read_run", "write_run"),
    "sparse": ("Bm25Params", "InvertedIndex", "bm25_search", "build_index", "load_index", "save_index"),
    "tokenization": ("tokenize",),
}
_EXPORTS = {name: module for module, names in _SUBMODULE_EXPORTS.items() for name in names}

__all__ = sorted(_EXPORTS)


def available_cpus() -> int:
    """The number of CPUs this process may run on; 1 where the platform does not say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
