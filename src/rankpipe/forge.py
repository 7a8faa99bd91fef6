"""Training-pair manufacturing for ranking models.

Three sources of pairs are produced here:

* pool negatives: unjudged-or-zero documents drawn from the fused top-K
  candidate pool (label 0), countering the selection bias of training only
  on annotated candidates; a whole-corpus variant exists for comparison;
* query-link augmentation (q2q2d): a target query inherits the judgments of
  its most similar source queries, with label = similarity * label * alpha;
* pseudo labels: a sampled portion of model-scored pairs reused as soft
  labels scaled by 0.9.

All sampling is a pure function of (inputs, seed): per-query randomness is
derived from a stable hash of (seed, stage, qid), so queries can be
processed in any order, or in parallel, with identical output. Negative
samples are the prefix of a fixed per-query permutation, so growing n only
extends each query's sample.
"""
from __future__ import annotations

import hashlib
import logging
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .corpus import JudgmentSet, Query
from .dense import EmbeddingStore
from .errors import DataError
from .fusion import CandidatePool
from .runs import Run
from .validate import check_pair_label, parse_pairs

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainingPair:
    qid: str
    query_text: str
    docid: str
    label: float
    source: str

    def __post_init__(self) -> None:
        check_pair_label(self.label, self.source)


@dataclass(frozen=True)
class AugmentationParams:
    alpha: float = 0.9
    top_m: int = 1
    tau: float = 0.8
    pseudo_scale: float = 0.9
    pseudo_fraction: float = 0.5
    n_negatives: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.top_m < 1:
            raise ValueError("top_m must be >= 1")
        if not -1.0 <= self.tau <= 1.0:
            raise ValueError("tau must be in [-1, 1]")
        if not 0.0 < self.pseudo_fraction <= 1.0:
            raise ValueError("pseudo_fraction must be in (0, 1]")
        if self.n_negatives < 0:
            raise ValueError("n_negatives must be >= 0")


def derive_rng(seed: int, *scope: str) -> np.random.Generator:
    """Stable RNG for (seed, stage, qid, ...); independent of process hash
    randomization and of the order queries are visited in."""
    key = "\x1f".join([str(seed), *scope]).encode("utf-8")
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(digest, "big"))


def _query_text(query_texts: Mapping[str, str] | None, qid: str) -> str:
    if query_texts is None:
        return ""
    return query_texts.get(qid, "")


def _sample_for_query(
    qid: str,
    universe: Sequence[str],
    qrels: JudgmentSet,
    n: int,
    seed: int,
    query_texts: Mapping[str, str] | None,
) -> list[TrainingPair]:
    positives = qrels.positives(qid)
    eligible = [docid for docid in universe if docid not in positives]
    if not eligible:
        return []
    order = derive_rng(seed, "negatives", qid).permutation(len(eligible))
    text = _query_text(query_texts, qid)
    return [
        TrainingPair(qid=qid, query_text=text, docid=eligible[i], label=0.0, source="negative")
        for i in order[: min(n, len(eligible))]
    ]


def sample_negatives(
    pool: CandidatePool,
    qrels: JudgmentSet,
    n: int,
    seed: int,
    query_texts: Mapping[str, str] | None = None,
) -> list[TrainingPair]:
    """Draw up to ``n`` negatives per query from its candidate pool.

    Documents judged positive (grade >= 1) are never emitted; judged-zero
    documents are eligible. Queries with no judgments at all are skipped.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    pairs: list[TrainingPair] = []
    skipped = 0
    for qid in sorted(pool.entries):
        if not qrels.judged_docids(qid):
            skipped += 1
            continue
        pairs.extend(_sample_for_query(qid, pool.docids(qid), qrels, n, seed, query_texts))
    if skipped:
        logger.warning("sample_negatives: skipped %d pool queries without judgments", skipped)
    return pairs


def sample_negatives_corpus(
    corpus_ids: Sequence[str],
    qrels: JudgmentSet,
    n: int,
    seed: int,
    query_texts: Mapping[str, str] | None = None,
) -> list[TrainingPair]:
    """Whole-corpus negative sampling baseline: the universe is every docid."""
    if n < 0:
        raise ValueError("n must be >= 0")
    pairs: list[TrainingPair] = []
    for qid in sorted(qrels.qids):
        pairs.extend(_sample_for_query(qid, corpus_ids, qrels, n, seed, query_texts))
    return pairs


def _cosine(a: np.ndarray, b_matrix: np.ndarray, a_id: str, b_ids: Sequence[str]) -> np.ndarray:
    a_norm = float(np.linalg.norm(a))
    if a_norm == 0.0:
        raise DataError(f"zero vector for query {a_id!r}")
    b_norms = np.linalg.norm(b_matrix, axis=1)
    zero = np.flatnonzero(b_norms == 0.0)
    if zero.size:
        raise DataError(f"zero vector for query {b_ids[int(zero[0])]!r}")
    sims = (b_matrix @ a) / (b_norms * a_norm)
    return np.clip(sims, -1.0, 1.0)


def q2q2d_augment(
    test_queries: Sequence[Query],
    train_queries: Sequence[Query],
    train_qrels: JudgmentSet,
    query_vectors: EmbeddingStore,
    params: AugmentationParams,
) -> list[TrainingPair]:
    """Transfer judgments from similar source queries to target queries.

    For each target query, its ``top_m`` most cosine-similar source queries
    at or above ``tau`` contribute every judged document with label
    sim * label * alpha; zero-grade judgments are emitted with label 0.
    """
    for query in list(test_queries) + list(train_queries):
        if query.qid not in query_vectors:
            raise DataError(f"no vector for query {query.qid!r}")
    if not train_queries:
        return []
    train_matrix = np.vstack([query_vectors.vector(q.qid) for q in train_queries])
    train_ids = [q.qid for q in train_queries]
    pairs: list[TrainingPair] = []
    for test_query in test_queries:
        sims = _cosine(query_vectors.vector(test_query.qid), train_matrix, test_query.qid, train_ids)
        order = sorted(range(len(train_queries)), key=lambda i: (-sims[i], train_ids[i]))
        matched = [i for i in order if sims[i] >= params.tau][: params.top_m]
        for i in matched:
            sim = float(sims[i])
            for docid, grade in sorted(train_qrels.judged_docids(train_ids[i]).items()):
                # grades are binarized: the label algebra assumes {0, 1}
                label = max(0.0, sim) * min(grade, 1) * params.alpha
                pairs.append(
                    TrainingPair(
                        qid=test_query.qid,
                        query_text=test_query.text,
                        docid=docid,
                        label=label,
                        source="q2q2d",
                    )
                )
    return pairs


def pseudo_label(
    scored_run: Run,
    query_texts: Mapping[str, str] | None,
    params: AugmentationParams,
) -> list[TrainingPair]:
    """Sample floor(fraction * total) scored pairs and reuse them as soft
    labels scaled by ``pseudo_scale``; no thresholding to hard labels."""
    triples: list[tuple[str, str, float]] = []
    for qid in sorted(scored_run.entries):
        for docid, score in scored_run.entries[qid]:
            if not 0.0 <= score <= 1.0:
                raise DataError(f"pseudo-label score {score} for ({qid}, {docid}) outside [0, 1]")
            triples.append((qid, docid, score))
    count = math.floor(params.pseudo_fraction * len(triples))
    if count == 0:
        return []
    rng = derive_rng(params.seed, "pseudo")
    chosen = sorted(rng.choice(len(triples), size=count, replace=False).tolist())
    pairs: list[TrainingPair] = []
    for i in chosen:
        qid, docid, score = triples[i]
        pairs.append(
            TrainingPair(
                qid=qid,
                query_text=_query_text(query_texts, qid),
                docid=docid,
                label=params.pseudo_scale * score,
                source="pseudo",
            )
        )
    return pairs


def annotation_pairs(
    qrels: JudgmentSet,
    query_texts: Mapping[str, str] | None = None,
) -> list[TrainingPair]:
    """Lift raw judgments into (binary-label) annotation pairs."""
    pairs = []
    for qid, docid, grade in sorted(qrels.items()):
        pairs.append(
            TrainingPair(
                qid=qid,
                query_text=_query_text(query_texts, qid),
                docid=docid,
                label=float(min(grade, 1)),
                source="annotation",
            )
        )
    return pairs


def write_pairs(pairs: Iterable[TrainingPair], path: str, header: str | None = None) -> None:
    """Write pairs as TSV ``qid docid label source query_text`` (text last,
    so embedded tabs in query text stay parseable)."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for pair in pairs:
            fh.write(f"{pair.qid}\t{pair.docid}\t{pair.label!r}\t{pair.source}\t{pair.query_text}\n")


def read_pairs(path: str) -> list[TrainingPair]:
    return [
        TrainingPair(qid=qid, query_text=text, docid=docid, label=label, source=source)
        for _, (qid, docid, label, source, text) in parse_pairs(path)
    ]
