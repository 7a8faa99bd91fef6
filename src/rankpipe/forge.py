"""Training-pair manufacturing for ranking models.

Three sources of pairs are produced here:

* pool negatives: unjudged-or-zero documents drawn from the fused top-K
  candidate pool (label 0), countering the selection bias of training only
  on annotated candidates; a whole-corpus variant exists for comparison;
* query-link augmentation (q2q2d): a target query inherits the judgments of
  its most similar source queries, with label = similarity * label * alpha;
* pseudo labels: a sampled portion of model-scored pairs reused as soft
  labels scaled by 0.9.

All sampling is a pure function of (inputs, seed): every draw is a partial
Fisher-Yates shuffle whose i-th swap comes from blake2b of (seed, stage,
qid, i), so queries can be processed in any order, or in parallel, with
identical output. Negative samples are the prefix of a fixed per-query
permutation, so growing n only extends each query's sample, and n draws cost
n hashes whatever the universe size. The draws use hashlib, not numpy's
``Generator``: NumPy does not promise that its streams stay the same across
releases (NEP 19), and the sampled pairs must not depend on the install.
"""
from __future__ import annotations

import hashlib
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .corpus import positives
from .errors import DataError
from .runs import Run, check_k
from .validate import COSINE, check_pair_label, parse_pairs

if TYPE_CHECKING:  # numpy is only needed by q2q2d, which imports dense when it runs
    from .dense import EmbeddingStore


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
        if not 0.0 < self.pseudo_scale <= 1.0:
            raise ValueError("pseudo_scale must be in (0, 1]")


def draw(m: int, count: int, seed: int, *scope: str) -> list[int]:
    """The first ``min(count, m)`` positions of a fixed permutation of
    ``range(m)`` for (seed, *scope); independent of process hash
    randomization and of the order queries are visited in.

    Step i of a Fisher-Yates shuffle swaps position i with
    ``i + u_i % (m - i)``, u_i being the big-endian 8-byte blake2b digest of
    seed, scope and i joined by U+001F. Only moved positions are stored, so
    the cost is O(count), not O(m).
    """
    prefix = "\x1f".join([str(seed), *scope, ""])
    moved: dict[int, int] = {}
    out: list[int] = []
    for i in range(min(count, m)):
        digest = hashlib.blake2b(f"{prefix}{i}".encode("utf-8"), digest_size=8).digest()
        j = i + int.from_bytes(digest, "big") % (m - i)
        out.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return out


def _sample_for_query(
    qid: str,
    universe: Sequence[str],
    qrels: Mapping[str, Mapping[str, int]],
    n: int,
    seed: int,
    query_texts: Mapping[str, str] | None,
) -> list[TrainingPair]:
    relevant = positives(qrels.get(qid, {}))
    eligible = [docid for docid in universe if docid not in relevant]
    text = (query_texts or {}).get(qid, "")
    return [
        TrainingPair(qid=qid, query_text=text, docid=eligible[i], label=0.0, source="negative")
        for i in draw(len(eligible), n, seed, "negatives", qid)
    ]


def sample_negatives(
    pool: Run,
    qrels: Mapping[str, Mapping[str, int]],
    n: int,
    seed: int,
    query_texts: Mapping[str, str] | None = None,
) -> list[TrainingPair]:
    """Draw up to ``n`` negatives per query from its candidate pool.

    Documents judged positive (grade >= 1) are never emitted; judged-zero
    documents are eligible. Queries with no judgments at all are skipped.
    """
    check_k(n, 0, "n")
    pairs: list[TrainingPair] = []
    skipped = 0
    for qid in sorted(pool.entries):
        if not qrels.get(qid):
            skipped += 1
            continue
        pairs.extend(_sample_for_query(qid, pool.docids(qid), qrels, n, seed, query_texts))
    if skipped:
        import logging  # here, so that a forge call that skips nothing starts without logging

        logging.getLogger(__name__).warning("sample_negatives: skipped %d pool queries without judgments", skipped)
    return pairs


def sample_negatives_corpus(
    corpus_ids: Sequence[str],
    qrels: Mapping[str, Mapping[str, int]],
    n: int,
    seed: int,
    query_texts: Mapping[str, str] | None = None,
) -> list[TrainingPair]:
    """Whole-corpus negative sampling baseline: the universe is every docid."""
    check_k(n, 0, "n")
    pairs: list[TrainingPair] = []
    for qid in sorted(qrels):
        pairs.extend(_sample_for_query(qid, corpus_ids, qrels, n, seed, query_texts))
    return pairs


def q2q2d_augment(
    test_queries: Mapping[str, str],
    train_queries: Mapping[str, str],
    train_qrels: Mapping[str, Mapping[str, int]],
    query_vectors: EmbeddingStore,
    params: AugmentationParams,
) -> list[TrainingPair]:
    """Transfer judgments from similar source queries to target queries.

    For each target query, its ``top_m`` most cosine-similar source queries
    at or above ``tau`` contribute every judged document with label
    sim * label * alpha; zero-grade judgments are emitted with label 0.
    """
    import numpy as np

    from .dense import EmbeddingStore, similarities

    for qid in [*test_queries, *train_queries]:
        if qid not in query_vectors:
            raise DataError(f"no vector for query {qid!r}")
    if not train_queries:
        return []
    train_ids = list(train_queries)
    sources = EmbeddingStore(train_ids, np.vstack([query_vectors.vector(qid) for qid in train_ids]))
    pairs: list[TrainingPair] = []
    for qid, text in test_queries.items():
        # clipped, since rounding can carry a cosine just past 1 or -1
        sims = np.clip(similarities(query_vectors, sources, qid, COSINE), -1.0, 1.0)
        order = sorted(range(len(train_ids)), key=lambda i: (-sims[i], train_ids[i]))
        matched = [i for i in order if sims[i] >= params.tau][: params.top_m]
        for i in matched:
            sim = float(sims[i])
            for docid, grade in sorted(train_qrels.get(train_ids[i], {}).items()):
                # grades are binarized: the label algebra assumes {0, 1}
                pairs.append(TrainingPair(qid=qid, query_text=text, docid=docid,
                                          label=max(0.0, sim) * min(grade, 1) * params.alpha, source="q2q2d"))
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
    chosen = sorted(draw(len(triples), count, params.seed, "pseudo"))
    texts = query_texts or {}
    return [
        TrainingPair(qid, texts.get(qid, ""), docid, params.pseudo_scale * score, "pseudo")
        for qid, docid, score in (triples[i] for i in chosen)
    ]


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
