"""Shared builders and independent oracles for randomized tests.

The oracles here are deliberately separate transcriptions of the defining
formulas (brute force, no shared code paths) so tests can compare the
package's implementations against them.
"""
from __future__ import annotations

import math
from collections import Counter

import numpy as np

from rankpipe.corpus import Document, JudgmentSet
from rankpipe.runs import Run, rank_sorted
from rankpipe.tokenization import tokenize


def random_run(
    rng: np.random.Generator,
    n_queries: int = 4,
    max_docs: int = 8,
    universe_size: int = 30,
    tag: str = "sys",
    low: float = 0.1,
    high: float = 10.0,
    qids: list[str] | None = None,
) -> Run:
    """Random ranked run with strictly positive scores."""
    entries = {}
    for qid in qids or [f"q{i}" for i in range(n_queries)]:
        n = int(rng.integers(1, max_docs + 1))
        docs = rng.choice(universe_size, size=n, replace=False)
        scores = rng.uniform(low, high, size=n)
        entries[qid] = rank_sorted((f"d{int(d)}", float(s)) for d, s in zip(docs, scores))
    return Run(entries=entries, tag=tag)


def random_qrels(rng: np.random.Generator, run: Run, positive_rate: float = 0.4) -> JudgmentSet:
    """Judgments over run candidates plus a few relevant docs the run missed."""
    qrels = JudgmentSet()
    for qid in run.entries:
        for docid in run.docids(qid):
            roll = rng.random()
            if roll < positive_rate:
                qrels.add(qid, docid, 1)
            elif roll < positive_rate + 0.3:
                qrels.add(qid, docid, 0)
        for i in range(int(rng.integers(0, 3))):
            qrels.add(qid, f"unretrieved{i}", 1)
    return qrels


def random_corpus(rng: np.random.Generator, n_docs: int, vocab_size: int = 30) -> list[Document]:
    vocab = [f"w{i}" for i in range(vocab_size)]
    docs = []
    for i in range(n_docs):
        n_title = int(rng.integers(0, 3))
        n_body = int(rng.integers(1, 20))
        title = " ".join(vocab[j] for j in rng.integers(0, vocab_size, size=n_title))
        body = " ".join(vocab[j] for j in rng.integers(0, vocab_size, size=n_body))
        docs.append(Document(f"d{i:03d}", title, body))
    return docs


def oracle_bm25(
    docs: list[Document], query: str, k1: float = 0.9, b: float = 0.4
) -> list[tuple[str, float]]:
    """Exhaustive scoring of every document with the BM25 formula."""
    token_lists = [tokenize(f"{d.title} {d.text}") for d in docs]
    n = len(docs)
    lengths = [len(t) for t in token_lists]
    avgdl = sum(lengths) / n
    freqs = [Counter(t) for t in token_lists]
    df: Counter[str] = Counter()
    for tf in freqs:
        df.update(tf.keys())
    results: dict[str, float] = {}
    for i, doc in enumerate(docs):
        score = 0.0
        for term in sorted(set(tokenize(query))):
            tf = freqs[i].get(term, 0)
            if tf == 0:
                continue
            idf = math.log(1.0 + (n - df[term] + 0.5) / (df[term] + 0.5))
            score += idf * tf / (tf + k1 * (1.0 - b + b * lengths[i] / avgdl))
        if score > 0.0:
            results[doc.docid] = score
    return sorted(results.items(), key=lambda kv: (-kv[1], kv[0]))


def oracle_ndcg(run: Run, qrels: JudgmentSet, k: int) -> dict[str, float]:
    """Direct transcription of DCG/IDCG, query by query."""
    per_query: dict[str, float] = {}
    for qid, ranked in run.entries.items():
        judged = qrels.judged_docids(qid)
        if not any(g >= 1 for g in judged.values()):
            continue
        dcg = 0.0
        for rank, (docid, _) in enumerate(ranked[:k], 1):
            dcg += judged.get(docid, 0) / math.log2(rank + 1)
        idcg = 0.0
        for rank, grade in enumerate(sorted(judged.values(), reverse=True)[:k], 1):
            idcg += grade / math.log2(rank + 1)
        per_query[qid] = dcg / idcg
    return per_query


def oracle_recall(run: Run, qrels: JudgmentSet, k: int) -> dict[str, float]:
    per_query: dict[str, float] = {}
    for qid, ranked in run.entries.items():
        relevant = [d for d, g in qrels.judged_docids(qid).items() if g >= 1]
        if not relevant:
            continue
        top = [docid for docid, _ in ranked[:k]]
        per_query[qid] = sum(1 for d in relevant if d in top) / len(relevant)
    return per_query


def oracle_ranks(values: list[float]) -> list[float]:
    """1-based average ranks: tied values share the mean of their positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    out = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for pos in range(i, j + 1):
            out[order[pos]] = avg
        i = j + 1
    return out


def oracle_spearman(x: list[float], y: list[float]) -> float:
    """Textbook Spearman: Pearson correlation of average ranks."""
    rx, ry = oracle_ranks(x), oracle_ranks(y)
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = math.sqrt(sum((a - mx) ** 2 for a in rx))
    vy = math.sqrt(sum((b - my) ** 2 for b in ry))
    return cov / (vx * vy)
