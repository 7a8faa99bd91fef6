"""Shared builders and independent oracles for randomized tests.

The oracles here are deliberately separate transcriptions of the defining
formulas (brute force, no shared code paths) so tests can compare the
package's implementations against them.
"""
from __future__ import annotations

import hashlib
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from rankpipe.corpus import Document
from rankpipe.dense import similarities
from rankpipe.errors import DataError
from rankpipe.forge import TrainingPair
from rankpipe.runs import Run, rank_sorted
from rankpipe.tokenization import tokenize


def write_vectors(path, rows) -> str:
    """Write ``(id, values)`` rows as a vector TSV, ``values`` either the
    text of the comma-separated components or numbers written with repr."""

    def components(vals) -> str:
        return vals if isinstance(vals, str) else ",".join(repr(float(v)) for v in vals)

    path.write_text("".join(f"{vid}\t{components(vals)}\n" for vid, vals in rows), encoding="utf-8")
    return str(path)


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


def random_qrels(rng: np.random.Generator, run: Run, positive_rate: float = 0.4) -> dict[str, dict[str, int]]:
    """Judgments over run candidates plus a few relevant docs the run missed,
    as qid -> docid -> grade; a query without a judgment is left out."""
    qrels: dict[str, dict[str, int]] = {}
    for qid in run.entries:
        judged: dict[str, int] = {}
        for docid in run.docids(qid):
            roll = rng.random()
            if roll < positive_rate:
                judged[docid] = 1
            elif roll < positive_rate + 0.3:
                judged[docid] = 0
        for i in range(int(rng.integers(0, 3))):
            judged[f"unretrieved{i}"] = 1
        if judged:
            qrels[qid] = judged
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


def oracle_ndcg(run: Run, qrels: dict[str, dict[str, int]], k: int) -> dict[str, float]:
    """Direct transcription of DCG/IDCG, query by query."""
    per_query: dict[str, float] = {}
    for qid, ranked in run.entries.items():
        judged = qrels.get(qid, {})
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


def full_list_ndcg(run: Run, qrels: dict[str, dict[str, int]], k: int) -> dict[str, float]:
    """nDCG as ``ndcg_at_k`` first computed it: a gain for every ranked
    document, summed in rank order while the rank is at most k."""

    def dcg(grades: list[int]) -> float:
        total = 0.0
        for i, grade in enumerate(grades, 1):
            if i > k:
                break
            total += grade / math.log2(i + 1)
        return total

    per_query: dict[str, float] = {}
    for qid, ranked in run.entries.items():
        judged = qrels.get(qid, {})
        if not any(g >= 1 for g in judged.values()):
            continue
        gains = [judged.get(docid, 0) for docid, _ in ranked]
        per_query[qid] = dcg(gains) / dcg(sorted(judged.values(), reverse=True))
    return per_query


def oracle_recall(run: Run, qrels: dict[str, dict[str, int]], k: int) -> dict[str, float]:
    per_query: dict[str, float] = {}
    for qid, ranked in run.entries.items():
        relevant = [d for d, g in qrels.get(qid, {}).items() if g >= 1]
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


def numpy_average_ranks(values: np.ndarray) -> np.ndarray:
    """The ensemble's former numpy average ranks, kept as a bit-exact oracle."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def numpy_spearman(x: np.ndarray, y: np.ndarray) -> float | None:
    rx = numpy_average_ranks(x)
    ry = numpy_average_ranks(y)
    sx = rx.std()
    sy = ry.std()
    if sx == 0.0 or sy == 0.0:
        return None
    return float(((rx - rx.mean()) * (ry - ry.mean())).mean() / (sx * sy))


def exact_sum(values) -> float:
    """The sum of ``values`` computed in rationals and rounded once: by
    definition what an exactly rounded sum such as ``math.fsum`` returns."""
    return float(sum(map(Fraction, values), Fraction(0)))


def numpy_correlation_matrix(runs: list[Run]) -> np.ndarray:
    """The ensemble's former numpy ``correlation_matrix`` (errors omitted),
    with the mean over queries taken as an exactly rounded sum."""
    n = len(runs)
    corr = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            rhos: list[float] = []
            for qid in sorted(set(runs[i].entries) & set(runs[j].entries)):
                scores_i = runs[i].scores(qid)
                scores_j = runs[j].scores(qid)
                common = sorted(set(scores_i) & set(scores_j))
                if len(common) < 2:
                    continue
                rho = numpy_spearman(
                    np.array([scores_i[d] for d in common]), np.array([scores_j[d] for d in common])
                )
                if rho is not None:
                    rhos.append(rho)
            corr[i, j] = corr[j, i] = float(np.clip(exact_sum(rhos) / len(rhos), -1.0, 1.0))
    return corr


def numpy_adjust_weights(base_weights: list[float], lam: float, corr: np.ndarray) -> list[float]:
    """The ensemble's former numpy ``adjust_weights`` (errors omitted), with
    every sum taken exactly rounded."""
    n = corr.shape[0]
    base = np.asarray(base_weights, dtype=np.float64)
    if n == 1:
        return [1.0]
    row_sums = np.array([exact_sum(row) for row in corr])
    off_diag_mean = (row_sums - np.diag(corr)) / (n - 1)
    rho_bar = np.clip(off_diag_mean, 0.0, 1.0)
    weights = np.maximum(0.0, base * (1.0 - lam * rho_bar))
    total = exact_sum(weights)
    if total <= 0:
        weights = base
        total = exact_sum(base)
    return (weights / total).tolist()


def oracle_draw(m: int, count: int, seed: int, *scope: str) -> list[int]:
    """The forge draw spec transcribed on a full list: step i of a Fisher-Yates
    shuffle of range(m) swaps i with i + u_i % (m - i), u_i the big-endian
    8-byte blake2b of seed, scope and i joined by U+001F."""
    perm = list(range(m))
    for i in range(min(count, m)):
        key = "\x1f".join([str(seed), *scope, str(i)]).encode("utf-8")
        u = int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")
        j = i + u % (m - i)
        perm[i], perm[j] = perm[j], perm[i]
    return perm[: min(count, m)]


def oracle_lexical_score(text: str, budget: int) -> float:
    """The lexical baseline as first written: truncate the whole pair text,
    split it at the separators, then tokenize query and title + body again."""
    if len(tokenize(text)) > budget:
        query, title, body = text.split(" [SEP] ")
        room = max(budget - len(tokenize(query)) - 2 * len(tokenize("[SEP]")), 0)
        title_tokens = tokenize(title)[:room]
        body_tokens = tokenize(body)[: room - len(title_tokens)]
        text = f"{query} [SEP] {' '.join(title_tokens)} [SEP] {' '.join(body_tokens)}"
    query, title, body = text.split(" [SEP] ")
    query_tokens = set(tokenize(query))
    if not query_tokens:
        return 0.0
    return len(query_tokens & set(tokenize(f"{title} {body}"))) / len(query_tokens)


def oracle_pair_text(query: str, title: str, body: str) -> str:
    """The pair text as composed before pairs carried their segments: each
    segment loses the separator marker and line breaks, then the three are
    joined by `` [SEP] ``."""

    def clean(value: str) -> str:
        return value.replace("[SEP]", " ").replace("\n", " ").replace("\r", " ")

    return f"{clean(query)} [SEP] {clean(title)} [SEP] {clean(body)}"


def oracle_q2q2d(test_queries, train_queries, train_qrels, vectors, params) -> list:
    """q2q2d as it was written with its own cosine: the dot over the product
    of the two norms, clipped to [-1, 1]; sources ranked by (-sim, qid), the
    first ``top_m`` at or above ``tau`` each lend every judged document with
    label max(0, sim) * min(grade, 1) * alpha. Both query sets map qid -> text."""
    if not train_queries:
        return []
    train_ids = list(train_queries)
    train_matrix = np.vstack([vectors.vector(qid) for qid in train_ids])
    b_norms = np.linalg.norm(train_matrix, axis=1)
    pairs = []
    for qid, text in test_queries.items():
        a = vectors.vector(qid)
        sims = np.clip((train_matrix @ a) / (b_norms * float(np.linalg.norm(a))), -1.0, 1.0)
        order = sorted(range(len(train_ids)), key=lambda i: (-sims[i], train_ids[i]))
        for i in [i for i in order if sims[i] >= params.tau][: params.top_m]:
            for docid, grade in sorted(train_qrels.get(train_ids[i], {}).items()):
                label = max(0.0, float(sims[i])) * min(grade, 1) * params.alpha
                pairs.append(TrainingPair(qid, text, docid, label, "q2q2d"))
    return pairs


def oracle_write_run(run: Run, path: str, header: str | None = None) -> Run:
    """The per-line run writer: each query's scores converted with float()
    and sorted by (-score, docid), one ``write`` per line, a duplicate docid
    a DataError before any line of its query."""
    entries = {}
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for qid in sorted(run.entries):
            ranked = sorted(((docid, float(score)) for docid, score in run.entries[qid]), key=lambda p: (-p[1], p[0]))
            if not ranked:
                continue
            if len({docid for docid, _ in ranked}) != len(ranked):
                raise DataError(f"{path}: duplicate document for query {qid!r}")
            for rank, (docid, score) in enumerate(ranked, 1):
                fh.write(f"{qid} Q0 {docid} {rank} {score!r} {run.tag}\n")
            entries[qid] = ranked
    return Run(entries=entries, tag=run.tag if entries else "run")


def oracle_fuse(runs: list[Run], weights: list[float]) -> Run:
    """Fusion with one list of weighted parts per candidate, each summed by
    ``math.fsum``; an overflowing or non-finite sum is a DataError naming the
    query, queries in first-seen order."""
    parts: dict[str, dict[str, list[float]]] = {}
    for run, weight in zip(runs, weights):
        for qid, ranked in run.entries.items():
            per_doc = parts.setdefault(qid, {})
            for docid, score in ranked:
                per_doc.setdefault(docid, []).append(weight * score)
    entries = {}
    for qid, per_doc in parts.items():
        try:
            fused = [(docid, math.fsum(values)) for docid, values in per_doc.items()]
        except (OverflowError, ValueError):
            fused = None
        if fused is None or not all(math.isfinite(score) for _, score in fused):
            raise DataError(f"weighted scores of query {qid!r} overflow the float range")
        entries[qid] = sorted(fused, key=lambda p: (-p[1], p[0]))
    return Run(entries=entries, tag="hybrid")


def oracle_dense_search(queries, docs, query_id: str, k: int, metric: str) -> list[tuple[str, float]]:
    """Top-k by a full lexsort on (score descending, docid string ascending),
    each score read as a numpy scalar and converted with float()."""
    scores = similarities(queries, docs, query_id, metric)
    order = np.lexsort((np.array(docs.ids), -scores))
    return [(docs.ids[i], float(scores[i])) for i in order[: min(k, len(docs))]]
