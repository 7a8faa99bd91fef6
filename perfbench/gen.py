"""Seeded synthetic collections with planted answers for the benchmark.

Every query gets two planted relevant passages:

* a lexical match that holds every query term several times, including a
  marker term that occurs nowhere else, so it must be the query's BM25
  rank 1 (checked here against an upper bound on every other passage);
* a vector match whose embedding sits next to the query's, so it must be
  the query's dense rank 1 (checked here by exhaustive dot products).

Qrels grade the lexical match 2, the vector match 1 and a few random
passages 0 or 1, so evaluation has real work to do. The program under test
sees only the files written here, in its documented formats.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oracle import Collection, bm25_idf, tokenize

# Latin syllable inventories; neither uses 'q' or 'x', which mark planted terms
_SYLLABLES = (
    ("bdfgklmnprstvz", "aeiou", ""),
    ("bchjlmnprstwy", "aeiuo", "nrs"),
)
_HAN_BASE = 0x4E00
_HAN_MARKER_BASE = 0x7000
_LEXICAL_TF = 5
_SPECIALS = ("c:\\new", "tab\there", "back\\\\slash", "a\\tb")


@dataclass(frozen=True)
class LangSpec:
    name: str
    script: str  # "latin" or "han"
    inventory: int = 0


@dataclass(frozen=True)
class WorkloadSpec:
    languages: tuple[LangSpec, ...]
    docs: int  # passages per language
    queries: int  # queries per language
    doc_len: tuple[int, int]  # token count range of a background passage
    dim: int
    vocab: int
    han_run_share: float = 0.0  # Latin passages carrying a Han run
    special_share: float = 0.0  # Latin passages carrying tabs and backslashes
    test_queries: int = 0  # extra queries near train queries, for q2q2d


SPECS = {
    "retrieval": WorkloadSpec(
        languages=(LangSpec("lat1", "latin", 0), LangSpec("lat2", "latin", 1), LangSpec("han", "han")),
        docs=700,
        queries=70,
        doc_len=(30, 70),
        dim=128,
        vocab=6000,
        han_run_share=0.10,
        special_share=0.02,
    ),
    "rerank": WorkloadSpec(
        languages=(LangSpec("lat1", "latin", 0),),
        docs=600,
        queries=40,
        doc_len=(200, 400),
        dim=64,
        vocab=6000,
        special_share=0.05,
        test_queries=20,
    ),
    "cli-tour": WorkloadSpec(
        languages=(LangSpec("lat1", "latin", 0), LangSpec("lat2", "latin", 1), LangSpec("han", "han")),
        docs=60,
        queries=10,
        doc_len=(10, 30),
        dim=32,
        vocab=400,
        han_run_share=0.10,
        special_share=0.05,
        test_queries=5,
    ),
}


@dataclass
class LangFiles:
    corpus: Path
    topics: Path
    test_topics: Path
    qrels: Path
    query_vectors: Path
    all_query_vectors: Path  # train and test queries, for q2q2d
    doc_vectors: Path


@dataclass
class Generated:
    spec: WorkloadSpec
    files: dict[str, LangFiles] = field(default_factory=dict)
    collections: dict[str, Collection] = field(default_factory=dict)
    # qid -> planted docid, per leg
    lexical: dict[str, str] = field(default_factory=dict)
    dense: dict[str, str] = field(default_factory=dict)
    sizes: dict[str, int] = field(default_factory=dict)

    def measure(self) -> None:
        self.sizes = {
            "languages": len(self.collections),
            "passages": sum(len(c.docs) for c in self.collections.values()),
            "queries": sum(len(c.queries) for c in self.collections.values()),
            "judgments": sum(len(j) for c in self.collections.values() for j in c.qrels.values()),
            "dim": self.spec.dim,
            "input_bytes": sum(
                p.stat().st_size for f in self.files.values() for p in vars(f).values()
            ),
        }


def _latin_vocab(rng: np.random.Generator, size: int, inventory: int) -> list[str]:
    consonants, vowels, codas = _SYLLABLES[inventory]
    words: dict[str, None] = {}
    while len(words) < size:
        parts = []
        for _ in range(int(rng.integers(2, 4))):
            syl = consonants[rng.integers(len(consonants))] + vowels[rng.integers(len(vowels))]
            if codas and rng.random() < 0.3:
                syl += codas[rng.integers(len(codas))]
            parts.append(syl)
        words["".join(parts)] = None
    return list(words)


def _han_vocab(rng: np.random.Generator, size: int) -> list[str]:
    return [chr(_HAN_BASE + int(i)) for i in rng.permutation(size)]


def _zipf(size: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, size + 1) ** 1.07
    return weights / weights.sum()


def _marker(script: str, lang_index: int, i: int) -> str:
    if script == "han":
        return chr(_HAN_MARKER_BASE + 4096 * lang_index + i)
    letters = []
    n = i
    for _ in range(4):
        letters.append("abcdefghijklmnopqrstuvwyz"[n % 25])
        n //= 25
    return f"qx{lang_index}" + "".join(letters)


def _join(tokens: list[str], script: str, rng: np.random.Generator) -> str:
    if script == "latin":
        return " ".join(tokens)
    # Han text: runs of characters split by ideographic punctuation
    out = []
    for tok in tokens:
        out.append(tok)
        if rng.random() < 0.15:
            out.append("，")
    return "".join(out)


def _unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    rows = rng.standard_normal((n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _write_vectors(path: Path, ids: list[str], matrix: np.ndarray) -> np.ndarray:
    """Write vectors at six decimals and return them as the program parses them."""
    lines = [vid + "\t" + ",".join(f"{x:.6f}" for x in row) for vid, row in zip(ids, matrix)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return np.array([line.split("\t")[1].split(",") for line in lines], dtype=np.float64)


def _generate_language(
    spec: WorkloadSpec, lang: LangSpec, lang_index: int, rng: np.random.Generator, out_dir: Path, gen: Generated
) -> None:
    name, script = lang.name, lang.script
    vocab = _han_vocab(rng, spec.vocab) if script == "han" else _latin_vocab(rng, spec.vocab, lang.inventory)
    probs = _zipf(len(vocab))
    han_runs = _han_vocab(rng, 400)
    lo, hi = spec.doc_len
    if script == "han":
        lo, hi = int(lo * 1.5), int(hi * 1.5)  # one token per character

    def background(n: int) -> list[str]:
        return [vocab[i] for i in rng.choice(len(vocab), size=n, p=probs)]

    ordinals = rng.permutation(spec.docs)
    docids = [f"{name}-d{int(o):05d}" for o in ordinals]
    texts: dict[str, tuple[str, str]] = {}
    for docid in docids:
        tokens = background(int(rng.integers(lo, hi + 1)))
        if script == "latin" and rng.random() < spec.han_run_share:
            run = "".join(han_runs[int(i)] for i in rng.integers(0, len(han_runs), size=int(rng.integers(2, 4))))
            tokens.insert(int(rng.integers(len(tokens) + 1)), run)
        if script == "latin" and rng.random() < spec.special_share:
            tokens.insert(int(rng.integers(len(tokens) + 1)), _SPECIALS[int(rng.integers(len(_SPECIALS)))])
        title = _join(background(int(rng.integers(0, 4))), script, rng)
        texts[docid] = (title, _join(tokens, script, rng))

    # queries: two head terms, two tail terms and a marker held by one passage
    head = len(vocab) // 100
    qids = [f"{name}-q{i:04d}" for i in range(spec.queries)]
    lexical_docs = [docids[int(i)] for i in rng.choice(spec.docs, size=2 * spec.queries, replace=False)]
    dense_docs, lexical_docs = lexical_docs[spec.queries:], lexical_docs[: spec.queries]
    queries: dict[str, str] = {}
    for i, qid in enumerate(qids):
        terms = [vocab[int(j)] for j in rng.choice(head, size=2, replace=False)]
        terms += [vocab[int(j)] for j in head + rng.choice(len(vocab) - head, size=2, replace=False)]
        terms.append(_marker(script, lang_index, i))
        terms = [terms[int(j)] for j in rng.permutation(len(terms))]
        queries[qid] = (" " if script == "latin" else "").join(terms)
        planted = [t for t in terms for _ in range(_LEXICAL_TF)]
        planted = [planted[int(j)] for j in rng.permutation(len(planted))]
        _, body = texts[lexical_docs[i]]
        # the planted terms lead the passage, so rerank truncation keeps them
        texts[lexical_docs[i]] = (_join(planted, script, rng), body)

    collection = Collection(docs=texts, queries=queries, qrels={})
    _check_lexical_plants(collection, dict(zip(qids, lexical_docs)))

    qrels: dict[str, dict[str, int]] = {}
    for i, qid in enumerate(qids):
        judged = {lexical_docs[i]: 2, dense_docs[i]: 1}
        for j in rng.choice(spec.docs, size=3, replace=False):
            judged.setdefault(docids[int(j)], int(rng.integers(0, 2)))
        qrels[qid] = judged
    collection.qrels = qrels

    lang_dir = out_dir / name
    lang_dir.mkdir(parents=True, exist_ok=True)
    files = LangFiles(
        corpus=lang_dir / "corpus.jsonl",
        topics=lang_dir / "train.topics.tsv",
        test_topics=lang_dir / "test.topics.tsv",
        qrels=lang_dir / "train.qrels",
        query_vectors=lang_dir / "queries.vec.tsv",
        all_query_vectors=lang_dir / "all-queries.vec.tsv",
        doc_vectors=lang_dir / "docs.vec.tsv",
    )
    with open(files.corpus, "w", encoding="utf-8") as fh:
        for docid in docids:
            title, text = texts[docid]
            fh.write(json.dumps({"docid": docid, "title": title, "text": text}, ensure_ascii=False) + "\n")
    files.topics.write_text("".join(f"{qid}\t{queries[qid]}\n" for qid in qids), encoding="utf-8")
    files.qrels.write_text(
        "".join(f"{qid} Q0 {docid} {grade}\n" for qid in qids for docid, grade in sorted(qrels[qid].items())),
        encoding="utf-8",
    )

    # vectors: the dense match sits next to its query, everything else is random
    qmat = _unit_rows(rng, spec.queries, spec.dim)
    dmat = _unit_rows(rng, spec.docs, spec.dim)
    row = {docid: r for r, docid in enumerate(docids)}
    noise = _unit_rows(rng, spec.queries, spec.dim)
    for i in range(spec.queries):
        dmat[row[dense_docs[i]]] = 0.9 * qmat[i] + 0.2 * noise[i]
    qparsed = _write_vectors(files.query_vectors, qids, qmat)
    dparsed = _write_vectors(files.doc_vectors, docids, dmat)
    scores = qparsed @ dparsed.T
    for i, qid in enumerate(qids):
        best = int(np.argmax(scores[i]))
        others = np.delete(scores[i], best)
        if docids[best] != dense_docs[i] or not others.max() < scores[i, best]:
            raise RuntimeError(f"dense plant for {qid} is not a strict rank 1")

    # test queries for q2q2d: each one a small perturbation of a train query
    test_ids = [f"{name}-t{i:04d}" for i in range(spec.test_queries)]
    sources = rng.choice(spec.queries, size=spec.test_queries, replace=False) if test_ids else []
    tmat = qmat[sources] + 0.2 * _unit_rows(rng, len(test_ids), spec.dim) if test_ids else qmat[:0]
    files.test_topics.write_text(
        "".join(f"{tid}\t{queries[qids[int(s)]]}\n" for tid, s in zip(test_ids, sources)), encoding="utf-8"
    )
    _write_vectors(files.all_query_vectors, qids + test_ids, np.vstack([qmat, tmat]))

    gen.files[name] = files
    gen.collections[name] = collection
    gen.lexical.update(zip(qids, lexical_docs))
    gen.dense.update(zip(qids, dense_docs))


def _check_lexical_plants(collection: Collection, plants: dict[str, str]) -> None:
    """Each planted passage must outscore the most any other passage can get.

    Without the marker a passage scores below the sum of the other terms'
    idf, since every BM25 term weight is below its idf.
    """
    df, avgdl = collection.document_frequencies(), collection.avgdl()
    n = len(collection.docs)
    for qid, docid in plants.items():
        terms = sorted(set(tokenize(collection.queries[qid])))
        planted = collection.bm25_score(docid, terms, df, avgdl)
        bound = math.fsum(bm25_idf(n, df[t]) for t in terms if df[t] > 1)
        if not planted > bound:
            raise RuntimeError(f"lexical plant for {qid} is not a guaranteed rank 1")


def generate(workload: str, seed: int, out_dir: Path) -> Generated:
    spec = SPECS[workload]
    gen = Generated(spec=spec)
    for lang_index, lang in enumerate(spec.languages):
        rng = np.random.default_rng([seed, lang_index])
        _generate_language(spec, lang, lang_index, rng, out_dir, gen)
    gen.measure()
    return gen
