#!/usr/bin/env python3
"""Regenerate the bundled synthetic trilingual collection.

Every query gets exactly two relevant documents with complementary signals:

* a lexical match that repeats the query's two rare terms (top BM25 hit,
  slightly repelled from the query's embedding axis so the dense leg never
  retrieves it), and
* a semantic match that sits exactly on the query's embedding axis but
  shares no terms with it (top dense hit, invisible to BM25).

Each single leg can therefore place only one of the two relevants, while
min-max fusion puts both at the top (0.5 each) with every distractor
strictly below 0.5. That forces hybrid nDCG@10 to 1.0, strictly above
either leg, and hybrid recall@50 to 1.0. The script checks all of that
before writing anything.

Run from this directory: python3 generate.py
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from rankpipe.corpus import Document, write_qrels
from rankpipe.dense import EmbeddingStore, dense_search
from rankpipe.fusion import cut_pool, fuse, normalize_run
from rankpipe.metrics import ndcg_at_k, recall_at_k
from rankpipe.runs import Run
from rankpipe.sparse import bm25_search, build_index

HERE = Path(__file__).resolve().parent

DIM = 32
QUERIES_PER_LANG = 10
FILLER_DOCS = 50
DISTRACTORS = 3
RETRIEVE_K = 50

EN_FILLER = "the system stores data and answers a search request with ranked results".split()
SW_FILLER = "maji safari pole kidogo rafiki habari chakula ndege mlima pwani".split()
ZH_FILLER = [chr(cp) for cp in range(0x5B57, 0x5B57 + 12)]

EN_KEYS = [
    ("albatross", "zephyr"), ("quasar", "obsidian"), ("meridian", "saffron"),
    ("tundra", "copper"), ("lagoon", "ember"), ("falcon", "granite"),
    ("orchid", "basalt"), ("comet", "juniper"), ("glacier", "topaz"),
    ("raven", "indigo"),
]
SW_KEYS = [
    ("tembo", "nyota"), ("simba", "zawadi"), ("kipepeo", "mvua"),
    ("nyani", "jembe"), ("kiboko", "taa"), ("twiga", "ufunguo"),
    ("chui", "ngoma"), ("duma", "kioo"), ("fisi", "mshale"),
    ("punda", "herufi"),
]
ZH_KEYS = [(chr(0x4E00 + 2 * j), chr(0x4E01 + 2 * j)) for j in range(QUERIES_PER_LANG)]

LANGUAGES = [
    ("en", EN_KEYS, EN_FILLER, " "),
    ("sw", SW_KEYS, SW_FILLER, " "),
    ("zh", ZH_KEYS, ZH_FILLER, ""),
]


def filler_text(rng: np.random.Generator, vocab: list[str], joiner: str, n: int) -> str:
    words = [vocab[i] for i in rng.integers(0, len(vocab), size=n)]
    return joiner.join(words)


def axis(i: int) -> np.ndarray:
    vec = np.zeros(DIM)
    vec[i] = 1.0
    return vec


def off_axis(rng: np.random.Generator) -> np.ndarray:
    # lives in the span of the last two dimensions: similarity 0 to every query
    theta = rng.uniform(0.1, 1.4)
    return np.cos(theta) * axis(DIM - 2) + np.sin(theta) * axis(DIM - 1)


def build_language(lang: str, keys, vocab, joiner, lang_index: int, rng: np.random.Generator):
    docs: list[Document] = []
    doc_vecs: dict[str, np.ndarray] = {}
    query_vecs: dict[str, np.ndarray] = {}
    topics: list[tuple[str, str]] = []
    qrels: dict[str, dict[str, int]] = {}

    for j, (u, v) in enumerate(keys):
        qid = f"{lang}-q{j}"
        topics.append((qid, f"{u}{joiner or ' '}{v}" if joiner else u + v))
        query_vecs[qid] = axis(lang_index * QUERIES_PER_LANG + j)

        lex_id = f"{lang}-dl{j}"
        planted = f"{u}{joiner}{v}" if joiner else u + v
        body = joiner.join(
            part for part in (planted, filler_text(rng, vocab, joiner, 8), planted) if part
        )
        docs.append(Document(lex_id, filler_text(rng, vocab, joiner, 2), body))
        # pushed slightly off the query axis so the dense leg never returns it
        doc_vecs[lex_id] = off_axis(rng) - 0.25 * axis(lang_index * QUERIES_PER_LANG + j)
        qrels[qid] = {lex_id: 1}

        sem_id = f"{lang}-ds{j}"
        docs.append(Document(sem_id, "", filler_text(rng, vocab, joiner, 10)))
        doc_vecs[sem_id] = axis(lang_index * QUERIES_PER_LANG + j)
        qrels[qid][sem_id] = 1

        for i in range(DISTRACTORS):
            dx_id = f"{lang}-dx{j}-{i}"
            body = joiner.join(part for part in (u, filler_text(rng, vocab, joiner, 9)) if part)
            docs.append(Document(dx_id, "", body))
            doc_vecs[dx_id] = off_axis(rng)
        qrels[qid][f"{lang}-dx{j}-0"] = 0

    for i in range(FILLER_DOCS):
        doc_id = f"{lang}-f{i:02d}"
        docs.append(Document(doc_id, "", filler_text(rng, vocab, joiner, 12)))
        doc_vecs[doc_id] = off_axis(rng)

    return docs, doc_vecs, query_vecs, topics, qrels


def verify(lang, docs, doc_vecs, query_vecs, topics, qrels) -> None:
    index = build_index(docs)
    queries = EmbeddingStore(list(query_vecs), np.vstack(list(query_vecs.values())))
    doc_store = EmbeddingStore(list(doc_vecs), np.vstack(list(doc_vecs.values())))
    bm25 = Run(
        entries={qid: bm25_search(index, text, RETRIEVE_K) for qid, text in topics}, tag="bm25"
    )
    dense = Run(
        entries={qid: dense_search(queries, doc_store, qid, RETRIEVE_K) for qid, _ in topics},
        tag="dense",
    )
    hybrid = fuse([normalize_run(bm25), normalize_run(dense)], [0.5, 0.5])
    pooled = cut_pool(hybrid, RETRIEVE_K)

    recall = recall_at_k(pooled, qrels, RETRIEVE_K).mean
    ndcg_hybrid = ndcg_at_k(hybrid, qrels, 10).mean
    ndcg_bm25 = ndcg_at_k(bm25, qrels, 10).mean
    ndcg_dense = ndcg_at_k(dense, qrels, 10).mean
    print(
        f"{lang}: recall@{RETRIEVE_K}={recall:.3f} "
        f"ndcg@10 hybrid={ndcg_hybrid:.4f} bm25={ndcg_bm25:.4f} dense={ndcg_dense:.4f}"
    )
    assert recall == 1.0
    assert ndcg_hybrid == 1.0
    assert ndcg_hybrid > max(ndcg_bm25, ndcg_dense)


def write_language(lang, docs, doc_vecs, query_vecs, topics, qrels) -> None:
    out = HERE / lang
    out.mkdir(exist_ok=True)
    with open(out / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for doc in docs:
            record = {"docid": doc.docid, "title": doc.title, "text": doc.text}
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    with open(out / "topics.tsv", "w", encoding="utf-8") as fh:
        for qid, text in topics:
            fh.write(f"{qid}\t{text}\n")
    write_qrels(qrels, str(out / "qrels.txt"))
    for name, vecs in (("queries.vec.tsv", query_vecs), ("docs.vec.tsv", doc_vecs)):
        with open(out / name, "w", encoding="utf-8") as fh:
            for vid, vec in vecs.items():
                fh.write(vid + "\t" + ",".join(repr(float(x)) for x in vec) + "\n")


def write_config() -> None:
    lines = [
        "# synthetic trilingual desk collection",
        "schema = rankpipe-exp-1",
        "seed = 42",
        "languages = en,sw,zh",
        "stages = index,bm25,dense,fuse,pool,rerank,eval",
        "output_dir = out",
        "",
        "retrieve.k = 50",
        "fuse.weights = 0.5,0.5",
        "pool.k = 50",
        "rerank.scorer = lexical",
        "eval.k = 10",
        "eval.recall_k = 50",
        "",
    ]
    for lang, _, _, _ in LANGUAGES:
        lines.append(f"corpus.{lang} = {lang}/corpus.jsonl")
        lines.append(f"topics.{lang} = {lang}/topics.tsv")
        lines.append(f"qrels.{lang} = {lang}/qrels.txt")
        lines.append(f"query_vectors.{lang} = {lang}/queries.vec.tsv")
        lines.append(f"doc_vectors.{lang} = {lang}/docs.vec.tsv")
        lines.append("")
    (HERE / "desk.cfg").write_text("\n".join(lines), encoding="utf-8")


def main() -> None:
    rng = np.random.default_rng(7)
    for lang_index, (lang, keys, vocab, joiner) in enumerate(LANGUAGES):
        parts = build_language(lang, keys, vocab, joiner, lang_index, rng)
        verify(lang, *parts)
        write_language(lang, *parts)
    write_config()
    print(f"wrote desk collection under {HERE}")


if __name__ == "__main__":
    main()
