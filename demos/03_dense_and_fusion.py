"""Dense retrieval from precomputed vectors, then sparse+dense fusion.

Embeddings come from any external bi-encoder as a TSV file; the store does
exact exhaustive search, and min-max fusion makes the two score scales
comparable before averaging.
"""
import numpy as np

from rankpipe import EmbeddingStore, Run, cut_pool, dense_search, fuse, normalize_run

rng = np.random.default_rng(0)

# --- a toy embedding space -------------------------------------------------
# d1 sits on the query axis (semantic match), d2 is close, the rest are noise
query_store = EmbeddingStore(["q1"], np.array([[1.0, 0.0, 0.0, 0.0]]))
doc_ids = ["d1", "d2", "d3", "d4", "d5"]
doc_matrix = np.vstack(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.8, 0.6, 0.0, 0.0],
        rng.normal(scale=0.2, size=4),
        rng.normal(scale=0.2, size=4),
        rng.normal(scale=0.2, size=4),
    ]
)
doc_store = EmbeddingStore(doc_ids, doc_matrix)

dense_hits = dense_search(query_store, doc_store, "q1", k=5)
print("dense:", [(d, round(s, 3)) for d, s in dense_hits])

# --- a sparse run that disagrees -------------------------------------------
# BM25 found d5 (lexical match) and never saw d1
bm25 = Run.from_scores({"q1": {"d5": 7.1, "d2": 3.0, "d4": 1.2}}, tag="bm25")
dense = Run.from_scores({"q1": dict(dense_hits)}, tag="dense")

# raw scores are incomparable (7.1 vs 1.0); normalize per query first
hybrid = fuse([normalize_run(bm25), normalize_run(dense)], weights=[0.5, 0.5])
print("hybrid:", [(d, round(s, 3)) for d, s in hybrid.entries["q1"]])
# d2 wins: it is the only doc both systems agree on

# --- candidate pools feed sampling and reranking ----------------------------
pool = cut_pool(hybrid, k=3)
print(f"pool (top 3 of {pool.tag!r}):", pool.docids("q1"))
