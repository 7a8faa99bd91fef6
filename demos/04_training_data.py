"""Manufacturing ranking training data: negatives, query links, pseudo labels.

Three seeded, reproducible generators:

* pool negatives: label-0 pairs drawn from the hybrid top-K (skipping
  annotated positives), which matches the candidate distribution the ranker
  sees at inference time far better than corpus-random negatives;
* q2q2d: a new query inherits judgments from its most similar known query,
  discounted by similarity and a noise-control factor alpha=0.9;
* pseudo labels: model scores on unlabeled pairs reused as soft labels,
  scaled by 0.9.
"""
import numpy as np

from rankpipe import (
    AugmentationParams,
    EmbeddingStore,
    Run,
    cut_pool,
    pseudo_label,
    q2q2d_augment,
    sample_negatives,
    sample_negatives_corpus,
)

# --- pool-based negative sampling ------------------------------------------
run = Run.from_scores({"q1": {f"d{i:02d}": 100.0 - i for i in range(100)}}, tag="hybrid")
pool = cut_pool(run, 100)
qrels = {"q1": {"d00": 1, "d03": 1, "d07": 0}}  # qid -> docid -> grade, as load_qrels returns them

negatives = sample_negatives(pool, qrels, n=5, seed=42, query_texts={"q1": "example query"})
print("pool negatives:", [p.docid for p in negatives])
# - never a positive (d00/d03 excluded), judged-zero d07 is fair game
# - same seed, same sample; and n=8 extends the n=5 sample as a prefix:
more = sample_negatives(pool, qrels, n=8, seed=42)
assert [p.docid for p in more[:5]] == [p.docid for p in negatives]

# the whole-corpus baseline draws from everything, including documents no
# retriever would ever surface (weaker in practice)
corpus_ids = [f"c{i:04d}" for i in range(5000)]
corpus_negs = sample_negatives_corpus(corpus_ids, qrels, n=5, seed=42)
print("corpus negatives:", [p.docid for p in corpus_negs])

# --- q2q2d: transfer judgments between similar queries ----------------------
vectors = EmbeddingStore(
    ["new-q", "known-q"],
    np.array([[1.0, 0.0], [0.8, 0.6]]),  # cosine similarity exactly 0.8
)
train_qrels = {"known-q": {"d42": 1, "d43": 0}}
params = AugmentationParams(alpha=0.9, top_m=1, tau=0.75, seed=0)
augmented = q2q2d_augment(
    {"new-q": "fresh unseen question"},  # target and source topics: qid -> text, as load_topics returns them
    {"known-q": "annotated question"},
    train_qrels,
    vectors,
    params,
)
for pair in augmented:
    print(f"q2q2d {pair.qid} x {pair.docid}: label = sim * grade * alpha = {pair.label:.3f}")

# --- pseudo labels from a scored run ----------------------------------------
scored = Run.from_scores({"new-q": {"d1": 0.95, "d2": 0.40, "d3": 0.10, "d4": 0.75}}, tag="model")
pseudo = pseudo_label(scored, {"new-q": "fresh unseen question"}, AugmentationParams(pseudo_fraction=0.5, seed=1))
print("pseudo labels:", [(p.docid, round(p.label, 3)) for p in pseudo])
# soft labels only: 0.9 * model score, no thresholding to 0/1
