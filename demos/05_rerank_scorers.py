"""Building query-document pairs and scoring them with pluggable scorers.

A pair carries its query, title and body; an external scorer receives them
in full as ``query [SEP] title [SEP] body``. The built-in lexical baseline
caps the pair at a token budget (256 by default, query always kept whole).
Scores can also come from a precomputed score file or any external process
speaking the line protocol (see example_scorer.py).
"""
import sys
import tempfile
from pathlib import Path

from rankpipe import (
    Document,
    PairInput,
    Run,
    ScorerHandle,
    build_pairs,
    cut_pool,
    lexical_score,
    score_pairs,
)

HERE = Path(__file__).resolve().parent

corpus = {
    "d1": Document("d1", "negative sampling", "sampling hard negatives from the candidate pool"),
    "d2": Document("d2", "", "an unrelated passage about something else entirely"),
    "d3": Document("d3", "pool candidates", "the pool holds the top fused candidates per query"),
}
pool = cut_pool(Run.from_scores({"q1": {"d1": 3.0, "d3": 2.0, "d2": 1.0}}, tag="hybrid"), 3)
topics = {"q1": "negative sampling from the pool"}

# --- pair construction -------------------------------------------------------
pairs = list(build_pairs(pool, topics, corpus, budget=256))
print(pairs[0].text)

# the lexical baseline keeps the query whole and counts both separators:
# with a 40-token budget, 3 query + 2 separator tokens leave 35 body tokens,
# w0 to w34, so the query term w35 no longer counts
body = " ".join(f"w{i}" for i in range(100))
for term in ("w34", "w35"):
    capped = PairInput("q1", "d9", f"pool {term} ranking", "", body, truncation_budget=40)
    print(f"query 'pool {term} ranking', budget 40: {lexical_score(capped):.3f}")

# --- scorer 1: the built-in lexical baseline ---------------------------------
print("\nlexical overlap scores:")
for pair in pairs:
    print(f"  {pair.docid}: {lexical_score(pair):.3f}")
reranked = score_pairs(pairs, ScorerHandle.parse("lexical"))
print("reranked order:", reranked.docids("q1"))

# --- scorer 2: a score file (e.g. exported from a GPU job) -------------------
with tempfile.TemporaryDirectory(prefix="rankpipe-demo-") as tmp:
    score_file = Path(tmp) / "scores.tsv"
    score_file.write_text("q1 d1 0.91\nq1 d2 0.05\nq1 d3 0.64\n", encoding="utf-8")
    from_file = score_pairs(pairs, ScorerHandle.parse(f"file:{score_file}"))
    print("score-file order:", from_file.docids("q1"))

# --- scorer 3: an external process (any runtime, any model) ------------------
handle = ScorerHandle.parse(f'cmd:{sys.executable} {HERE / "example_scorer.py"}')
from_process = score_pairs(pairs, handle)
print("external-scorer order:", from_process.docids("q1"))
