"""Multilingual tokenization, inverted indexing, and BM25 top-k search."""
import tempfile
from pathlib import Path

from rankpipe import Bm25Params, Document, bm25_search, build_index, load_index, save_index, tokenize

# --- tokenization picks a segmentation per script -------------------------
print(tokenize("The Quick, quick fox"))        # whitespace scripts: fold + split
print(tokenize("多语言检索系统"))                # unsegmented scripts: one token per character
print(tokenize("nDCG@10 is rank-sensitive"))   # punctuation separates, digits survive
print(tokenize("Flights to 北京 in 2023年"))    # mixed text: Han per character, words whole

# --- build an index over title + body --------------------------------------
docs = [
    Document("d1", "BM25", "bag of words ranking with term frequency saturation"),
    Document("d2", "Dense vectors", "bi-encoders embed the full meaning of a passage"),
    Document("d3", "Hybrid", "combining bag of words ranking with dense vectors"),
    Document("d4", "排序", "混合检索系统结合词频与向量"),
]
index = build_index(docs, script_policy="auto")
print(f"\n{index.doc_count} docs, avgdl={index.avgdl:.2f}, vocabulary={len(index.postings)}")

# --- search: Lucene-flavored BM25, k1=0.9 b=0.4 ----------------------------
for query in ("bag of words ranking", "dense meaning", "检索"):
    hits = bm25_search(index, query, k=3, params=Bm25Params(k1=0.9, b=0.4))
    print(f"{query!r:32} -> {[(d, round(s, 3)) for d, s in hits]}")

# only documents containing at least one query term are returned;
# ties break on ascending docid so runs are reproducible

# --- persistence: build once, search many times ----------------------------
with tempfile.TemporaryDirectory(prefix="rankpipe-demo-") as tmp:
    path = Path(tmp) / "demo.rpidx"
    save_index(index, path)
    reloaded = load_index(path)
    assert bm25_search(reloaded, "hybrid ranking", 4) == bm25_search(index, "hybrid ranking", 4)
    print(f"\nindex round-tripped through {path.name} ({path.stat().st_size} bytes)")
