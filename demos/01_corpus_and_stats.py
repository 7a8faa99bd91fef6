"""Loading collections: corpus, topics, qrels, and per-language statistics.

Walks through the three on-disk formats and the statistics helper.
"""
import tempfile
from pathlib import Path

from rankpipe import corpus_stats, load_corpus, load_qrels, load_topics, write_qrels
from rankpipe.corpus import positives

scratch = Path(tempfile.mkdtemp(prefix="rankpipe-demo-"))

# --- the corpus format: one JSON object per line -------------------------
(scratch / "corpus.jsonl").write_text(
    '{"docid": "d1", "title": "Sparse retrieval", "text": "BM25 ranks by term statistics."}\n'
    '{"docid": "d2", "title": "", "text": "Dense retrieval embeds queries and passages."}\n'
    '{"docid": "d3", "title": "Hybrids", "text": "Fusing both beats either alone."}\n',
    encoding="utf-8",
)

# load_corpus streams: you can index millions of passages without holding
# them all in memory
docs = list(load_corpus(scratch / "corpus.jsonl"))
print(f"loaded {len(docs)} documents, first: {docs[0]}")

# --- topics: qid<TAB>query text ------------------------------------------
(scratch / "topics.tsv").write_text("q1\twhat is bm25\nq2\thybrid retrieval\n", encoding="utf-8")
topics = load_topics(scratch / "topics.tsv")  # qid -> query text, in file order
print(f"{len(topics)} queries, e.g. 'q1': {topics['q1']!r}")

# --- qrels: qid Q0 docid grade --------------------------------------------
(scratch / "qrels.txt").write_text("q1 Q0 d1 1\nq1 Q0 d2 0\nq2 Q0 d3 1\n", encoding="utf-8")
qrels = load_qrels(scratch / "qrels.txt")  # qid -> docid -> grade, in file order
# len(qrels) counts queries; the judgments are the (qid, docid) pairs
print(f"{sum(map(len, qrels.values()))} judgments; positives for q1: {positives(qrels['q1'])}")

# judgments round-trip losslessly
write_qrels(qrels, scratch / "copy.txt")
assert load_qrels(scratch / "copy.txt") == qrels

# --- statistics table row for one language --------------------------------
row = corpus_stats(
    load_corpus(scratch / "corpus.jsonl"),
    {"train": topics},
    {"train": qrels},
    language="en",
)
print(f"stats: {row.queries['train']} queries, {row.judgments['train']} judgments, {row.passages} passages")
