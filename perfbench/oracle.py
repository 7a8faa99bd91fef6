"""Reference implementations the benchmark checks the program against.

Written from the documented formats and formulas only; nothing here is
imported from the package under test or from its tests.
"""
from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field

K1, B = 0.9, 0.4

_WORD = re.compile(r"[^\W_]+")
# scripts segmented one character per token: Thai, Hangul, kana, CJK
_UNIGRAM = re.compile(
    "[\u0e00-\u0e7f\u1100-\u11ff\u3040-\u30ff\u3130-\u318f\u31f0-\u31ff"
    "\u3400-\u4dbf\u4e00-\u9fff\uac00-\ud7af\uf900-\ufaff]"
)
_SCRIPT_RUNS = re.compile(rf"{_UNIGRAM.pattern}|(?:(?!{_UNIGRAM.pattern})[^\W_])+")


def tokenize(text: str, policy: str = "auto", split_scripts: bool = False) -> list[str]:
    """Case-folded tokens: word runs ("whitespace"), one per alphanumeric
    character ("unigram"), or under "auto" unigrams when unsegmented-script
    characters are the majority of the alphanumerics.

    With ``split_scripts`` "auto" segments per script run instead: each
    unsegmented-script character is a token and other alphanumeric runs are
    words. Both are documented ways to segment mixed-script text, and the
    BM25 check accepts either.
    """
    folded = text.casefold()
    if policy == "auto" and split_scripts:
        return _SCRIPT_RUNS.findall(folded)
    alnum = [ch for ch in folded if ch.isalnum()]
    if policy == "auto":
        unigram = sum(1 for ch in alnum if _UNIGRAM.match(ch))
        policy = "unigram" if unigram > len(alnum) - unigram else "whitespace"
    return alnum if policy == "unigram" else _WORD.findall(folded)


def bm25_idf(n: int, df: int) -> float:
    return math.log(1.0 + (n - df + 0.5) / (df + 0.5))


@dataclass
class Collection:
    docs: dict[str, tuple[str, str]]  # docid -> (title, text)
    queries: dict[str, str]
    qrels: dict[str, dict[str, int]]
    split_scripts: bool = False
    _tf: dict[str, Counter] = field(default_factory=dict, repr=False)

    def term_counts(self, docid: str) -> Counter:
        if docid not in self._tf:
            title, text = self.docs[docid]
            self._tf[docid] = Counter(tokenize(f"{title} {text}", split_scripts=self.split_scripts))
        return self._tf[docid]

    def document_frequencies(self) -> Counter:
        df: Counter = Counter()
        for docid in self.docs:
            df.update(self.term_counts(docid).keys())
        return df

    def avgdl(self) -> float:
        return sum(sum(self.term_counts(d).values()) for d in self.docs) / len(self.docs)

    def bm25_score(self, docid: str, terms: list[str], df: Counter, avgdl: float) -> float:
        """Lucene-style BM25 (k1=0.9, b=0.4), summed over ``terms`` in order."""
        counts = self.term_counts(docid)
        norm = K1 * (1.0 - B + B * sum(counts.values()) / avgdl)
        score = 0.0
        for term in terms:
            tf = counts.get(term, 0)
            if tf:
                score += bm25_idf(len(self.docs), df[term]) * tf / (tf + norm)
        return score

    def bm25_rank(self, qid: str, k: int, df: Counter, avgdl: float) -> list[tuple[str, float]]:
        """Score every passage exhaustively; keep positive scores, best first,
        ties by ascending docid."""
        terms = sorted(set(tokenize(self.queries[qid], split_scripts=self.split_scripts)))
        scored = [(d, self.bm25_score(d, terms, df, avgdl)) for d in self.docs]
        return sorted((p for p in scored if p[1] > 0.0), key=lambda p: (-p[1], p[0]))[:k]


def ndcg(ranked: list[str], judged: dict[str, int], k: int) -> float | None:
    """Linear-gain nDCG@k; None for a query without a positive judgment."""
    if not any(g >= 1 for g in judged.values()):
        return None
    dcg = sum(judged.get(d, 0) / math.log2(i + 2) for i, d in enumerate(ranked[:k]))
    ideal = sorted(judged.values(), reverse=True)[:k]
    return dcg / sum(g / math.log2(i + 2) for i, g in enumerate(ideal))


def recall(ranked: list[str], judged: dict[str, int], k: int) -> float | None:
    """Share of a query's positives in the top k; None without positives."""
    positives = {d for d, g in judged.items() if g >= 1}
    if not positives:
        return None
    return len(positives & set(ranked[:k])) / len(positives)


def read_run(path) -> dict[str, list[tuple[str, float]]]:
    """Parse a six-column TREC run file in file order."""
    run: dict[str, list[tuple[str, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip() or line.startswith("#"):
                continue
            qid, _, docid, _, score, _ = line.split()
            run.setdefault(qid, []).append((docid, float(score)))
    return run


SEPARATOR = "[SEP]"


def pair_text(query: str, title: str, body: str) -> str:
    """Rerank pair text as documented: ``query [SEP] title [SEP] body``."""

    def clean(value: str) -> str:
        return value.replace(SEPARATOR, " ").replace("\n", " ").replace("\r", " ")

    return f"{clean(query)} {SEPARATOR} {clean(title)} {SEPARATOR} {clean(body)}"
