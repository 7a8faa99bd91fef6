"""Query-document pair construction and pluggable pair scoring.

A pair carries its query, title and body, each cleaned of the ``[SEP]``
marker and of line breaks. Scoring is delegated to one of three scorer kinds:

* ``lexical_baseline``: built-in unique-query-token overlap, a desk-scale
  stand-in for a neural cross-encoder; it alone applies the pair's token
  budget (query kept whole, separators counted, title before body);
* ``score_file``: scores copied through from a precomputed TSV;
* ``external_process``: a child process speaking the line protocol below
  over stdin/stdout; any model runtime can implement it in a dozen lines.

Protocol: the parent sends ``HELLO 1``, the scorer answers ``READY 1``.
Each request is ``SCORE<TAB>qid<TAB>docid<TAB>text``: the text is the full
``query [SEP] title [SEP] body``, untruncated (the scorer applies its own
length limit), with backslash, tab, and newline escaped as ``\\\\``,
``\\t``, ``\\n``. Each response is ``qid<TAB>docid<TAB>score`` with the score
in [0, 1], answered in request order. A scorer that sends no line, READY
included, for ``RESPONSE_DEADLINE_S`` seconds is a protocol error naming the
pending pair.
"""
from __future__ import annotations

import os
import re
import time
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

from .corpus import Document, load_corpus, load_topics
from .errors import DataError, FormatError, ProtocolError
from .fusion import DEFAULT_POOL_K, cut_pool
from .runs import Run, check_k
from .tokenization import tokenize
from .validate import data_lines

SEPARATOR = "[SEP]"

EXTERNAL_PROCESS = "external_process"
SCORE_FILE = "score_file"
LEXICAL_BASELINE = "lexical_baseline"

_RUN_TAGS = {
    EXTERNAL_PROCESS: "rerank-ext",
    SCORE_FILE: "rerank-file",
    LEXICAL_BASELINE: "rerank-lexical",
}

DEFAULT_BUDGET = 256

# the longest wait for any one line from an external scorer, READY included
RESPONSE_DEADLINE_S = 60.0

_ESCAPED = re.compile(r"\\(.)", re.DOTALL)  # a backslash and the character it escapes
_UNESCAPE = {"t": "\t", "n": "\n"}  # any other escaped character stands for itself


@dataclass(frozen=True)
class PairInput:
    """One (query, candidate) pair; ``build_pairs`` cleans the three segments."""

    qid: str
    docid: str
    query: str
    title: str
    body: str
    truncation_budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        if self.truncation_budget <= 0:
            raise ValueError("truncation_budget must be > 0")

    @property
    def text(self) -> str:
        """The full pair text an external scorer receives: ``query [SEP] title [SEP] body``."""
        return f"{self.query} {SEPARATOR} {self.title} {SEPARATOR} {self.body}"


@dataclass(frozen=True)
class ScorerHandle:
    """A scorer kind and its location; the default is the lexical baseline."""

    kind: str = LEXICAL_BASELINE
    location: str = ""

    def __post_init__(self) -> None:
        if self.kind not in (EXTERNAL_PROCESS, SCORE_FILE, LEXICAL_BASELINE):
            raise ValueError(f"unknown scorer kind {self.kind!r}")
        if self.kind != LEXICAL_BASELINE and not self.location:
            raise ValueError(f"scorer kind {self.kind!r} needs a location")

    @classmethod
    def parse(cls, spec: str) -> "ScorerHandle":
        """Parse a CLI scorer spec: ``lexical``, ``file:PATH``, or ``cmd:COMMAND``."""
        if spec == "lexical":
            return cls(kind=LEXICAL_BASELINE)
        if spec.startswith("file:"):
            return cls(kind=SCORE_FILE, location=spec[len("file:"):])
        if spec.startswith("cmd:"):
            return cls(kind=EXTERNAL_PROCESS, location=spec[len("cmd:"):])
        raise ValueError(f"unknown scorer spec {spec!r}")


def _clean(value: str) -> str:
    # the separator marker must appear exactly twice in the pair text
    return value.replace(SEPARATOR, " ").replace("\n", " ").replace("\r", " ")


def build_pairs(
    pool: Run,
    topics: Mapping[str, str],
    corpus_lookup: Mapping[str, Document],
    budget: int = DEFAULT_BUDGET,
) -> Iterator[PairInput]:
    """Yield one pair per (query, pool candidate), preserving pool order.

    The segments are kept whole; the budget is recorded for the lexical
    baseline, which applies it at scoring time.
    """
    for qid in pool.entries:
        if qid not in topics:
            raise DataError(f"no topic text for query {qid!r}")
        query = _clean(topics[qid])
        for docid in pool.docids(qid):
            doc = corpus_lookup.get(docid)
            if doc is None:
                raise DataError(f"pool document {docid!r} not found in corpus")
            yield PairInput(qid, docid, query, _clean(doc.title), _clean(doc.text), budget)


def lexical_score(pair: PairInput) -> float:
    """Unique-query-token overlap in [0, 1]: |q ∩ doc| / |q|.

    The budget caps the tokens of the pair text: the query is kept whole, the
    two separators count, and the rest goes to title tokens, then body
    tokens. The pair text tokenizes to query, separator, title, separator and
    body tokens in turn, since no token spans the separating spaces. 1.0
    exactly when every query token appears in the kept title and body tokens.
    """
    query = tokenize(pair.query)
    query_tokens = set(query)
    if not query_tokens:
        return 0.0
    room = max(pair.truncation_budget - len(query) - 2 * len(tokenize(SEPARATOR)), 0)
    title = tokenize(pair.title)[:room]
    body = tokenize(pair.body)[: room - len(title)]
    return len(query_tokens & {*title, *body}) / len(query_tokens)


def escape_text(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def unescape_text(text: str) -> str:
    return _ESCAPED.sub(lambda m: _UNESCAPE.get(m.group(1), m.group(1)), text)


def _read_score_file(path: str) -> dict[tuple[str, str], float]:
    scores: dict[tuple[str, str], float] = {}
    for lineno, line in data_lines(path):
        parts = line.split()
        if len(parts) != 3:
            raise FormatError(f"expected 'qid docid score', got {len(parts)} columns", path=path, line=lineno)
        qid, docid, score_str = parts
        if (qid, docid) in scores:
            raise FormatError(f"duplicate score for ({qid}, {docid})", path=path, line=lineno)
        try:
            scores[(qid, docid)] = float(score_str)
        except ValueError:
            raise FormatError(f"non-numeric score {score_str!r}", path=path, line=lineno) from None
    return scores


def _check_score(qid: str, docid: str, score: float) -> float:
    if not 0.0 <= score <= 1.0:
        raise ProtocolError(f"score {score} for ({qid}, {docid}) outside [0, 1]")
    return score


def _score_with_process(pairs: list[PairInput], command: str) -> list[float]:
    # imported here: most calls that import this module start no scorer
    import select
    import shlex
    import subprocess

    argv = shlex.split(command)
    try:
        proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, encoding="utf-8")
    except OSError as exc:
        raise ProtocolError(f"cannot launch scorer {command!r}: {exc}") from None
    scores: list[float] = []
    received = bytearray()

    def receive(pending: str) -> str:
        """The scorer's next line, '' at end of stream; a ProtocolError when it
        does not arrive within RESPONSE_DEADLINE_S."""
        deadline = time.monotonic() + RESPONSE_DEADLINE_S
        while b"\n" not in received:
            events = dict(poller.poll(max(deadline - time.monotonic(), 0.0) * 1000))
            if out_fd in events:
                chunk = os.read(out_fd, 65536)
                if not chunk:  # end of stream: what is left, maybe a line without its newline
                    break
                received.extend(chunk)
            elif events:  # POLLERR on stdin alone: the scorer closed its input
                raise BrokenPipeError
            else:
                raise ProtocolError(f"no line from the scorer within {RESPONSE_DEADLINE_S:g} s, waiting for {pending}")
        end = received.find(b"\n") + 1 or len(received)
        line = received[:end].decode("utf-8")
        del received[:end]
        return line

    try:
        assert proc.stdin is not None and proc.stdout is not None
        # stdout is read with os.read, never through proc.stdout's buffer, so no
        # complete line can wait in a buffer while poll reports the pipe idle
        out_fd = proc.stdout.fileno()
        poller = select.poll()
        poller.register(out_fd, select.POLLIN)
        poller.register(proc.stdin.fileno(), 0)  # POLLERR once the scorer closes its input
        proc.stdin.write("HELLO 1\n")
        proc.stdin.flush()
        ready = receive("READY 1")
        if ready.strip() != "READY 1":
            raise ProtocolError(f"bad handshake from scorer: {ready.strip()!r}")
        for pair in pairs:
            proc.stdin.write(f"SCORE\t{pair.qid}\t{pair.docid}\t{escape_text(pair.text)}\n")
            proc.stdin.flush()
            reply = receive(f"the response to ({pair.qid}, {pair.docid})")
            if not reply:
                raise ProtocolError(f"scorer closed the stream after {len(scores)} of {len(pairs)} responses")
            fields = reply.rstrip("\n").split("\t")
            if len(fields) != 3:
                raise ProtocolError(f"malformed response {reply.strip()!r}")
            qid, docid, score_str = fields
            if (qid, docid) != (pair.qid, pair.docid):
                raise ProtocolError(f"response for ({qid}, {docid}) does not match request ({pair.qid}, {pair.docid})")
            try:
                score = float(score_str)
            except ValueError:
                raise ProtocolError(f"non-numeric score in response {reply.strip()!r}") from None
            scores.append(_check_score(qid, docid, score))
        return scores
    except BrokenPipeError:
        raise ProtocolError(f"scorer closed its input after {len(scores)} of {len(pairs)} responses") from None
    finally:
        for stream in (proc.stdin, proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def score_pairs(pairs: Iterable[PairInput], scorer: ScorerHandle) -> Run:
    """Score every pair and assemble a reranked run.

    The output contains exactly the input (qid, docid) pairs: no drops, no
    inventions. Raises ProtocolError when a scorer misbehaves.
    """
    pair_list = list(pairs)
    if scorer.kind == LEXICAL_BASELINE:
        scores = [lexical_score(pair) for pair in pair_list]
    elif scorer.kind == SCORE_FILE:
        table = _read_score_file(scorer.location)
        scores = []
        for pair in pair_list:
            if (pair.qid, pair.docid) not in table:
                raise ProtocolError(f"score file lacks an entry for ({pair.qid}, {pair.docid})")
            scores.append(_check_score(pair.qid, pair.docid, table[(pair.qid, pair.docid)]))
    else:
        scores = _score_with_process(pair_list, scorer.location)
    per_query: dict[str, dict[str, float]] = {}
    for pair, score in zip(pair_list, scores):
        per_query.setdefault(pair.qid, {})[pair.docid] = score
    return Run.from_scores(per_query, tag=_RUN_TAGS[scorer.kind])


def rerank_pool(
    pool: Run,
    topics_path: str,
    corpus_path: str,
    scorer: ScorerHandle = ScorerHandle(),
    pool_k: int = DEFAULT_POOL_K,
    budget: int = DEFAULT_BUDGET,
) -> Run:
    """The rerank stage: score the first ``pool_k`` candidates of every pool query."""
    check_k(budget, name="budget")  # budget and pool_k before the reads, so that an empty pool cannot hide them
    pool = cut_pool(pool, pool_k)
    topics = load_topics(topics_path)
    corpus_lookup = {doc.docid: doc for doc in load_corpus(corpus_path)}
    pairs = build_pairs(pool, topics, corpus_lookup, budget)
    return score_pairs(pairs, scorer)
