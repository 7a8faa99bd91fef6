"""Query-document pair construction and pluggable pair scoring.

A pair carries its query, title and body, each cleaned of the ``[SEP]``
marker and of line breaks. Scoring is delegated to one of three scorer kinds:

* ``lexical_baseline``: built-in unique-query-token overlap, a desk-scale
  stand-in for a neural cross-encoder; it alone applies the pair's token
  budget (query kept whole, separators counted, title before body);
* ``score_file``: probabilities copied from a TREC run, a reranked run included;
* ``external_process``: child processes speaking the line protocol below
  over stdin/stdout; any model runtime can implement it in a dozen lines.

Protocol: the parent sends ``HELLO 1``, the scorer answers ``READY 1``.
Each request is ``SCORE<TAB>qid<TAB>docid<TAB>text``: the text is the full
``query [SEP] title [SEP] body``, untruncated (the scorer applies its own
length limit), with backslash, tab, and newline escaped as ``\\\\``,
``\\t``, ``\\n``. Each response is ``qid<TAB>docid<TAB>score`` with the score
in [0, 1], answered in request order.

The command runs as up to one scorer per available CPU, at most one per
query, each with a contiguous run of whole queries balanced by query count.
Requests are streamed, written whenever a scorer's input pipe has room, and
each score goes back to its pair's place, so the run does not depend on the
number of scorers. A scorer that owes a line, READY included, and sends none
for ``RESPONSE_DEADLINE_S`` seconds is a protocol error naming that line.
"""
from __future__ import annotations

import os
import re
import time
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING

from . import available_cpus
from .corpus import Document, load_corpus, load_topics
from .errors import DataError, ProtocolError
from .fusion import DEFAULT_POOL_K, cut_pool
from .runs import Run, check_k, read_probabilities
from .tokenization import tokenize

if TYPE_CHECKING:
    import subprocess

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

# the longest wait for any one line an external scorer owes, READY included
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
    baseline, which applies it at scoring time. Each pooled document is
    cleaned once, and its pairs share the cleaned title and body.
    """
    segments: dict[str, tuple[str, str]] = {}
    for qid in pool.entries:
        if qid not in topics:
            raise DataError(f"no topic text for query {qid!r}")
        query = _clean(topics[qid])
        for docid in pool.docids(qid):
            cleaned = segments.get(docid)
            if cleaned is None:
                doc = corpus_lookup.get(docid)
                if doc is None:
                    raise DataError(f"pool document {docid!r} not found in corpus")
                cleaned = segments[docid] = (_clean(doc.title), _clean(doc.text))
            yield PairInput(qid, docid, query, *cleaned, budget)


def lexical_score(pair: PairInput) -> float:
    """Unique-query-token overlap in [0, 1]: |q ∩ doc| / |q|.

    The budget caps the tokens of the pair text: the query is kept whole, the
    two separators count, and the rest goes to title tokens, then body
    tokens. The pair text tokenizes to query, separator, title, separator and
    body tokens in turn, since no token spans the separating spaces. 1.0
    exactly when every query token appears in the kept title and body tokens.
    """
    return _lexical_scores([pair])[0]


def _lexical_scores(pairs: list[PairInput]) -> list[float]:
    """``lexical_score`` of each pair. A pool repeats its queries and its
    documents, so each query text is tokenized once, and each title and body
    once per budget."""
    separators = 2 * len(tokenize(SEPARATOR))
    queries: dict[str, tuple[int, set[str]]] = {}  # query text -> its token count and token set
    documents: dict[tuple[str, str, int], tuple[list[str], list[str]]] = {}  # the tokens cut at the budget
    scores = []
    for pair in pairs:
        query = queries.get(pair.query)
        if query is None:
            tokens = tokenize(pair.query)
            query = queries[pair.query] = (len(tokens), set(tokens))
        count, query_tokens = query
        if not query_tokens:
            scores.append(0.0)
            continue
        budget = pair.truncation_budget
        key = (pair.title, pair.body, budget)
        document = documents.get(key)
        if document is None:  # room never passes the budget, so the cut keeps every token scored
            document = documents[key] = (tokenize(pair.title)[:budget], tokenize(pair.body)[:budget])
        title, body = document
        room = max(budget - count - separators, 0)
        title = title[:room]
        scores.append(len(query_tokens & {*title, *body[: room - len(title)]}) / len(query_tokens))
    return scores


def escape_text(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def unescape_text(text: str) -> str:
    return _ESCAPED.sub(lambda m: _UNESCAPE.get(m.group(1), m.group(1)), text)


@dataclass(eq=False)
class _Scorer:
    """One scorer process and its share of the pairs, a contiguous run of whole queries."""

    proc: subprocess.Popen
    pairs: list[PairInput]
    scores: list[float] = field(default_factory=list)  # the responses so far, in request order
    out: bytes = b"HELLO 1\n"  # being written: the handshake, then each batch of requests once READY came
    sent: int = 0  # bytes of ``out`` written
    ready: bool = False
    since: float = field(default_factory=time.monotonic)  # its launch or its last line
    partial: bytes = b""  # the start of a line whose newline has not arrived
    batches: Iterator[bytes] = field(init=False)  # the encoded requests

    def __post_init__(self) -> None:
        requests = (f"SCORE\t{pair.qid}\t{pair.docid}\t{escape_text(pair.text)}\n" for pair in self.pairs)
        # 32 requests at a time, then b"" once all are encoded
        self.batches = iter(lambda: "".join(islice(requests, 32)).encode("utf-8"), b"")

    def send(self) -> None:
        """Write what the pipe takes of ``out``, then take the next batch once READY came."""
        self.sent += os.write(self.proc.stdin.fileno(), memoryview(self.out)[self.sent:])
        if self.sent == len(self.out) and self.ready:
            self.out, self.sent = next(self.batches, b""), 0

    def receive(self) -> None:
        """Read what the pipe holds and take each whole line; at the end of the
        stream, what is left is a line without its newline. The pipe is read
        with os.read, so no line waits in a buffer while poll reports it idle."""
        chunk = os.read(self.proc.stdout.fileno(), 65536)
        *lines, self.partial = (self.partial + chunk).split(b"\n")
        if not chunk and (self.partial or not self.ready):
            lines.append(self.partial)
        if lines:
            self.since = time.monotonic()
        for raw in lines:
            line = raw.decode("utf-8")
            if not self.ready:
                if line.strip() != "READY 1":
                    raise ProtocolError(f"bad handshake from scorer: {line.strip()!r}")
                self.ready, self.out, self.sent = True, next(self.batches, b""), 0
                continue
            if len(self.scores) == len(self.pairs):
                break
            fields = line.split("\t")
            if len(fields) != 3:
                raise ProtocolError(f"malformed response {line.strip()!r}")
            qid, docid, score_str = fields
            pair = self.pairs[len(self.scores)]
            if (qid, docid) != (pair.qid, pair.docid):
                raise ProtocolError(f"response for ({qid}, {docid}) does not match request ({pair.qid}, {pair.docid})")
            try:
                score = float(score_str)
            except ValueError:
                raise ProtocolError(f"non-numeric score in response {line.strip()!r}") from None
            if not 0.0 <= score <= 1.0:
                raise ProtocolError(f"score {score} for ({qid}, {docid}) outside [0, 1]")
            self.scores.append(score)
        if not chunk and len(self.scores) < len(self.pairs):
            raise ProtocolError(f"scorer closed the stream after {len(self.scores)} of {len(self.pairs)} responses")


def _shares(pairs: list[PairInput], cpus: int) -> list[list[PairInput]]:
    """At most ``cpus`` contiguous runs of whole queries that cover ``pairs``,
    balanced by query count; one empty run when there are no pairs."""
    starts = [i for i, pair in enumerate(pairs) if not i or pair.qid != pairs[i - 1].qid] or [0]
    count = max(1, min(cpus, len(starts)))
    edges = [starts[len(starts) * j // count] for j in range(count)] + [len(pairs)]
    return [pairs[start:stop] for start, stop in zip(edges, edges[1:])]


def _score_with_process(pairs: list[PairInput], command: str, cpus: int) -> list[float]:
    # imported here: most calls that import this module start no scorer
    import select
    import shlex
    import subprocess

    argv = shlex.split(command)
    scorers: list[_Scorer] = []
    poller = select.poll()
    try:
        for share in _shares(pairs, cpus):
            try:
                proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            except OSError as exc:
                raise ProtocolError(f"cannot launch scorer {command!r}: {exc}") from None
            scorers.append(_Scorer(proc, share))
            os.set_blocking(proc.stdin.fileno(), False)
            poller.register(proc.stdin.fileno(), select.POLLOUT)
            poller.register(proc.stdout.fileno(), select.POLLIN)
        active = list(scorers)
        while active:
            # each active scorer owes a line, READY or the response to a request
            # begun, since its input is written whenever the pipe has room
            oldest = min(active, key=lambda s: s.since)
            wait = oldest.since + RESPONSE_DEADLINE_S - time.monotonic()
            if wait <= 0:
                pair = oldest.pairs[len(oldest.scores)] if oldest.ready else None
                pending = f"the response to ({pair.qid}, {pair.docid})" if pair else "READY 1"
                raise ProtocolError(f"no line from the scorer within {RESPONSE_DEADLINE_S:g} s, waiting for {pending}")
            events = dict(poller.poll(wait * 1000))
            for s in [s for s in active if s.proc.stdin.fileno() in events or s.proc.stdout.fileno() in events]:
                in_fd, out_fd = s.proc.stdin.fileno(), s.proc.stdout.fileno()
                try:
                    if out_fd in events:
                        s.receive()
                    elif s.sent == len(s.out):  # POLLERR on an input polled for nothing: the scorer closed it
                        raise BrokenPipeError
                    if in_fd in events and s.sent < len(s.out):
                        s.send()
                except BrokenPipeError:
                    raise ProtocolError(
                        f"scorer closed its input after {len(s.scores)} of {len(s.pairs)} responses") from None
                if s.ready and len(s.scores) == len(s.pairs):
                    poller.unregister(in_fd)
                    poller.unregister(out_fd)
                    s.proc.stdin.close()  # its input ends, so it can exit
                    active.remove(s)
                else:
                    poller.modify(in_fd, select.POLLOUT if s.sent < len(s.out) else 0)
        return [score for s in scorers for score in s.scores]
    finally:  # every scorer is stopped first, then all are reaped within one deadline
        for s in scorers:
            s.proc.stdin.close()  # nothing is buffered: requests are written with os.write
            s.proc.stdout.close()
            s.proc.terminate()
        deadline = time.monotonic() + 10
        for s in scorers:
            try:
                s.proc.wait(timeout=max(deadline - time.monotonic(), 0))
            except subprocess.TimeoutExpired:
                s.proc.kill()
                s.proc.wait()


def score_pairs(pairs: Iterable[PairInput], scorer: ScorerHandle, cpus: int | None = None) -> Run:
    """Score every pair and assemble a reranked run.

    The output contains exactly the input (qid, docid) pairs: no drops, no
    inventions. An external scorer runs as up to ``cpus`` processes, by
    default one per CPU this process may run on. Raises ProtocolError when a
    scorer misbehaves.
    """
    pair_list = list(pairs)
    if scorer.kind == LEXICAL_BASELINE:
        scores = _lexical_scores(pair_list)
    elif scorer.kind == SCORE_FILE:
        table = read_probabilities(scorer.location)
        scores = []
        for pair in pair_list:
            score = table.get(pair.qid, {}).get(pair.docid)
            if score is None:
                raise ProtocolError(f"score file lacks an entry for ({pair.qid}, {pair.docid})")
            scores.append(score)
    else:
        scores = _score_with_process(pair_list, scorer.location, available_cpus() if cpus is None else cpus)
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
    cpus: int | None = None,
) -> Run:
    """The rerank stage: score the first ``pool_k`` candidates of every pool query,
    an external scorer with up to ``cpus`` processes (see ``score_pairs``).

    Every corpus line is parsed, so a bad one fails the call at its
    ``path:line``, but only the pooled documents are kept."""
    check_k(budget, name="budget")  # budget and pool_k before the reads, so that an empty pool cannot hide them
    pool = cut_pool(pool, pool_k)
    topics = load_topics(topics_path)
    pooled = {docid for ranked in pool.entries.values() for docid, _ in ranked}
    corpus_lookup = {doc.docid: doc for doc in load_corpus(corpus_path) if doc.docid in pooled}
    pairs = build_pairs(pool, topics, corpus_lookup, budget)
    return score_pairs(pairs, scorer, cpus)
