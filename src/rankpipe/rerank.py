"""Query-document pair construction and pluggable pair scoring.

A pair's text is ``query [SEP] title [SEP] body``. Scoring is delegated to
one of three scorer kinds:

* ``lexical_baseline``: built-in unique-query-token overlap, a desk-scale
  stand-in for a neural cross-encoder;
* ``score_file``: scores copied through from a precomputed TSV;
* ``external_process``: a child process speaking the line protocol below
  over stdin/stdout; any model runtime can implement it in a dozen lines.

Protocol: the parent sends ``HELLO 1``, the scorer answers ``READY 1``.
Each request is ``SCORE<TAB>qid<TAB>docid<TAB>text`` with backslash, tab,
and newline in the text escaped as ``\\\\``, ``\\t``, ``\\n``; each response
is ``qid<TAB>docid<TAB>score`` with the score in [0, 1], answered in
request order.
"""
from __future__ import annotations

import shlex
import subprocess
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

from .corpus import Document, Query
from .errors import DataError, FormatError, ProtocolError
from .fusion import CandidatePool
from .runs import Run
from .tokenization import AUTO, detect_policy, tokenize
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


def split_segments(text: str) -> tuple[str, str, str]:
    """Split pair text back into (query, title, body)."""
    parts = text.split(f" {SEPARATOR} ")
    if len(parts) != 3:
        raise DataError("pair text does not contain exactly two separators")
    return parts[0], parts[1], parts[2]


@dataclass(frozen=True)
class PairInput:
    qid: str
    docid: str
    text: str
    truncation_budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        if self.truncation_budget <= 0:
            raise ValueError("truncation_budget must be > 0")

    def segments(self) -> tuple[str, str, str]:
        return split_segments(self.text)


@dataclass(frozen=True)
class ScorerHandle:
    kind: str
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


def compose_pair_text(query: str, title: str, body: str) -> str:
    return f"{_clean(query)} {SEPARATOR} {_clean(title)} {SEPARATOR} {_clean(body)}"


def truncate_pair_text(text: str, budget: int, script_policy: str = AUTO) -> str:
    """Cap the pair text at ``budget`` tokens, counting every token of the
    final string (separator tokens included) and keeping the query intact.

    Title tokens are kept before body tokens; truncated segments are
    rejoined with single spaces, which re-tokenizes to the same tokens.
    """
    policy = detect_policy(text) if script_policy == AUTO else script_policy
    if len(tokenize(text, policy)) <= budget:
        return text
    query, title, body = split_segments(text)
    room = budget - len(tokenize(query, policy)) - 2 * len(tokenize(SEPARATOR, policy))
    room = max(room, 0)
    title_tokens = tokenize(title, policy)[:room]
    room -= len(title_tokens)
    body_tokens = tokenize(body, policy)[:room]
    return f"{query} {SEPARATOR} {' '.join(title_tokens)} {SEPARATOR} {' '.join(body_tokens)}"


def build_pairs(
    pool: CandidatePool,
    topics: Mapping[str, str] | Iterable[Query],
    corpus_lookup: Mapping[str, Document],
    budget: int = DEFAULT_BUDGET,
    truncate: bool = False,
    script_policy: str = AUTO,
) -> Iterator[PairInput]:
    """Yield one pair per (query, pool candidate), preserving pool order.

    With ``truncate`` the emitted text is token-capped at ``budget``;
    otherwise full text is emitted and the budget is only recorded (the
    lexical baseline enforces it at scoring time regardless).
    """
    if not isinstance(topics, Mapping):
        topics = {q.qid: q.text for q in topics}
    for qid in pool.entries:
        if qid not in topics:
            raise DataError(f"no topic text for query {qid!r}")
        for docid in pool.docids(qid):
            doc = corpus_lookup.get(docid)
            if doc is None:
                raise DataError(f"pool document {docid!r} not found in corpus")
            text = compose_pair_text(topics[qid], doc.title, doc.text)
            if truncate:
                text = truncate_pair_text(text, budget, script_policy)
            yield PairInput(qid=qid, docid=docid, text=text, truncation_budget=budget)


def lexical_score(pair: PairInput, script_policy: str = AUTO) -> float:
    """Unique-query-token overlap in [0, 1]: |q ∩ doc| / |q|.

    Applies the pair's truncation budget before scoring; 1.0 exactly when
    every query token appears in the (truncated) document text.
    """
    text = truncate_pair_text(pair.text, pair.truncation_budget, script_policy)
    query, title, body = split_segments(text)
    query_tokens = set(tokenize(query, script_policy))
    if not query_tokens:
        return 0.0
    doc_tokens = set(tokenize(f"{title} {body}", script_policy))
    return len(query_tokens & doc_tokens) / len(query_tokens)


def escape_text(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def unescape_text(text: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            if nxt == "t":
                out.append("\t")
            elif nxt == "n":
                out.append("\n")
            elif nxt == "\\":
                out.append("\\")
            else:
                out.append(nxt)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _read_score_file(path: str) -> dict[tuple[str, str], float]:
    scores: dict[tuple[str, str], float] = {}
    try:
        for lineno, line in data_lines(path):
            parts = line.split()
            if len(parts) != 3:
                raise FormatError(f"expected 'qid docid score', got {len(parts)} columns", path=path, line=lineno)
            qid, docid, score_str = parts
            try:
                scores[(qid, docid)] = float(score_str)
            except ValueError:
                raise FormatError(f"non-numeric score {score_str!r}", path=path, line=lineno) from None
    except OSError as exc:
        raise ProtocolError(f"cannot open score file {path!r}: {exc}") from None
    return scores


def _check_score(qid: str, docid: str, score: float) -> float:
    if not 0.0 <= score <= 1.0:
        raise ProtocolError(f"score {score} for ({qid}, {docid}) outside [0, 1]")
    return score


def _score_with_process(pairs: list[PairInput], command: str) -> list[float]:
    argv = shlex.split(command)
    try:
        proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, encoding="utf-8"
        )
    except OSError as exc:
        raise ProtocolError(f"cannot launch scorer {command!r}: {exc}") from None
    try:
        assert proc.stdin is not None and proc.stdout is not None
        proc.stdin.write("HELLO 1\n")
        proc.stdin.flush()
        ready = proc.stdout.readline()
        if ready.strip() != "READY 1":
            raise ProtocolError(f"bad handshake from scorer: {ready.strip()!r}")
        scores: list[float] = []
        for pair in pairs:
            proc.stdin.write(f"SCORE\t{pair.qid}\t{pair.docid}\t{escape_text(pair.text)}\n")
            proc.stdin.flush()
            reply = proc.stdout.readline()
            if not reply:
                raise ProtocolError(
                    f"scorer closed the stream after {len(scores)} of {len(pairs)} responses"
                )
            fields = reply.rstrip("\n").split("\t")
            if len(fields) != 3:
                raise ProtocolError(f"malformed response {reply.strip()!r}")
            qid, docid, score_str = fields
            if (qid, docid) != (pair.qid, pair.docid):
                raise ProtocolError(
                    f"response for ({qid}, {docid}) does not match request ({pair.qid}, {pair.docid})"
                )
            try:
                score = float(score_str)
            except ValueError:
                raise ProtocolError(f"non-numeric score in response {reply.strip()!r}") from None
            scores.append(_check_score(qid, docid, score))
        return scores
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


def score_pairs(pairs: Iterable[PairInput], scorer: ScorerHandle, script_policy: str = AUTO) -> Run:
    """Score every pair and assemble a reranked run.

    The output contains exactly the input (qid, docid) pairs: no drops, no
    inventions. ``script_policy`` is the segmentation the lexical baseline
    scores with. Raises ProtocolError when a scorer misbehaves.
    """
    pair_list = list(pairs)
    if scorer.kind == LEXICAL_BASELINE:
        scores = [lexical_score(pair, script_policy) for pair in pair_list]
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
