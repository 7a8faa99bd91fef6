#!/usr/bin/env python3
"""Reference external scorer: the whole wire protocol in a dozen lines.

Usage: rankpipe rerank --scorer cmd:"python3 demos/example_scorer.py" ...

Reads requests from stdin, answers on stdout. Swap `score()` for a real
model and keep everything else.

rankpipe streams its requests without waiting for each reply, so a scorer
must answer in request order and flush each line, as this one does. It
starts up to one copy per available CPU, each with its own whole queries,
so a model is loaded once per copy; `taskset -c 0 rankpipe rerank ...` runs
one.
"""
import re
import sys

_ESCAPED = re.compile(r"\\(.)", re.DOTALL)


def unescape(text: str) -> str:
    # one left-to-right pass, so an escaped backslash before "n" stays two characters
    return _ESCAPED.sub(lambda m: {"t": "\t", "n": "\n"}.get(m[1], m[1]), text)


def score(text: str) -> float:
    query, _, doc = unescape(text).partition(" [SEP] ")
    words = {w for w in query.lower().split() if w}
    hits = sum(1 for w in words if w in doc.lower())
    return hits / len(words) if words else 0.0


def main() -> int:
    if sys.stdin.readline().strip() != "HELLO 1":
        return 1
    print("READY 1", flush=True)
    for line in sys.stdin:
        _, qid, docid, text = line.rstrip("\n").split("\t")
        print(f"{qid}\t{docid}\t{score(text)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
