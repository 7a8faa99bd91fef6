#!/usr/bin/env python3
"""External rerank scorer speaking rankpipe's line protocol.

    parent: HELLO 1            scorer: READY 1
    parent: SCORE<TAB>qid<TAB>docid<TAB>text
    scorer: qid<TAB>docid<TAB>score

The text arrives with backslash, tab and newline escaped as ``\\\\``,
``\\t`` and ``\\n``; it is unescaped in one left-to-right pass, so an
escaped backslash followed by ``n`` stays a backslash and an ``n``. The
score mixes query-term overlap with a checksum of the exact text, so a
benchmark recomputing it from the collection detects any corruption.
"""
import re
import sys
import zlib

_ESCAPED = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"t": "\t", "n": "\n"}


def unescape(text: str) -> str:
    return _ESCAPED.sub(lambda m: _ESCAPES.get(m[1], m[1]), text)


def score(text: str) -> float:
    query, _, rest = text.partition(" [SEP] ")
    words = set(query.lower().split())
    overlap = len(words & set(rest.lower().split())) / len(words) if words else 0.0
    return (overlap + zlib.crc32(text.encode("utf-8")) / 2**32) / 2


def main() -> int:
    if sys.stdin.readline().strip() != "HELLO 1":
        return 1
    print("READY 1", flush=True)
    for line in sys.stdin:
        _, qid, docid, text = line.rstrip("\n").split("\t", 3)
        print(f"{qid}\t{docid}\t{score(unescape(text))!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
