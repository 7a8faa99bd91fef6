"""Multilingual tokenization by script run.

Text is case-folded and cut into alphanumeric tokens in one regex pass: each
character of an unsegmented script (Han, kana, Hangul, Thai) is a token, so
that text stays retrievable without a word segmenter, and every other
alphanumeric run is a word. That is UAX #29 word boundaries with ideographs
split per character, as in Lucene's ``StandardTokenizer``. Index time,
query time and the lexical reranker all tokenize this one way.
"""
from __future__ import annotations

import re

AUTO = "auto"  # the tokenization's name, recorded in every index header

# Code-point ranges that get character-level segmentation.
_UNIGRAM_RANGES: tuple[tuple[int, int], ...] = (
    (0x1100, 0x11FF),  # Hangul jamo
    (0x0E00, 0x0E7F),  # Thai
    (0x3040, 0x309F),  # Hiragana
    (0x30A0, 0x30FF),  # Katakana
    (0x31F0, 0x31FF),  # Katakana phonetic extensions
    (0x3130, 0x318F),  # Hangul compatibility jamo
    (0x3400, 0x4DBF),  # CJK extension A
    (0x4E00, 0x9FFF),  # CJK unified ideographs
    (0xAC00, 0xD7AF),  # Hangul syllables
    (0xF900, 0xFAFF),  # CJK compatibility ideographs
)

_U = "".join(f"\\u{lo:04x}-\\u{hi:04x}" for lo, hi in _UNIGRAM_RANGES)
# ``[^\W_]`` is exactly ``str.isalnum``, ``[^\W_{_U}]`` an alphanumeric outside
# the ranges; marks and punctuation inside the ranges separate tokens. The
# patterns stay strings: ``re`` compiles and caches them at first use, so a
# process that never tokenizes (``--version``, ``eval``) skips the ~7 ms.
# At most one alternative matches at any position. ``re`` tests the class
# that begins an alternative before it enters it, so the unigram alternative
# dispatches on the first character: a Han character matches it at once and
# never tries the word run, and a Latin word pays one failed class test.
_UNIGRAM_CHAR = rf"[{_U}](?<=[^\W_])"
_SCRIPT_RUNS = rf"{_UNIGRAM_CHAR}|[^\W_{_U}]+"


# kept for perfbench/spans.py:probe_tokenization, which times it; ROADMAP item 12 frees it
def detect_policy(text: str) -> str:
    """``"unigram"`` when unsegmented-script characters are the majority of the
    alphanumerics of ``text``, else ``"whitespace"`` (also for a text without any).
    """
    unigram = len(re.findall(_UNIGRAM_CHAR, text))
    return "unigram" if unigram > len(re.findall(r"[^\W_]", text)) - unigram else "whitespace"


# script_policy is kept for perfbench/spans.py:probe_tokenization, which passes AUTO; ROADMAP item 12 frees it
def tokenize(text: str, script_policy: str = AUTO) -> list[str]:
    """Case-fold ``text`` and segment it by script run.

    Empty input yields an empty list; no token is ever the empty string.
    """
    if script_policy != AUTO:
        raise ValueError(f"unknown script policy: {script_policy!r}")
    return re.findall(_SCRIPT_RUNS, text.casefold())
