"""Multilingual tokenization with per-script segmentation policies.

Text is case-folded and cut into alphanumeric tokens. ``whitespace`` keeps
each alphanumeric run whole; ``unigram`` makes every alphanumeric character
a token; ``auto`` (the default) segments by script run in one regex pass:
each character of an unsegmented script (Han, kana, Hangul, Thai) is a
token, so that text stays retrievable without a word segmenter, and every
other alphanumeric run is a word. That is UAX #29 word boundaries with
ideographs split per character, as in Lucene's ``StandardTokenizer``.
"""
from __future__ import annotations

import re

WHITESPACE = "whitespace"
UNIGRAM = "unigram"
AUTO = "auto"

POLICIES = (WHITESPACE, UNIGRAM, AUTO)

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)

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
_UNIGRAM_CHAR = rf"(?=[^\W_])[{_U}]"
_SCRIPT_RUNS = rf"{_UNIGRAM_CHAR}|[^\W_{_U}]+"


def detect_policy(text: str) -> str:
    """``unigram`` when unsegmented-script characters are the majority of the
    alphanumerics of ``text``, else ``whitespace`` (also for a text without any).
    """
    unigram = len(re.findall(_UNIGRAM_CHAR, text))
    return UNIGRAM if unigram > len(re.findall(r"[^\W_]", text)) - unigram else WHITESPACE


def tokenize(text: str, script_policy: str = AUTO) -> list[str]:
    """Case-fold and segment ``text`` into tokens under the given policy.

    Empty input yields an empty list; no token is ever the empty string.
    """
    if script_policy not in POLICIES:
        raise ValueError(f"unknown script policy: {script_policy!r}")
    folded = text.casefold()
    if script_policy == AUTO:
        return re.findall(_SCRIPT_RUNS, folded)
    if script_policy == UNIGRAM:
        return [ch for ch in folded if ch.isalnum()]
    return _WORD_RE.findall(folded)
