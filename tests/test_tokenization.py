import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rankpipe.corpus import Document
from rankpipe.sparse import bm25_search, build_index
from rankpipe.tokenization import AUTO, detect_policy, tokenize

# the unsegmented scripts, one token per character: Thai, Hangul jamo,
# kana, Hangul compatibility jamo, CJK extension A and unified ideographs,
# Hangul syllables, CJK compatibility ideographs
SCRIPT_RANGES = (
    (0x0E00, 0x0E7F), (0x1100, 0x11FF), (0x3040, 0x30FF), (0x3130, 0x318F), (0x31F0, 0x31FF),
    (0x3400, 0x4DBF), (0x4E00, 0x9FFF), (0xAC00, 0xD7AF), (0xF900, 0xFAFF),
)


def unsegmented(ch: str) -> bool:
    return any(lo <= ord(ch) <= hi for lo, hi in SCRIPT_RANGES)


def reference_auto(text: str) -> list[str]:
    """Script-run segmentation, one character at a time."""
    tokens, word = [], ""
    for ch in text.casefold():
        if ch.isalnum() and not unsegmented(ch):
            word += ch
            continue
        if word:
            tokens.append(word)
            word = ""
        if ch.isalnum():
            tokens.append(ch)
    return tokens + [word] if word else tokens


# any code point, weighted towards the scripts, their punctuation and marks, and Latin
MIXED_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",))
    | st.sampled_from(list("北京检索系统ひらがなカタカナ・ー한국어ᄀㄱภาษาไทย๑ิ豈abcXYZ2023 İßﬀ-_,.。、\t"))
)


# the script-run pattern with its two alternatives in the other order: at most
# one matches at any position, so the order must change no token
_RANGES = "".join(f"\\u{lo:04x}-\\u{hi:04x}" for lo, hi in SCRIPT_RANGES)
UNIGRAM_FIRST = rf"(?=[^\W_])[{_RANGES}]|[^\W_{_RANGES}]+"

# Latin, digits, Han, kana, Hangul, Thai, combining marks, punctuation, "_" and whitespace
SCRIPT_TEXT = st.text(st.sampled_from(list(
    "abzAZéßİ09٣" "北京检索" "ひらがなカタカナー" "한국어ᄀㄱ" "ภาษาไทย๑ิ" "\u0301\u0308\u3099" ",.-。、・!_ \t\n\u3000"
)))


class TestWhitespacePolicy:
    """Text without unsegmented scripts: each alphanumeric run is one word."""

    def test_case_fold_and_punctuation_split(self):
        assert tokenize("The Quick, quick fox") == ["the", "quick", "quick", "fox"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_punctuation_only(self):
        assert tokenize("...!?--") == []

    def test_underscore_is_a_separator(self):
        assert tokenize("foo_bar") == ["foo", "bar"]

    def test_digits_kept(self):
        assert tokenize("bm25 top-200") == ["bm25", "top", "200"]


class TestUnigramPolicy:
    """Text of unsegmented scripts: each alphanumeric character is one token."""

    def test_three_cjk_characters(self):
        assert tokenize("你好吗") == ["你", "好", "吗"]

    def test_punctuation_dropped(self):
        assert tokenize("你，好。") == ["你", "好"]


class TestAutoPolicy:
    def test_latin_majority_uses_whitespace(self):
        assert tokenize("hello world", AUTO) == ["hello", "world"]

    def test_han_majority_uses_unigram(self):
        assert tokenize("检索系统", AUTO) == ["检", "索", "系", "统"]

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("ひらがな", "unigram"),
            ("カタカナ", "unigram"),
            ("한국어입니다", "unigram"),
            ("ภาษาไทย", "unigram"),
            ("swahili na kiingereza", "whitespace"),
            ("", "whitespace"),
        ],
    )
    def test_script_detection(self, text, expected):
        assert detect_policy(text) == expected

    def test_mixed_text_segments_by_script_run(self):
        assert tokenize("检索系统 abc", AUTO) == ["检", "索", "系", "统", "abc"]
        assert tokenize("2023年", AUTO) == ["2023", "年"]

    def test_detect_policy_majority(self):
        # 4 Han characters vs 3 Latin ones
        assert detect_policy("检索系统 abc") == "unigram"
        assert detect_policy("检索 abcdef") == "whitespace"

    def test_unknown_policy_rejected(self):
        for policy in ("stemming", "whitespace", "unigram"):
            with pytest.raises(ValueError):
                tokenize("x", policy)


class TestTokenStreamInvariants:
    def test_no_empty_tokens(self):
        rng = np.random.default_rng(42)
        pool = list("abc ABC 12 ,.!?-_\t\n") + ["你", "好", "ไ", "ท", "한"]
        for _ in range(300):
            text = "".join(rng.choice(pool, size=rng.integers(0, 40)))
            assert all(tok for tok in tokenize(text))

    def test_deterministic(self):
        text = "Mixed 检索 Text ース 123"
        assert tokenize(text) == tokenize(text)


class TestScriptRuns:
    @settings(max_examples=500, deadline=None)
    @given(MIXED_TEXT)
    def test_auto_is_script_run_segmentation(self, text):
        assert tokenize(text, AUTO) == reference_auto(text)

    @settings(max_examples=300, deadline=None)
    @given(MIXED_TEXT)
    def test_auto_is_whitespace_without_unsegmented_script(self, text):
        text = "".join(ch for ch in text.casefold() if not unsegmented(ch))
        assert tokenize(text) == re.findall(r"[^\W_]+", text.casefold())

    @settings(max_examples=300, deadline=None)
    @given(MIXED_TEXT)
    def test_auto_is_unigram_when_every_alphanumeric_is_unsegmented(self, text):
        text = "".join(ch for ch in text.casefold() if unsegmented(ch) or not ch.isalnum())
        assert tokenize(text) == [ch for ch in text.casefold() if ch.isalnum()]

    @settings(max_examples=200, deadline=None)
    @given(MIXED_TEXT)
    def test_every_indexed_token_finds_its_document(self, text):
        tokens = tokenize(text)
        assume(tokens)
        index = build_index([Document("d", "", text), Document("other", "", "filler 填充")])
        for token in set(tokens):
            assert "d" in [docid for docid, _ in bm25_search(index, token, 10)], token

    @settings(max_examples=500, deadline=None)
    @given(SCRIPT_TEXT)
    def test_word_run_first_gives_the_unigram_first_tokens(self, text):
        assert tokenize(text) == re.findall(UNIGRAM_FIRST, text.casefold())

    def test_han_run_in_latin_passage_is_found(self):
        index = build_index([Document("d1", "Travel", "Flights to 北京 leave daily"), Document("d2", "", "other text")])
        assert [docid for docid, _ in bm25_search(index, "北京", 10)] == ["d1"]
