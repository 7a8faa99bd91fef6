"""Run writing, ranking, fusion and dense top-k against transcriptions of
their per-entry forms: every byte written and every value returned is the
same, whether the entries arrive in canonical order or not."""
from __future__ import annotations

import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import NUL_SIBLINGS, oracle_dense_search, oracle_fuse, oracle_write_run
from rankpipe.dense import EmbeddingStore, dense_search
from rankpipe.errors import DataError
from rankpipe.fusion import check_weights, fuse
from rankpipe.runs import Run, rank_sorted, sort_ranked, write_run
from rankpipe.validate import METRICS

# ids with characters that mean something to %-formatting and str.format
_ID = st.text(st.sampled_from("ab9Z%{}é_"), min_size=1, max_size=4)
_FLOAT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    # ties, signed zeros, subnormals and the ends of the float range
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 5e-324, -5e-324, 1e-310, 1.7976931348623157e308, -1.7976931348623157e308]),
)
_SCORE = st.one_of(_FLOAT, _FLOAT.map(np.float64), st.integers(-3, 3), st.booleans())


def _key(pair):
    return -float(pair[1]), pair[0]


@st.composite
def _runs(draw):
    """A run whose queries list their entries as drawn, in canonical order or
    reversed, as tuples or as lists; now and then with a docid listed twice."""
    entries = {}
    for qid, docs in draw(st.dictionaries(_ID, st.dictionaries(_ID, _SCORE, max_size=6), max_size=4)).items():
        pairs = list(docs.items())
        order = draw(st.sampled_from(["drawn", "canonical", "reversed"]))
        if order != "drawn":
            pairs.sort(key=_key, reverse=order == "reversed")
        if pairs and draw(st.integers(0, 9)) == 0:
            pairs.append(pairs[0])
        if draw(st.integers(0, 4)) == 0:
            pairs = [list(pair) for pair in pairs]
        entries[qid] = pairs
    return Run(entries=entries, tag=draw(_ID))


def _outcome(write, run: Run, path: Path):
    try:
        result = write(run, str(path), header="h")
    except DataError as exc:  # it names the file
        result = str(exc).replace(str(path), "<path>")
    else:
        result = (repr(result.entries), result.tag)
    return result, path.read_bytes()


@settings(max_examples=400, deadline=None)
@given(run=_runs())
def test_write_run_writes_and_returns_what_the_per_line_writer_does(run):
    with tempfile.TemporaryDirectory() as tmp:
        # repr tells -0.0 from 0.0, a numpy scalar from a float and a list from a tuple
        assert _outcome(write_run, run, Path(tmp) / "a.trec") == _outcome(oracle_write_run, run, Path(tmp) / "b.trec")


def test_written_run_does_not_share_the_callers_lists(tmp_path):
    ranked = [("d1", 2.0), ("d2", 1.0)]
    written = write_run(Run(entries={"q": ranked}), str(tmp_path / "r.trec"))
    assert written.entries["q"] == ranked and written.entries["q"] is not ranked


@pytest.mark.parametrize("tag", ["my run", "", "a\tb", "a b", "a\nb"])
def test_a_tag_that_is_not_one_token_is_refused_before_the_file_is_opened(tmp_path, tag):
    # such a tag would write lines of other than six columns, which read_run rejects
    path = tmp_path / "r.trec"
    with pytest.raises(DataError, match=re.escape(f"{path}: run tag {tag!r} is empty or contains whitespace")):
        write_run(Run({"q1": [("d1", 1.0)]}, tag=tag), str(path))
    assert not path.exists()


@settings(max_examples=400, deadline=None)
@given(docs=st.dictionaries(_ID, _FLOAT, max_size=8), order=st.sampled_from(["drawn", "canonical", "reversed"]))
def test_rank_sorted_is_the_sort_by_score_then_docid(docs, order):
    pairs = list(docs.items())
    if order != "drawn":
        pairs.sort(key=_key, reverse=order == "reversed")
    ranked = rank_sorted(pairs)
    assert repr(ranked) == repr(sorted(pairs, key=lambda p: (-p[1], p[0])))
    assert ranked is not pairs


# parts whose sums overflow, or come near it
_PART = st.one_of(_FLOAT, st.sampled_from([8.98846567431158e307, -8.98846567431158e307, 1e308, -1e308]))
_WEIGHT = st.one_of(st.floats(0.0, 1e300), st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 1e308]))


def _follows_the_weight_rule(weights: list[float]) -> bool:
    try:
        check_weights(weights)
    except ValueError:
        return False
    return True


@settings(max_examples=400, deadline=None)
@given(
    runs=st.lists(
        st.dictionaries(st.sampled_from(["q1", "q2", "q3"]), st.dictionaries(st.sampled_from("abcdef"), _PART)),
        min_size=1, max_size=4,
    ),
    data=st.data(),
)
def test_fuse_sums_each_candidate_as_fsum_does(runs, data):
    runs = [Run(entries={q: list(docs.items()) for q, docs in run.items()}) for run in runs]
    weights = data.draw(st.lists(_WEIGHT, min_size=len(runs), max_size=len(runs)).filter(_follows_the_weight_rule))
    outcomes = []
    for combine in (fuse, oracle_fuse):
        try:
            outcomes.append(repr(combine(runs, weights).entries))
        except DataError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


# fsum's zero is +0.0 whatever the signs of the parts; past two parts, a
# running sum rounds more than once
@pytest.mark.parametrize(
    "parts", [[-0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0], [1.0, -1.0], [-0.0, -0.0, -0.0], [1.0, 1e-16, 1e-16]]
)
def test_a_candidates_sum_is_fsum_bit_for_bit(parts):
    runs = [Run(entries={"q": [("d", part)]}) for part in parts]
    fused = fuse(runs, [1.0] * len(parts)).entries["q"]
    assert repr(fused) == repr([("d", math.fsum(parts))])


_COMPONENT = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0])
# ids with up to two trailing NULs, so that siblings such as "a" and "a\x00"
# tie where a numpy string array, which drops trailing NULs, compares them
_SIBLING_ID = st.tuples(st.text(st.sampled_from("ab9Z%{}é_"), min_size=1, max_size=2), st.integers(0, 2)).map(
    lambda t: t[0] + "\x00" * t[1])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), metric=st.sampled_from(METRICS))
def test_dense_search_is_the_full_python_sort(data, metric):
    dim = data.draw(st.integers(1, 3))
    rows = data.draw(st.lists(st.lists(_COMPONENT, min_size=dim, max_size=dim), min_size=1, max_size=4))
    # doc vectors repeat rows, so scores tie and the docid decides
    picks = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=9))
    ids = data.draw(st.lists(_SIBLING_ID, min_size=len(picks), max_size=len(picks), unique=True))
    docs = EmbeddingStore(ids, np.array([rows[i] for i in picks]))
    queries = EmbeddingStore(["q"], np.array([data.draw(st.lists(_COMPONENT, min_size=dim, max_size=dim))]))
    for k in (1, len(docs), len(docs) + 3, data.draw(st.integers(1, 12))):
        outcomes = []
        for search in (dense_search, oracle_dense_search):
            try:
                outcomes.append(repr(search(queries, docs, "q", k, metric)))
            except DataError as exc:  # a zero vector under cosine
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], k


def test_dense_search_ranks_nul_siblings_as_sort_ranked_does():
    docs = EmbeddingStore([docid for docid, _ in NUL_SIBLINGS], np.array([[value] for _, value in NUL_SIBLINGS]))
    queries = EmbeddingStore(["q"], np.array([[1.0]]))
    ranked = sort_ranked(list(NUL_SIBLINGS))
    for k in range(1, len(docs) + 2):
        assert dense_search(queries, docs, "q", k) == ranked[:k], k
