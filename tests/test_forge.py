import logging
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import oracle_draw, oracle_q2q2d
from rankpipe.dense import EmbeddingStore
from rankpipe.errors import DataError, FormatError
from rankpipe.forge import (
    AugmentationParams,
    TrainingPair,
    draw,
    pseudo_label,
    q2q2d_augment,
    read_pairs,
    sample_negatives,
    sample_negatives_corpus,
    write_pairs,
)
from rankpipe.fusion import cut_pool
from rankpipe.runs import Run


def make_pool(qid="q1", n=200):
    run = Run.from_scores({qid: {f"d{i:03d}": float(n - i) for i in range(n)}}, tag="hybrid")
    return cut_pool(run, n)


class TestTrainingPair:
    def test_negative_must_be_zero(self):
        with pytest.raises(ValueError):
            TrainingPair("q", "t", "d", 0.5, "negative")

    def test_annotation_must_be_binary(self):
        with pytest.raises(ValueError):
            TrainingPair("q", "t", "d", 0.3, "annotation")

    @pytest.mark.parametrize("label", [-0.1, 1.1])
    def test_label_bounds(self, label):
        with pytest.raises(ValueError):
            TrainingPair("q", "t", "d", label, "pseudo")

    def test_unknown_source(self):
        with pytest.raises(ValueError):
            TrainingPair("q", "t", "d", 0.0, "mystery")


class TestDraw:
    @given(st.integers(0, 300), st.integers(0, 320), st.integers(-(2**40), 2**40), st.text(max_size=8))
    def test_prefix_of_a_permutation_matching_the_spec(self, m, count, seed, qid):
        drawn = draw(m, count, seed, "negatives", qid)
        assert len(drawn) == min(count, m)
        assert len(set(drawn)) == len(drawn)
        assert all(0 <= i < m for i in drawn)
        assert drawn == oracle_draw(m, count, seed, "negatives", qid)

    @given(st.integers(1, 200), st.integers(0, 200), st.integers(0, 200), st.integers(0, 2**31))
    def test_fewer_draws_are_a_prefix_of_more(self, m, a, b, seed):
        small, large = sorted((a, b))
        assert draw(m, large, seed, "pseudo")[:small] == draw(m, small, seed, "pseudo")

    def test_pinned_negatives_stream(self):
        # a change to this list changes every negatives.pairs.tsv: make it on purpose
        pool = make_pool(n=200)
        qrels = {"q1": {"d000": 1, "d050": 1}}
        assert [p.docid for p in sample_negatives(pool, qrels, 12, seed=7)] == [
            "d031", "d126", "d043", "d161", "d105", "d005", "d070", "d129", "d191", "d131", "d085", "d063",
        ]


class TestSampleNegatives:
    def test_excludes_positives_exhaustively(self):
        pool = make_pool(n=200)
        qrels = {"q1": {"d000": 1, "d050": 1, "d100": 1}}
        pairs = sample_negatives(pool, qrels, 100, seed=7)
        assert len(pairs) == 100
        emitted = {p.docid for p in pairs}
        assert emitted.isdisjoint({"d000", "d050", "d100"})
        assert len(emitted) == 100
        for pair in pairs:
            assert pair.label == 0.0 and pair.source == "negative"

    def test_judged_zero_docs_are_eligible(self):
        pool = make_pool(n=5)
        qrels = {"q1": {"d000": 1, "d001": 0}}
        pairs = sample_negatives(pool, qrels, 5, seed=1)
        assert {p.docid for p in pairs} == {"d001", "d002", "d003", "d004"}

    def test_n_zero_empty(self):
        pool = make_pool(n=10)
        qrels = {"q1": {"d000": 1}}
        assert sample_negatives(pool, qrels, 0, seed=1) == []

    def test_exhaustion_caps_at_available(self):
        pool = make_pool(n=10)
        qrels = {"q1": {f"d{i:03d}": 1 for i in range(4)}}
        pairs = sample_negatives(pool, qrels, 100, seed=3)
        assert len(pairs) == 6

    def test_same_seed_identical(self):
        pool = make_pool(n=50)
        qrels = {"q1": {"d000": 1}}
        a = sample_negatives(pool, qrels, 10, seed=99)
        b = sample_negatives(pool, qrels, 10, seed=99)
        assert a == b

    def test_different_seeds_differ(self):
        pool = make_pool(n=100)
        qrels = {"q1": {"d000": 1}}
        a = [p.docid for p in sample_negatives(pool, qrels, 20, seed=1)]
        b = [p.docid for p in sample_negatives(pool, qrels, 20, seed=2)]
        assert a != b

    def test_growing_n_extends_a_fixed_prefix(self):
        pool = make_pool(n=120)
        qrels = {"q1": {"d003": 1}}
        small = [p.docid for p in sample_negatives(pool, qrels, 5, seed=11)]
        large = [p.docid for p in sample_negatives(pool, qrels, 50, seed=11)]
        assert large[:5] == small

    def test_queries_without_judgments_skipped_with_warning(self, caplog):
        run = Run.from_scores(
            {"q1": {"d1": 2.0, "d2": 1.0}, "orphan": {"d1": 1.0}}, tag="hybrid"
        )
        pool = cut_pool(run, 10)
        qrels = {"q1": {"d1": 1}}
        with caplog.at_level(logging.WARNING, logger="rankpipe.forge"):
            pairs = sample_negatives(pool, qrels, 5, seed=0)
        assert {p.qid for p in pairs} == {"q1"}
        assert "skipped 1" in caplog.text

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            sample_negatives(make_pool(), {}, -1, seed=0)

    def test_query_text_lookup_fills_text(self):
        pool = make_pool(n=3)
        qrels = {"q1": {"d000": 1}}
        pairs = sample_negatives(pool, qrels, 2, seed=0, query_texts={"q1": "hello"})
        assert all(p.query_text == "hello" for p in pairs)

    def test_order_of_pool_queries_does_not_matter(self):
        entries_a = {"qa": [("d1", 2.0), ("d2", 1.0)], "qb": [("d3", 2.0), ("d4", 1.0)]}
        entries_b = {"qb": entries_a["qb"], "qa": entries_a["qa"]}
        qrels = {"qa": {"d1": 1}, "qb": {"d3": 0}}
        pool_a = Run(entries=entries_a, tag="hybrid")
        pool_b = Run(entries=entries_b, tag="hybrid")
        assert sample_negatives(pool_a, qrels, 2, seed=5) == sample_negatives(pool_b, qrels, 2, seed=5)


class TestSampleNegativesCorpus:
    def test_draws_from_non_positive_ids(self):
        ids = [f"c{i}" for i in range(10)]
        qrels = {"q1": {"c0": 1}}
        pairs = sample_negatives_corpus(ids, qrels, 3, seed=2)
        assert len(pairs) == 3
        assert "c0" not in {p.docid for p in pairs}

    def test_n_equal_to_corpus_size_emits_every_non_positive_once(self):
        ids = [f"c{i}" for i in range(10)]
        qrels = {"q1": {"c0": 1}}
        pairs = sample_negatives_corpus(ids, qrels, 10, seed=2)
        assert sorted(p.docid for p in pairs) == sorted(set(ids) - {"c0"})

    def test_same_seed_identical(self):
        ids = [f"c{i}" for i in range(30)]
        qrels = {"q1": {"c0": 1}, "q2": {"c1": 1}}
        assert sample_negatives_corpus(ids, qrels, 5, seed=4) == sample_negatives_corpus(
            ids, qrels, 5, seed=4
        )


def query_store(vectors):
    return EmbeddingStore(list(vectors), np.array(list(vectors.values()), dtype=float))


class TestQ2q2d:
    def setup_method(self):
        self.params = AugmentationParams(alpha=0.9, top_m=1, tau=0.8, seed=0)

    def test_perfect_match_label(self):
        vectors = query_store({"t1": [1, 0], "s1": [1, 0]})
        qrels = {"s1": {"d1": 1}}
        pairs = q2q2d_augment({"t1": "target text"}, {"s1": "src"}, qrels, vectors, self.params)
        assert len(pairs) == 1
        assert pairs[0].label == pytest.approx(0.9)
        assert pairs[0].qid == "t1"
        assert pairs[0].query_text == "target text"
        assert pairs[0].docid == "d1"
        assert pairs[0].source == "q2q2d"

    def test_similarity_product_rule(self):
        # cos((1,0),(0.8,0.6)) = 0.8 exactly
        vectors = query_store({"t1": [1, 0], "s1": [0.8, 0.6]})
        qrels = {"s1": {"d1": 1}}
        pairs = q2q2d_augment({"t1": "t"}, {"s1": "s"}, qrels, vectors, self.params)
        assert pairs[0].label == pytest.approx(0.8 * 1 * 0.9, abs=1e-12)

    def test_below_tau_emits_nothing(self):
        vectors = query_store({"t1": [1, 0], "s1": [0, 1]})
        qrels = {"s1": {"d1": 1}}
        assert q2q2d_augment({"t1": "t"}, {"s1": "s"}, qrels, vectors, self.params) == []

    def test_zero_grade_judgments_emitted_with_zero_label(self):
        vectors = query_store({"t1": [1, 0], "s1": [1, 0]})
        qrels = {"s1": {"d1": 1, "d2": 0}}
        pairs = q2q2d_augment({"t1": "t"}, {"s1": "s"}, qrels, vectors, self.params)
        labels = {p.docid: p.label for p in pairs}
        assert labels["d2"] == 0.0

    def test_missing_vector_names_query(self):
        vectors = query_store({"t1": [1, 0]})
        with pytest.raises(DataError, match="s1"):
            q2q2d_augment({"t1": "t"}, {"s1": "s"}, {}, vectors, self.params)

    def test_top_m_limits_matches(self):
        vectors = query_store({"t1": [1, 0], "s1": [1, 0], "s2": [0.9, np.sqrt(1 - 0.81)]})
        qrels = {"s1": {"d1": 1}, "s2": {"d2": 1}}
        sources = {"s1": "a", "s2": "b"}
        one = q2q2d_augment({"t1": "t"}, sources, qrels, vectors, self.params)
        assert {p.docid for p in one} == {"d1"}
        both = q2q2d_augment(
            {"t1": "t"},
            sources,
            qrels,
            vectors,
            AugmentationParams(alpha=0.9, top_m=2, tau=0.8, seed=0),
        )
        assert {p.docid for p in both} == {"d1", "d2"}

    def test_labels_bounded_by_alpha(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n_train = int(rng.integers(1, 6))
            vectors = {"t1": rng.normal(size=4)}
            sources = {}
            qrels = {}
            for i in range(n_train):
                vectors[f"s{i}"] = rng.normal(size=4)
                sources[f"s{i}"] = f"text {i}"
                qrels[f"s{i}"] = {f"d{i}": int(rng.integers(0, 2))}
            params = AugmentationParams(alpha=0.9, top_m=3, tau=-1.0, seed=0)
            pairs = q2q2d_augment({"t1": "t"}, sources, qrels, query_store(vectors), params)
            for pair in pairs:
                assert 0.0 <= pair.label <= params.alpha + 1e-12

    @pytest.mark.parametrize("zero", ["t1", "s1"])
    def test_zero_vector_is_named_as_dense_search_names_it(self, zero):
        vectors = query_store({"t1": [1, 0], "s1": [1, 0], zero: [0, 0]})
        qrels = {"s1": {"d1": 1}}
        with pytest.raises(DataError, match=f"zero vector '{zero}' not allowed under cosine"):
            q2q2d_augment({"t1": "t"}, {"s1": "s"}, qrels, vectors, self.params)

    def test_overflowing_similarity_names_the_query(self):
        # every component is finite, but the dot product and the norms are not
        vectors = query_store({"t1": [1e200, 1e200], "s1": [1e200, 1e200]})
        qrels = {"s1": {"d1": 1}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="similarity overflow for query 't1'"):
                q2q2d_augment({"t1": "t"}, {"s1": "s"}, qrels, vectors, self.params)



_COMPONENT = st.floats(-100, 100).filter(lambda x: x == 0.0 or abs(x) > 1e-6)


@st.composite
def _q2q2d_cases(pick):
    """Targets and sources in a few dimensions. Sources are scaled or negated
    copies of the first target (their cosine rounds to 1 or -1, sometimes
    past it), copies of an earlier source (ties) or other vectors."""
    dim = pick(st.integers(2, 4))
    vector = st.lists(_COMPONENT, min_size=dim, max_size=dim).filter(any)
    targets = pick(st.lists(vector, min_size=1, max_size=3))
    sources: list[list[float]] = []
    for _ in range(pick(st.integers(1, 6))):
        kind = pick(st.sampled_from(["scaled", "other", "tie"] if sources else ["scaled", "other"]))
        if kind == "scaled":
            scale = pick(st.sampled_from([3.0, 7.0, 1000.0, -2.5]) | st.floats(1e-3, 1e3))
            sources.append([scale * x for x in targets[0]])
        elif kind == "tie":
            sources.append(list(pick(st.sampled_from(sources))))
        else:
            sources.append(pick(vector))
    vectors = {f"t{i}": v for i, v in enumerate(targets)} | {f"s{i}": v for i, v in enumerate(sources)}
    qrels = {}
    for i in range(len(sources)):
        docids = pick(st.lists(st.sampled_from(["d0", "d1", "d2", "d3"]), max_size=3, unique=True))
        qrels[f"s{i}"] = {docid: pick(st.integers(0, 2)) for docid in docids}
    params = AugmentationParams(
        alpha=pick(st.just(1.0) | st.floats(0.01, 1.0)),
        top_m=pick(st.integers(1, 4)),
        tau=pick(st.sampled_from([-1.0, 0.8, 1.0]) | st.floats(-1.0, 1.0)),
    )
    return len(targets), len(sources), qrels, vectors, params


@settings(max_examples=200, deadline=None)
@given(_q2q2d_cases())
# [0.3, 0.7] and 7 times it have a computed cosine of 1.0000000000000002
@example((1, 2, {"s0": {"d0": 1}, "s1": {"d1": 1}},
          {"t0": [0.3, 0.7], "s0": [7 * 0.3, 7 * 0.7], "s1": [1.0, 0.0]},
          AugmentationParams(alpha=1.0, top_m=2, tau=1.0)))
def test_q2q2d_pairs_match_its_own_cosine_ranking(case):
    n_targets, n_sources, qrels, vectors, params = case
    targets = {f"t{i}": f"target {i}" for i in range(n_targets)}
    sources = {f"s{i}": f"source {i}" for i in range(n_sources)}
    store = query_store(vectors)
    pairs = q2q2d_augment(targets, sources, qrels, store, params)
    assert repr(pairs) == repr(oracle_q2q2d(targets, sources, qrels, store, params))


class TestPseudoLabel:
    def test_scale_applied(self):
        run = Run.from_scores({"q1": {"d1": 1.0}})
        params = AugmentationParams(pseudo_fraction=1.0, seed=0)
        pairs = pseudo_label(run, {"q1": "text"}, params)
        assert pairs == [TrainingPair("q1", "text", "d1", 0.9, "pseudo")]

    def test_fraction_one_keeps_every_triple_once(self):
        run = Run.from_scores({"q1": {f"d{i}": i / 10 for i in range(10)}})
        pairs = pseudo_label(run, None, AugmentationParams(pseudo_fraction=1.0, seed=0))
        assert sorted(p.docid for p in pairs) == sorted(f"d{i}" for i in range(10))

    def test_floor_rule_and_determinism(self):
        run = Run.from_scores({"q1": {f"d{i}": 0.5 for i in range(10)}})
        params = AugmentationParams(pseudo_fraction=0.5, seed=123)
        first = pseudo_label(run, None, params)
        second = pseudo_label(run, None, params)
        assert len(first) == 5
        assert first == second

    def test_every_label_is_scale_times_score(self):
        rng = np.random.default_rng(8)
        scores = {f"d{i}": float(rng.uniform(0, 1)) for i in range(20)}
        run = Run.from_scores({"q1": scores})
        pairs = pseudo_label(run, None, AugmentationParams(pseudo_fraction=1.0, seed=0))
        for pair in pairs:
            assert pair.label == pytest.approx(0.9 * scores[pair.docid], abs=1e-15)
            assert 0.0 <= pair.label <= 0.9

    def test_score_out_of_range_rejected(self):
        run = Run.from_scores({"q1": {"d1": 1.5}})
        with pytest.raises(DataError):
            pseudo_label(run, None, AugmentationParams(seed=0))

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            AugmentationParams(pseudo_fraction=0.0)


class TestPairsIO:
    def test_round_trip_byte_identical(self, tmp_path):
        pairs = [
            TrainingPair("q1", "what is bm25", "d1", 0.0, "negative"),
            TrainingPair("q1", "what is bm25", "d2", 0.7200000000000001, "q2q2d"),
            TrainingPair("q2", "tab\there", "d3", 0.45, "pseudo"),
            TrainingPair("q3", "", "d4", 1.0, "annotation"),
        ]
        first = tmp_path / "a.pairs.tsv"
        second = tmp_path / "b.pairs.tsv"
        write_pairs(pairs, str(first))
        reloaded = read_pairs(str(first))
        assert reloaded == pairs
        write_pairs(reloaded, str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_invalid_source_rejected_on_read(self, tmp_path):
        path = tmp_path / "bad.pairs.tsv"
        path.write_text("q1\td1\t0.5\tbogus\ttext\n")
        with pytest.raises(FormatError, match="bogus"):
            read_pairs(str(path))

    def test_nonzero_negative_rejected_on_read(self, tmp_path):
        path = tmp_path / "bad.pairs.tsv"
        path.write_text("q1\td1\t0.5\tnegative\ttext\n")
        with pytest.raises(FormatError):
            read_pairs(str(path))

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.pairs.tsv"
        path.write_text("q1\td1\t0.5\n")
        with pytest.raises(FormatError, match="5 columns"):
            read_pairs(str(path))
