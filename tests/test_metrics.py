import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import full_list_ndcg, oracle_ndcg, oracle_recall, random_qrels, random_run
from rankpipe.corpus import JudgmentSet
from rankpipe.metrics import MetricReport, macro_average, ndcg_at_k, recall_at_k
from rankpipe.runs import Run


def binary_qrels(qid, relevant, irrelevant=()):
    qrels = JudgmentSet()
    for docid in relevant:
        qrels.add(qid, docid, 1)
    for docid in irrelevant:
        qrels.add(qid, docid, 0)
    return qrels


class TestNdcg:
    def test_ideal_ordering_scores_one(self):
        run = Run.from_scores({"q": {"r1": 3.0, "r2": 2.0, "x": 1.0}})
        qrels = binary_qrels("q", ["r1", "r2"], ["x"])
        assert ndcg_at_k(run, qrels, 10).per_query["q"] == pytest.approx(1.0)

    def test_no_relevant_in_top_k_scores_zero(self):
        run = Run.from_scores({"q": {f"x{i}": 20.0 - i for i in range(12)}})
        qrels = binary_qrels("q", ["r1"])
        assert ndcg_at_k(run, qrels, 10).per_query["q"] == 0.0

    def test_worked_example_ranks_1_3_12(self):
        # relevant docs land at ranks 1, 3, and 12 with k=10:
        # DCG = 1 + 1/log2(4) = 1.5, IDCG = 1 + 1/log2(3) + 1/log2(4)
        docs = {}
        relevant_ranks = {1: "r1", 3: "r2", 12: "r3"}
        for rank in range(1, 15):
            docs[relevant_ranks.get(rank, f"x{rank}")] = float(100 - rank)
        run = Run.from_scores({"q": docs})
        qrels = binary_qrels("q", ["r1", "r2", "r3"])
        expected = 1.5 / (1.0 + 1.0 / math.log2(3) + 1.0 / math.log2(4))
        got = ndcg_at_k(run, qrels, 10).per_query["q"]
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.7039, abs=1e-4)

    def test_query_without_positive_judgment_skipped(self):
        run = Run.from_scores({"q1": {"d": 1.0}, "q2": {"d": 1.0}})
        qrels = JudgmentSet({("q1", "d"): 1, ("q2", "d"): 0})
        report = ndcg_at_k(run, qrels, 10)
        assert set(report.per_query) == {"q1"}
        assert report.skipped_queries == 1

    def test_run_query_absent_from_qrels_skipped(self):
        run = Run.from_scores({"q1": {"d": 1.0}, "ghost": {"d": 1.0}})
        qrels = binary_qrels("q1", ["d"])
        report = ndcg_at_k(run, qrels, 10)
        assert report.evaluated_queries == 1
        assert report.skipped_queries == 1

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            ndcg_at_k(Run(), JudgmentSet(), 0)

    def test_graded_judgments_use_linear_gain(self):
        run = Run.from_scores({"q": {"a": 2.0, "b": 1.0}})
        qrels = JudgmentSet({("q", "a"): 1, ("q", "b"): 2})
        # DCG = 1 + 2/log2(3); IDCG = 2 + 1/log2(3)
        expected = (1 + 2 / math.log2(3)) / (2 + 1 / math.log2(3))
        assert ndcg_at_k(run, qrels, 10).per_query["q"] == pytest.approx(expected)


class TestRecall:
    def test_all_positives_in_top_k(self):
        run = Run.from_scores({"q": {"r1": 2.0, "r2": 1.5, "x": 1.0}})
        qrels = binary_qrels("q", ["r1", "r2"])
        assert recall_at_k(run, qrels, 3).per_query["q"] == 1.0

    def test_k_zero_gives_zero(self):
        run = Run.from_scores({"q": {"r1": 1.0}})
        qrels = binary_qrels("q", ["r1"])
        assert recall_at_k(run, qrels, 0).per_query["q"] == 0.0

    def test_unretrieved_positives_lower_recall(self):
        run = Run.from_scores({"q": {"r1": 1.0}})
        qrels = binary_qrels("q", ["r1", "missing"])
        assert recall_at_k(run, qrels, 10).per_query["q"] == 0.5

    def test_monotone_in_k(self):
        rng = np.random.default_rng(13)
        run = random_run(rng, n_queries=5, max_docs=15, universe_size=20)
        qrels = random_qrels(rng, run)
        values = [recall_at_k(run, qrels, k).mean for k in range(0, 16)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestRankOnlyDependence:
    def test_invariant_under_monotone_score_transform(self):
        rng = np.random.default_rng(17)
        run = random_run(rng, n_queries=5, max_docs=10)
        qrels = random_qrels(rng, run)
        squashed = Run(
            entries={
                qid: [(d, math.atan(s)) for d, s in ranked] for qid, ranked in run.entries.items()
            },
            tag=run.tag,
        )
        assert ndcg_at_k(run, qrels, 5).per_query == ndcg_at_k(squashed, qrels, 5).per_query
        assert recall_at_k(run, qrels, 5).per_query == recall_at_k(squashed, qrels, 5).per_query

    def test_swapping_relevant_doc_upward_never_hurts(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            docs = [f"d{i}" for i in range(8)]
            relevant = set(rng.choice(docs, size=3, replace=False).tolist())
            order = list(docs)
            rng.shuffle(order)
            run = Run.from_scores({"q": {d: float(len(order) - i) for i, d in enumerate(order)}})
            qrels = binary_qrels("q", sorted(relevant))
            base = ndcg_at_k(run, qrels, 8).per_query["q"]
            # swap one relevant doc with the doc directly above it
            positions = {d: i for i, d in enumerate(order)}
            candidates = [d for d in relevant if positions[d] > 0]
            if not candidates:
                continue
            target = candidates[0]
            i = positions[target]
            order[i - 1], order[i] = order[i], order[i - 1]
            moved = Run.from_scores({"q": {d: float(len(order) - i) for i, d in enumerate(order)}})
            assert ndcg_at_k(moved, qrels, 8).per_query["q"] >= base - 1e-12


class TestBoundsAndOracle:
    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            run = random_run(rng, n_queries=4, max_docs=10)
            qrels = random_qrels(rng, run)
            for report in (ndcg_at_k(run, qrels, 10), recall_at_k(run, qrels, 10)):
                for value in report.per_query.values():
                    assert 0.0 <= value <= 1.0

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            run = random_run(rng, n_queries=5, max_docs=10)
            qrels = random_qrels(rng, run)
            k = int(rng.integers(1, 12))
            assert ndcg_at_k(run, qrels, k).per_query == pytest.approx(oracle_ndcg(run, qrels, k))
            assert recall_at_k(run, qrels, k).per_query == pytest.approx(
                oracle_recall(run, qrels, k)
            )

    @given(st.data())
    def test_reading_the_top_k_equals_the_full_list(self, data):
        universe = [f"d{i}" for i in range(data.draw(st.integers(1, 40)))]
        entries: dict[str, list[tuple[str, float]]] = {}
        judgments: dict[tuple[str, str], int] = {}
        for qid in ("q0", "q1", "q2")[: data.draw(st.integers(1, 3))]:
            ranked = data.draw(st.lists(st.sampled_from(universe), unique=True))
            entries[qid] = [(docid, float(len(ranked) - i)) for i, docid in enumerate(ranked)]
            grades = data.draw(st.dictionaries(st.sampled_from(universe), st.integers(0, 3)))
            judgments.update({(qid, docid): grade for docid, grade in grades.items()})
        run, qrels, k = Run(entries=entries), JudgmentSet(judgments), data.draw(st.integers(1, 45))
        per_query = ndcg_at_k(run, qrels, k).per_query
        expected = full_list_ndcg(run, qrels, k)
        assert {q: repr(v) for q, v in per_query.items()} == {q: repr(v) for q, v in expected.items()}

    def test_best_permutation_is_the_grade_sort(self):
        # exhaustive check: no ordering of <= 6 candidates beats sorting by grade
        import itertools

        rng = np.random.default_rng(37)
        docs = [f"d{i}" for i in range(6)]
        qrels = JudgmentSet({("q", d): int(rng.integers(0, 2)) for d in docs})
        if not qrels.positives("q"):
            qrels = JudgmentSet({("q", "d0"): 1})
        best = 0.0
        for perm in itertools.permutations(docs):
            run = Run.from_scores({"q": {d: float(len(perm) - i) for i, d in enumerate(perm)}})
            best = max(best, ndcg_at_k(run, qrels, 6).per_query["q"])
        grades = qrels.judged_docids("q")
        ideal_order = sorted(docs, key=lambda d: -grades.get(d, 0))
        ideal_run = Run.from_scores(
            {"q": {d: float(len(ideal_order) - i) for i, d in enumerate(ideal_order)}}
        )
        assert ideal_run and ndcg_at_k(ideal_run, qrels, 6).per_query["q"] == pytest.approx(best)
        assert best == pytest.approx(1.0)


class TestMacroAverage:
    def test_two_languages(self):
        reports = [
            MetricReport(metric="ndcg", k=10, per_query={"a": 0.8}),
            MetricReport(metric="ndcg", k=10, per_query={"b": 0.6}),
        ]
        assert macro_average(reports) == pytest.approx(0.7)

    def test_single_language_is_identity(self):
        report = MetricReport(metric="ndcg", k=10, per_query={"a": 0.25, "b": 0.75})
        assert macro_average([report]) == pytest.approx(report.mean)

    def test_sixteen_synthetic_means(self):
        rng = np.random.default_rng(41)
        means = rng.uniform(0, 1, size=16)
        reports = [MetricReport(metric="ndcg", k=10, per_query={"q": float(m)}) for m in means]
        assert macro_average(reports) == pytest.approx(float(np.mean(means)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            macro_average([])
