import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import oracle_ranks, oracle_spearman, random_run
from rankpipe.ensemble import (
    EnsembleConfig,
    _average_ranks,
    adjust_weights,
    correlation_matrix,
    ensemble_runs,
)
from rankpipe.errors import DataError
from rankpipe.runs import Run


def run_from_ranking(qid_docs, tag="r"):
    entries = {}
    for qid, docs in qid_docs.items():
        entries[qid] = {d: float(len(docs) - i) for i, d in enumerate(docs)}
    return Run.from_scores(entries, tag=tag)


class TestAverageRanks:
    # small integers force ties; floats cover the untied case
    @given(st.lists(st.integers(-3, 3) | st.floats(allow_nan=False), max_size=40))
    def test_matches_oracle_ranks_with_ties(self, values):
        ranks = _average_ranks(np.array(values, dtype=np.float64))
        assert ranks.tolist() == oracle_ranks([float(v) for v in values])


class TestCorrelationMatrix:
    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(0)
        run = random_run(rng, n_queries=4, max_docs=8)
        corr = correlation_matrix([run, run])
        assert corr == pytest.approx(np.ones((2, 2)))

    def test_reversed_rankings_give_minus_one(self):
        docs = [f"d{i}" for i in range(6)]
        a = run_from_ranking({"q1": docs, "q2": docs})
        b = run_from_ranking({"q1": docs[::-1], "q2": docs[::-1]})
        corr = correlation_matrix([a, b])
        assert corr[0, 1] == pytest.approx(-1.0)

    def test_matches_textbook_oracle(self):
        rng = np.random.default_rng(42)
        runs = []
        docs = [f"d{i}" for i in range(5)]
        for _ in range(3):
            entries = {
                f"q{qi}": {d: float(rng.uniform(0, 1)) for d in docs} for qi in range(4)
            }
            runs.append(Run.from_scores(entries))
        corr = correlation_matrix(runs)
        for i in range(3):
            for j in range(i + 1, 3):
                rhos = []
                for qi in range(4):
                    x = [runs[i].scores(f"q{qi}")[d] for d in sorted(docs)]
                    y = [runs[j].scores(f"q{qi}")[d] for d in sorted(docs)]
                    rhos.append(oracle_spearman(x, y))
                assert corr[i, j] == pytest.approx(np.mean(rhos), abs=1e-12)

    def test_no_shared_queries_is_an_error(self):
        a = Run.from_scores({"q1": {"d1": 1.0, "d2": 0.5}})
        b = Run.from_scores({"q2": {"d1": 1.0, "d2": 0.5}})
        with pytest.raises(DataError, match="share"):
            correlation_matrix([a, b])

    def test_disjoint_candidates_is_an_error(self):
        a = Run.from_scores({"q1": {"d1": 1.0, "d2": 0.5}})
        b = Run.from_scores({"q1": {"d3": 1.0, "d4": 0.5}})
        with pytest.raises(DataError):
            correlation_matrix([a, b])

    def test_single_run_rejected(self):
        with pytest.raises(ValueError):
            correlation_matrix([Run.from_scores({"q": {"d": 1.0}})])

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(3)
        universe = 10
        runs = [
            random_run(rng, n_queries=3, max_docs=universe, universe_size=universe, tag=f"r{i}")
            for i in range(4)
        ]
        corr = correlation_matrix(runs)
        assert np.allclose(corr, corr.T)
        assert np.all(corr >= -1.0) and np.all(corr <= 1.0)
        assert np.allclose(np.diag(corr), 1.0)


class TestAdjustWeights:
    def test_lambda_zero_returns_normalized_bases(self):
        config = EnsembleConfig(base_weights=[2.0, 1.0, 1.0], lam=0.0)
        corr = np.eye(3)
        corr[0, 1] = corr[1, 0] = 0.9
        weights = adjust_weights(config, corr)
        assert weights == pytest.approx([0.5, 0.25, 0.25])

    def test_identical_runs_fall_back_to_even_split(self):
        config = EnsembleConfig(base_weights=[1.0, 1.0], lam=1.0)
        corr = np.ones((2, 2))
        assert adjust_weights(config, corr) == pytest.approx([0.5, 0.5])

    def test_hand_computed_example(self):
        # leaderboard-style bases with a made-up correlation structure
        base = [0.802, 0.792, 0.730]
        corr = np.array([[1.0, 0.9, 0.4], [0.9, 1.0, 0.5], [0.4, 0.5, 1.0]])
        lam = 0.5
        rho = [(0.9 + 0.4) / 2, (0.9 + 0.5) / 2, (0.4 + 0.5) / 2]
        raw = [b * (1 - lam * r) for b, r in zip(base, rho)]
        expected = [w / sum(raw) for w in raw]
        got = adjust_weights(EnsembleConfig(base_weights=base, lam=lam), corr)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_negative_mean_correlation_clamped(self):
        config = EnsembleConfig(base_weights=[1.0, 1.0], lam=1.0)
        corr = np.array([[1.0, -0.8], [-0.8, 1.0]])
        # clamping means anti-correlated systems are not boosted
        assert adjust_weights(config, corr) == pytest.approx([0.5, 0.5])

    def test_output_simplex(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            base = rng.uniform(0.1, 1.0, size=n).tolist()
            m = rng.uniform(-1, 1, size=(n, n))
            corr = np.clip((m + m.T) / 2, -1, 1)
            np.fill_diagonal(corr, 1.0)
            weights = adjust_weights(
                EnsembleConfig(base_weights=base, lam=float(rng.uniform(0, 1))), corr
            )
            assert all(w >= 0 for w in weights)
            assert sum(weights) == pytest.approx(1.0)

    def test_penalty_monotone_in_lambda(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            base = rng.uniform(0.2, 1.0, size=n).tolist()
            m = rng.uniform(0, 1, size=(n, n))
            corr = (m + m.T) / 2
            np.fill_diagonal(corr, 1.0)
            rho = np.clip((corr.sum(axis=1) - 1.0) / (n - 1), 0, 1)
            hi, lo = int(np.argmax(rho)), int(np.argmin(rho))
            previous = None
            for lam in np.linspace(0, 1, 6):
                weights = adjust_weights(EnsembleConfig(base_weights=base, lam=float(lam)), corr)
                share = weights[hi] / (weights[hi] + weights[lo]) if weights[hi] + weights[lo] else 0.0
                if previous is not None:
                    assert share <= previous + 1e-12
                previous = share

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            adjust_weights(EnsembleConfig(base_weights=[1.0]), np.eye(2))


class TestEnsembleRuns:
    def test_single_run_identity_ranking(self):
        rng = np.random.default_rng(1)
        run = random_run(rng)
        combined = ensemble_runs([run], [1.0])
        for qid in run.entries:
            assert combined.docids(qid) == run.docids(qid)

    def test_idempotent_over_copies(self):
        rng = np.random.default_rng(2)
        run = random_run(rng, n_queries=5, max_docs=10)
        combined = ensemble_runs([run, run, run], [0.3, 0.5, 0.2])
        for qid in run.entries:
            assert combined.docids(qid) == run.docids(qid)

    def test_disjoint_runs_weight_zero_side_sinks(self):
        a = run_from_ranking({"q1": ["d1", "d2"]}, tag="a")
        b = run_from_ranking({"q1": ["d8", "d9"]}, tag="b")
        combined = ensemble_runs([a, b], [1.0, 0.0])
        assert combined.docids("q1")[:2] == ["d1", "d2"]
        assert combined.scores("q1")["d8"] == 0.0

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(4)
        runs = [random_run(rng, tag=f"r{i}") for i in range(3)]
        weights = [0.6, 0.3, 0.1]
        assert ensemble_runs(runs, weights).entries == ensemble_runs(runs[::-1], weights[::-1]).entries

    def test_all_zero_weights_error(self):
        run = Run.from_scores({"q": {"d": 1.0}})
        with pytest.raises(DataError):
            ensemble_runs([run, run], [0.0, 0.0])

    def test_tag(self):
        run = Run.from_scores({"q": {"d": 1.0}})
        assert ensemble_runs([run], [1.0]).tag == "ensemble"


class TestEnsembleConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleConfig(base_weights=[-1.0, 2.0])
        with pytest.raises(ValueError):
            EnsembleConfig(base_weights=[1.0], lam=1.5)
        with pytest.raises(ValueError):
            EnsembleConfig(base_weights=[0.0, 0.0])
