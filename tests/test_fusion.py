import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_qrels, random_run
from rankpipe.cli import main
from rankpipe.ensemble import EnsembleConfig
from rankpipe.errors import DataError, FormatError
from rankpipe.fusion import cut_pool, fuse, normalize_run, parse_weights
from rankpipe.metrics import recall_at_k
from rankpipe.pipeline import FUSE_LEGS, SCHEMA, STAGE_TABLE, ExperimentConfig, run_pipeline
from rankpipe.runs import Run, read_run, write_run
from rankpipe.validate import validate_artifacts


# ids a run line can carry: one token, no whitespace; a qid is the first
# column, so it cannot start a comment either
_ID = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")), min_size=1, max_size=6).filter(
    lambda s: s.split() == [s]
)
_QID = _ID.filter(lambda s: not s.startswith("#"))
_SCORE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, -1.7976931348623157e308]),
)
# hypothesis draws dict keys in no particular order, so qids and docids come unsorted
_RUNS = st.builds(
    lambda entries, tag: Run(entries={q: list(docs.items()) for q, docs in entries.items()}, tag=tag),
    st.dictionaries(_QID, st.dictionaries(_ID, _SCORE, max_size=6), max_size=5),
    _ID,
)


@settings(max_examples=300, deadline=None)
@given(run=_RUNS)
def test_write_run_returns_what_read_run_reads_back(run):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "r.trec")
        written = write_run(run, path, header="h")
        back = read_run(path)
        diagnostics = validate_artifacts([path])
    # repr tells -0.0 from 0.0 and shows the dict order
    assert repr(written.entries) == repr(back.entries)
    assert written.tag == back.tag
    assert diagnostics == []


class TestRunIO:
    def test_write_read_round_trip_byte_identical(self, tmp_path):
        run = Run.from_scores({"q1": {"d1": 2.5, "d2": 1.0}, "q2": {"d3": 0.125}}, tag="sys")
        first = tmp_path / "a.trec"
        second = tmp_path / "b.trec"
        write_run(run, str(first))
        write_run(read_run(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_rank_column_starts_at_one(self, tmp_path):
        run = Run.from_scores({"q1": {"d1": 2.0, "d2": 1.0}})
        path = tmp_path / "r.trec"
        write_run(run, str(path))
        lines = path.read_text().splitlines()
        assert lines[0].split()[3] == "1"
        assert lines[1].split()[3] == "2"

    def test_duplicate_doc_rejected_on_read(self, tmp_path):
        path = tmp_path / "r.trec"
        path.write_text("q1 Q0 d1 1 2.0 t\nq1 Q0 d1 2 1.0 t\n")
        with pytest.raises(FormatError, match="duplicate"):
            read_run(str(path))

    def test_reader_canonicalizes_order(self, tmp_path):
        path = tmp_path / "r.trec"
        path.write_text("q1 Q0 d1 1 1.0 t\nq1 Q0 d2 2 5.0 t\n")
        run = read_run(str(path))
        assert run.docids("q1") == ["d2", "d1"]

    def test_header_comment_skipped(self, tmp_path):
        path = tmp_path / "r.trec"
        path.write_text("# provenance line\nq1 Q0 d1 1 1.0 t\n")
        assert read_run(str(path)).docids("q1") == ["d1"]

    def test_non_finite_score_rejected(self, tmp_path):
        path = tmp_path / "r.trec"
        path.write_text("q1 Q0 d1 1 nan t\n")
        with pytest.raises(FormatError, match="non-finite"):
            read_run(str(path))


class TestNormalizeRun:
    def test_affine_map(self):
        run = Run.from_scores({"q1": {"a": 2.0, "b": 4.0, "c": 6.0}})
        normalized = normalize_run(run)
        assert normalized.entries["q1"] == [("c", 1.0), ("b", 0.5), ("a", 0.0)]

    def test_single_entry_becomes_one(self):
        run = Run.from_scores({"q1": {"a": 3.7}})
        assert normalize_run(run).entries["q1"] == [("a", 1.0)]

    def test_argsort_never_changes(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            run = random_run(rng, n_queries=5, max_docs=10)
            normalized = normalize_run(run)
            for qid in run.entries:
                assert run.docids(qid) == normalized.docids(qid)

    def test_span_beyond_float_range_is_a_data_error(self):
        run = Run.from_scores({"q1": {"a": 1.7e308, "b": 0.0, "c": -1.7e308}})
        with pytest.raises(DataError, match="'q1'"):
            normalize_run(run)


class TestFuse:
    def test_degenerate_weight_reproduces_first_run(self):
        rng = np.random.default_rng(0)
        run1 = random_run(rng, tag="a")
        run2 = random_run(rng, tag="b")
        fused = fuse([run1, run2], [1.0, 0.0])
        for qid in run1.entries:
            assert fused.docids(qid)[: len(run1.entries[qid])] == run1.docids(qid)

    def test_absent_document_contributes_zero(self):
        run1 = Run.from_scores({"q1": {"d": 1.0}})
        run2 = Run.from_scores({"q1": {"e": 1.0}})
        fused = fuse([run1, run2], [0.5, 0.5])
        assert fused.scores("q1")["d"] == 0.5

    def test_equal_weights_mean_matches_hand_arithmetic(self):
        rng = np.random.default_rng(7)
        docs = [f"d{i}" for i in range(10)]
        scores1 = {d: float(rng.uniform(0, 1)) for d in docs}
        scores2 = {d: float(rng.uniform(0, 1)) for d in docs}
        fused = fuse(
            [Run.from_scores({"q": scores1}), Run.from_scores({"q": scores2})], [0.5, 0.5]
        )
        for d in docs:
            assert fused.scores("q")[d] == pytest.approx(
                0.5 * scores1[d] + 0.5 * scores2[d], abs=1e-15
            )

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(3)
        runs = [random_run(rng, tag=f"r{i}") for i in range(3)]
        weights = [0.5, 0.3, 0.2]
        forward = fuse(runs, weights)
        backward = fuse(runs[::-1], weights[::-1])
        assert forward.entries == backward.entries

    def test_single_normalized_run_reproduces_ranking(self):
        rng = np.random.default_rng(4)
        run = random_run(rng)
        fused = fuse([normalize_run(run)], [1.0])
        for qid in run.entries:
            assert fused.docids(qid) == run.docids(qid)

    def test_all_zero_weights_error(self):
        with pytest.raises(ValueError):
            fuse([Run.from_scores({"q": {"d": 1.0}})], [0.0])

    def test_negative_weight_error(self):
        with pytest.raises(ValueError):
            fuse([Run.from_scores({"q": {"d": 1.0}})], [-0.5])

    @pytest.mark.parametrize("weight", [math.inf, math.nan])
    def test_non_finite_weight_error(self, weight):
        run = Run.from_scores({"q": {"d": 1.0}})
        with pytest.raises(ValueError, match="finite"):
            fuse([run, run], [weight, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fuse([Run.from_scores({"q": {"d": 1.0}})], [0.5, 0.5])

    @pytest.mark.parametrize("weight, top", [("1e10", "1e300"), ("1", "1e308")], ids=["1e10", "1e308"])
    def test_overflowing_weighted_sum_is_a_data_error(self, tmp_path, capsys, weight, top):
        # 1e10 * 1e300 overflows a product; 1e308 + 1e308 overflows fsum's partial sum
        run = tmp_path / "a.trec"
        run.write_text(f"q1 Q0 d1 1 {top} s\nq1 Q0 d2 2 1.0 s\n")
        out = tmp_path / "o.trec"
        argv = ["fuse", "--runs", str(run), str(run), "--normalize", "none", "--weights", f"{weight},{weight}"]
        assert main(argv + ["--out", str(out)]) == 2
        assert "query 'q1'" in capsys.readouterr().err
        assert not out.exists()

    def test_opposite_infinite_products_are_a_data_error(self):
        runs = [Run(entries={"q": [("d", 1e300)]}), Run(entries={"q": [("d", -1e300)]})]
        with pytest.raises(DataError, match="query 'q'"):
            fuse(runs, [1e10, 1e10])

    def test_tag_is_hybrid(self):
        fused = fuse([Run.from_scores({"q": {"d": 1.0}})], [1.0])
        assert fused.tag == "hybrid"


def _accepts(call, rejection=ValueError) -> bool:
    try:
        call()
    except rejection:
        return False
    return True


def _pipeline_accepts(raw: str) -> bool:
    """Whether a fuse-only pipeline takes ``fuse.weights = raw`` over one-document legs."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        (out / "xx").mkdir(parents=True)
        artifacts = {stage.name: stage.artifact for stage in STAGE_TABLE}
        for i, leg in enumerate(FUSE_LEGS):  # disjoint legs: no weighted sum can overflow
            (out / "xx" / artifacts[leg]).write_text(f"q Q0 d{i} 1 1.0 {leg}\n")
        values = {"schema": SCHEMA, "seed": "0", "languages": "xx", "stages": "fuse", "output_dir": "out",
                  "fuse.weights": raw}
        config = ExperimentConfig(Path(tmp), values, path="exp.cfg", lines={"fuse.weights": 6})
        return _accepts(lambda: run_pipeline(config), FormatError)


class TestWeightRule:
    # the pipeline key takes one weight per leg, so only lists of that length reach it
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308]), max_size=len(FUSE_LEGS) + 1))
    def test_every_entry_point_accepts_the_same_lists(self, weights):
        raw = ",".join(map(repr, weights))
        # one document per run, each its own: no weighted sum can overflow
        runs = [Run(entries={"q": [(f"d{i}", 1.0)]}) for i in range(len(weights))]
        verdicts = {
            "parse_weights": _accepts(lambda: parse_weights(raw)),
            "fuse": _accepts(lambda: fuse(runs, weights)),
            "EnsembleConfig": _accepts(lambda: EnsembleConfig(weights)),
        }
        if len(weights) == len(FUSE_LEGS):
            verdicts["fuse.weights"] = _pipeline_accepts(raw)
        assert len(set(verdicts.values())) == 1, verdicts


class TestCutPool:
    def test_long_list_cut(self):
        run = Run.from_scores({"q": {f"d{i:03d}": 500.0 - i for i in range(500)}})
        pool = cut_pool(run, 200)
        assert len(pool.entries["q"]) == 200
        assert pool.docids("q") == run.docids("q")[:200]

    def test_short_list_kept_whole(self):
        run = Run.from_scores({"q": {f"d{i}": 50.0 - i for i in range(50)}})
        assert len(cut_pool(run, 200).entries["q"]) == 50

    def test_k_one_keeps_top_doc(self):
        run = Run.from_scores({"q": {"a": 1.0, "b": 9.0}})
        assert cut_pool(run, 1).docids("q") == ["b"]

    def test_prefix_of_larger_cut(self):
        rng = np.random.default_rng(2)
        run = random_run(rng, n_queries=4, max_docs=20, universe_size=40)
        small = cut_pool(run, 5)
        large = cut_pool(run, 12)
        for qid in run.entries:
            assert large.docids(qid)[:5][: len(small.docids(qid))] == small.docids(qid)

    def test_provenance_records_source_tag(self):
        run = Run.from_scores({"q": {"d": 1.0}}, tag="hybrid")
        assert cut_pool(run, 10).tag == "hybrid"

    def test_pool_recall_monotone_in_k(self):
        rng = np.random.default_rng(9)
        run = random_run(rng, n_queries=6, max_docs=20, universe_size=25)
        qrels = random_qrels(rng, run)
        previous = -1.0
        for k in (1, 2, 5, 10, 20):
            recall = recall_at_k(cut_pool(run, k), qrels, k).mean
            assert recall >= previous
            previous = recall
