"""Acceptance suite: one test per release criterion.

Each test is stated against an independent oracle or an analytically forced
construction; a summary line per criterion is printed at the end of the
pytest run (see conftest.py).
"""
import math
import os
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    oracle_bm25,
    oracle_ndcg,
    oracle_recall,
    random_corpus,
    random_qrels,
    random_run,
    write_vectors,
)
from rankpipe.corpus import Document, corpus_stats, load_corpus, load_qrels, load_topics, write_qrels
from rankpipe.dense import EmbeddingStore
from rankpipe.ensemble import EnsembleConfig, adjust_weights, ensemble_runs
from rankpipe.forge import (
    AugmentationParams,
    pseudo_label,
    q2q2d_augment,
    read_pairs,
    sample_negatives,
    write_pairs,
)
from rankpipe.fusion import cut_pool, fuse, normalize_run
from rankpipe.metrics import macro_average, ndcg_at_k, recall_at_k
from rankpipe.pipeline import load_config, run_pipeline
from rankpipe.runs import Run, read_run, write_run
from rankpipe.sparse import Bm25Params, bm25_search, build_index
from rankpipe.validate import validate_artifacts

DESK = Path(__file__).parent / "data" / "desk"


def test_criterion_1_metric_oracle_equivalence():
    """nDCG@k and recall@k match brute-force formula evaluation to 1e-12."""
    rng = np.random.default_rng(42)
    started = time.perf_counter()
    for _ in range(200):
        run = random_run(rng, n_queries=int(rng.integers(1, 6)), max_docs=10)
        qrels = random_qrels(rng, run)
        k = int(rng.integers(1, 12))
        ndcg = ndcg_at_k(run, qrels, k)
        expected_ndcg = oracle_ndcg(run, qrels, k)
        assert set(ndcg.per_query) == set(expected_ndcg)
        for qid, value in ndcg.per_query.items():
            assert abs(value - expected_ndcg[qid]) <= 1e-12
        if expected_ndcg:
            assert abs(ndcg.mean - sum(expected_ndcg.values()) / len(expected_ndcg)) <= 1e-12

        recall = recall_at_k(run, qrels, k)
        expected_recall = oracle_recall(run, qrels, k)
        assert set(recall.per_query) == set(expected_recall)
        for qid, value in recall.per_query.items():
            assert abs(value - expected_recall[qid]) <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"metric equivalence took {elapsed:.2f}s"


def test_criterion_2_bm25_matches_exhaustive_scoring():
    """Top-k BM25 equals exhaustive scoring with the stated formula (1e-9)."""
    # worked hand value on the single-document corpus
    index = build_index([Document("d1", "", "a b")])
    (docid, score), = bm25_search(index, "a", 5, Bm25Params(k1=0.9, b=0.4))
    assert docid == "d1"
    assert abs(score - math.log(4 / 3) / 1.9) <= 1e-9

    rng = np.random.default_rng(7)
    for _ in range(50):
        docs = random_corpus(rng, int(rng.integers(2, 101)))
        index = build_index(docs)
        terms = rng.choice(35, size=int(rng.integers(1, 5)), replace=False)
        query = " ".join(f"w{t}" for t in terms)
        k = int(rng.integers(1, 30))
        expected = oracle_bm25(docs, query)[:k]
        got = bm25_search(index, query, k)
        assert [d for d, _ in got] == [d for d, _ in expected]
        for (_, s_got), (_, s_exp) in zip(got, expected):
            assert abs(s_got - s_exp) <= 1e-9


def test_criterion_3_fusion_degeneracy():
    """Weights (1,0) reproduce run 1; min-max never reorders a query."""
    rng = np.random.default_rng(11)
    for _ in range(100):
        qids = [f"q{i}" for i in range(int(rng.integers(1, 5)))]
        run1 = random_run(rng, max_docs=10, qids=qids, tag="one")
        run2 = random_run(rng, max_docs=10, qids=qids, tag="two")

        fused = fuse([run1, run2], [1.0, 0.0])
        for qid in run1.entries:
            n = len(run1.entries[qid])
            # run-1 docs keep their exact scores and order; run-2-only docs
            # fall strictly below (score 0 < every positive run-1 score)
            assert fused.entries[qid][:n] == run1.entries[qid]

        normalized = normalize_run(run2)
        for qid in run2.entries:
            assert normalized.docids(qid) == run2.docids(qid)

        # order restricted to run-1 docs is preserved even after normalization
        fused_normalized = fuse([normalize_run(run1), normalize_run(run2)], [1.0, 0.0])
        for qid in run1.entries:
            restricted = [d for d in fused_normalized.docids(qid) if d in set(run1.docids(qid))]
            assert restricted == run1.docids(qid)


def test_criterion_4_negative_sampling_exclusion_and_determinism():
    """No sampled negative is positive; seeds reproduce; NS-n prefixes NS-(n+m)."""
    rng = np.random.default_rng(13)
    for _ in range(1000):
        pool_size = int(rng.integers(1, 20))
        run = Run.from_scores(
            {"q1": {f"d{i:02d}": float(rng.uniform(0.1, 10)) for i in range(pool_size)}},
            tag="hybrid",
        )
        pool = cut_pool(run, pool_size)
        judged: dict[str, int] = {}
        for docid in pool.docids("q1"):
            roll = rng.random()
            if roll < 0.3:
                judged[docid] = 1
            elif roll < 0.5:
                judged[docid] = 0
        if not judged:
            judged[pool.docids("q1")[0]] = 1
        qrels = {"q1": judged}
        n = int(rng.integers(0, 25))
        m = int(rng.integers(1, 10))
        seed = int(rng.integers(0, 2**32))

        universes = {"q1": pool.docids("q1")}
        pairs = sample_negatives(universes, qrels, n, seed)
        positives = {docid for docid, grade in judged.items() if grade >= 1}
        for pair in pairs:
            assert qrels[pair.qid].get(pair.docid, 0) == 0
            assert pair.docid not in positives
        assert sample_negatives(universes, qrels, n, seed) == pairs

        larger = sample_negatives(universes, qrels, n + m, seed)
        assert [p.docid for p in larger[:len(pairs)]] == [p.docid for p in pairs]


def test_criterion_5_augmentation_bounds():
    """Q2Q2D labels live in [0, alpha]; pseudo labels are exactly 0.9 * score."""
    rng = np.random.default_rng(17)

    # worked case: similarity 1.0, annotated label 1, alpha 0.9
    vectors = EmbeddingStore(["t1", "s1"], np.array([[1.0, 0.0], [1.0, 0.0]]))
    qrels = {"s1": {"d1": 1}}
    params = AugmentationParams(alpha=0.9, top_m=1, tau=0.8, seed=0)
    pairs = q2q2d_augment({"t1": "t"}, {"s1": "s"}, qrels, vectors, params)
    assert len(pairs) == 1 and pairs[0].label == pytest.approx(0.9, abs=1e-12)

    for _ in range(100):
        n_train = int(rng.integers(1, 8))
        ids = ["t"] + [f"s{i}" for i in range(n_train)]
        vectors = EmbeddingStore(ids, rng.normal(size=(len(ids), 6)))
        train_queries = {f"s{i}": f"text{i}" for i in range(n_train)}
        train_qrels = {}
        for i in range(n_train):
            train_qrels[f"s{i}"] = {f"d{d}": int(rng.integers(0, 2)) for d in range(int(rng.integers(1, 4)))}
        params = AugmentationParams(
            alpha=float(rng.uniform(0.1, 1.0)),
            top_m=int(rng.integers(1, 4)),
            tau=float(rng.uniform(-1.0, 1.0)),
            seed=0,
        )
        for pair in q2q2d_augment({"t": "t"}, train_queries, train_qrels, vectors, params):
            assert 0.0 <= pair.label <= params.alpha + 1e-12

    for _ in range(50):
        total = int(rng.integers(1, 40))
        scores = {f"d{i:02d}": float(rng.uniform(0, 1)) for i in range(total)}
        run = Run.from_scores({"q1": scores})
        fraction = float(rng.uniform(0.05, 1.0))
        pairs = pseudo_label(run, None, AugmentationParams(pseudo_fraction=fraction, seed=3))
        assert len(pairs) == math.floor(fraction * total)
        for pair in pairs:
            assert pair.label == pytest.approx(0.9 * scores[pair.docid], abs=1e-15)


def test_criterion_6_ensemble_idempotence_and_penalty_monotonicity():
    """Copies of a run ensemble to itself; lambda never favors the most
    correlated run."""
    rng = np.random.default_rng(19)
    for _ in range(100):
        run = random_run(rng, n_queries=int(rng.integers(1, 4)), max_docs=8)
        copies = int(rng.integers(2, 5))
        weights = rng.uniform(0.1, 1.0, size=copies).tolist()
        combined = ensemble_runs([run] * copies, weights)
        for qid in run.entries:
            assert combined.docids(qid) == run.docids(qid)

    for _ in range(100):
        n = int(rng.integers(2, 5))
        base = rng.uniform(0.2, 1.0, size=n).tolist()
        raw = rng.uniform(0, 1, size=(n, n))
        corr = (raw + raw.T) / 2
        np.fill_diagonal(corr, 1.0)
        rho = np.clip((corr.sum(axis=1) - 1.0) / (n - 1), 0.0, 1.0)
        hi, lo = int(np.argmax(rho)), int(np.argmin(rho))
        previous_share = None
        for lam in np.linspace(0.0, 1.0, 5):
            weights = adjust_weights(EnsembleConfig(base_weights=base, lam=float(lam)), corr)
            denom = weights[hi] + weights[lo]
            share = weights[hi] / denom if denom > 0 else 0.0
            if previous_share is not None:
                assert share <= previous_share + 1e-12
            previous_share = share


def test_criterion_7_end_to_end_desk_pipeline(tmp_path):
    """Full pipeline on the bundled trilingual corpus: hybrid recall@50 is
    1.0 and hybrid nDCG@10 beats both single legs."""
    started = time.perf_counter()
    desk_copy = tmp_path / "desk"
    shutil.copytree(DESK, desk_copy, ignore=shutil.ignore_patterns("out", "__pycache__"))
    config = load_config(str(desk_copy / "desk.cfg"))
    reports = run_pipeline(config)

    hybrid_recalls = []
    for language in config.languages:
        lang_reports = reports[language]
        recall = lang_reports[("hybrid", "recall", 50)]
        assert recall.mean == 1.0, f"{language}: hybrid recall@50 = {recall.mean}"
        hybrid_recalls.append(recall)
        ndcg_hybrid = lang_reports[("hybrid", "ndcg", 10)].mean
        ndcg_bm25 = lang_reports[("bm25", "ndcg", 10)].mean
        ndcg_dense = lang_reports[("dense", "ndcg", 10)].mean
        assert ndcg_hybrid >= max(ndcg_bm25, ndcg_dense), (
            f"{language}: hybrid {ndcg_hybrid} vs bm25 {ndcg_bm25}, dense {ndcg_dense}"
        )
    assert macro_average(hybrid_recalls) == 1.0
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"desk pipeline took {elapsed:.2f}s"


MIRACL_DIR = os.environ.get("MIRACL_DATA_DIR")


@pytest.mark.skipif(
    not MIRACL_DIR, reason="set MIRACL_DATA_DIR to run the optional full-data checks"
)
def test_criterion_8_full_data_swahili_spot_checks():
    """Optional full-data check against the downloaded Swahili collection.

    Expects under $MIRACL_DATA_DIR/sw: corpus.jsonl, topics.<split>.tsv and
    qrels.<split>.txt for the train split, plus official bm25.train.trec and
    mdpr.train.trec run files.
    """
    base = Path(MIRACL_DIR) / "sw"
    topics = {"train": load_topics(str(base / "topics.train.tsv"))}
    qrels = {"train": load_qrels(str(base / "qrels.train.txt"))}
    row = corpus_stats(load_corpus(str(base / "corpus.jsonl")), topics, qrels, language="sw")
    assert row.queries["train"] == 1901
    assert row.judgments["train"] == 9359
    assert row.passages == 131924

    bm25 = read_run(str(base / "bm25.train.trec"))
    mdpr = read_run(str(base / "mdpr.train.trec"))
    hybrid = fuse([normalize_run(bm25), normalize_run(mdpr)], [0.5, 0.5])
    pool = cut_pool(hybrid, 200)
    recall = recall_at_k(pool, qrels["train"], 200).mean
    assert abs(recall - 0.990) <= 0.005


def test_criterion_9_format_round_trips_and_validation(tmp_path):
    """Write -> read -> write is byte-identical for every text format rankpipe
    writes, and the validator accepts everything the pipeline emits."""
    rng = np.random.default_rng(23)

    run = random_run(rng, n_queries=5, max_docs=10, tag="sys")
    run_a, run_b = tmp_path / "a.trec", tmp_path / "b.trec"
    write_run(run, str(run_a))
    write_run(read_run(str(run_a)), str(run_b))
    assert run_a.read_bytes() == run_b.read_bytes()

    qrels = random_qrels(rng, run)
    qrels_a, qrels_b = tmp_path / "a.qrels", tmp_path / "b.qrels"
    write_qrels(qrels, str(qrels_a))
    write_qrels(load_qrels(str(qrels_a)), str(qrels_b))
    assert qrels_a.read_bytes() == qrels_b.read_bytes()

    pool = cut_pool(run, 5)
    universes = {qid: pool.docids(qid) for qid in pool.entries}
    pairs = sample_negatives(universes, qrels, 3, seed=5, query_texts={q: f"text {q}" for q in run.entries})
    pairs_a, pairs_b = tmp_path / "a.pairs.tsv", tmp_path / "b.pairs.tsv"
    write_pairs(pairs, str(pairs_a))
    write_pairs(read_pairs(str(pairs_a)), str(pairs_b))
    assert pairs_a.read_bytes() == pairs_b.read_bytes()

    vec_a = write_vectors(tmp_path / "a.vec.tsv", zip([f"v{i}" for i in range(6)], rng.normal(size=(6, 5))))

    assert validate_artifacts([str(run_a), str(qrels_a), str(pairs_a), vec_a]) == []

    desk_copy = tmp_path / "desk"
    shutil.copytree(DESK, desk_copy, ignore=shutil.ignore_patterns("out", "__pycache__"))
    run_pipeline(load_config(str(desk_copy / "desk.cfg")))
    emitted = sorted(str(p) for p in (desk_copy / "out").rglob("*.trec"))
    assert emitted, "pipeline produced no run files"
    inputs = [
        str(p)
        for pattern in ("*/corpus.jsonl", "*/topics.tsv", "*/qrels.txt", "*/*.vec.tsv")
        for p in desk_copy.glob(pattern)
    ]
    diagnostics = validate_artifacts(emitted + inputs)
    assert diagnostics == [], "\n".join(str(d) for d in diagnostics)
