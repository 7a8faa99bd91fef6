import warnings

import numpy as np
import pytest

from helpers import oracle_q2q2d, write_vectors
from rankpipe.cli import main
from rankpipe.corpus import load_qrels, load_topics
from rankpipe.dense import EmbeddingStore, dense_search, load_embeddings
from rankpipe.errors import DataError, FormatError
from rankpipe.forge import AugmentationParams, write_pairs
from rankpipe.runs import read_run


class TestLoadEmbeddings:
    def test_two_records_dim_four(self, tmp_path):
        path = write_vectors(tmp_path / "v.vec.tsv", [("a", "1,2,3,4"), ("b", "0,0,1,0")])
        store = load_embeddings(path)
        assert store.dim == 4
        assert len(store) == 2

    def test_dimension_mismatch_names_id_and_line(self, tmp_path):
        path = write_vectors(tmp_path / "v.vec.tsv", [("a", "1,2,3,4"), ("b", "1,2,3")])
        with pytest.raises(FormatError, match="'b'") as exc:
            load_embeddings(path)
        assert exc.value.line == 2

    def test_empty_file_is_an_error(self, tmp_path):
        path = write_vectors(tmp_path / "v.vec.tsv", [])
        with pytest.raises(DataError, match="no vectors"):
            load_embeddings(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = write_vectors(tmp_path / "v.vec.tsv", [("a", "1,0"), ("a", "0,1")])
        with pytest.raises(FormatError, match="duplicate"):
            load_embeddings(path)

    def test_non_numeric_component(self, tmp_path):
        path = write_vectors(tmp_path / "v.vec.tsv", [("a", "1,x")])
        with pytest.raises(FormatError):
            load_embeddings(path)

    def test_non_finite_component_rejected(self, tmp_path):
        path = write_vectors(tmp_path / "v.vec.tsv", [("a", "1,nan")])
        with pytest.raises(FormatError, match="non-finite"):
            load_embeddings(path)
        path = write_vectors(tmp_path / "w.vec.tsv", [("a", "1,inf")])
        with pytest.raises(FormatError, match="non-finite"):
            load_embeddings(path)


def make_stores(query_vecs, doc_vecs):
    queries = EmbeddingStore(list(query_vecs), np.array(list(query_vecs.values()), dtype=float))
    docs = EmbeddingStore(list(doc_vecs), np.array(list(doc_vecs.values()), dtype=float))
    return queries, docs


class TestDenseSearch:
    def test_dot_example(self):
        queries, docs = make_stores({"q": [1, 0]}, {"d1": [1, 0], "d2": [0, 1]})
        assert dense_search(queries, docs, "q", 5) == [("d1", 1.0), ("d2", 0.0)]

    def test_cosine_scale_invariance(self):
        queries, docs = make_stores({"q": [2, 0]}, {"d1": [7, 0]})
        assert dense_search(queries, docs, "q", 1, "cosine") == [("d1", pytest.approx(1.0))]

    def test_unknown_query_id(self):
        queries, docs = make_stores({"q": [1, 0]}, {"d1": [1, 0]})
        with pytest.raises(DataError, match="nope"):
            dense_search(queries, docs, "nope", 1)

    def test_dim_mismatch(self):
        queries, docs = make_stores({"q": [1, 0, 0]}, {"d1": [1, 0]})
        with pytest.raises(DataError, match="dim"):
            dense_search(queries, docs, "q", 1)

    def test_k_larger_than_store(self):
        queries, docs = make_stores({"q": [1, 0]}, {"d1": [1, 0], "d2": [0, 1]})
        assert len(dense_search(queries, docs, "q", 100)) == 2

    def test_matches_brute_force_on_random_vectors(self):
        rng = np.random.default_rng(42)
        for metric in ("dot", "cosine"):
            qvec = {"q": rng.normal(size=8)}
            dvecs = {f"d{i:02d}": rng.normal(size=8) for i in range(50)}
            queries, docs = make_stores(qvec, dvecs)
            got = dense_search(queries, docs, "q", 50, metric)

            expected = {}
            for vid, vec in dvecs.items():
                a, b = np.asarray(qvec["q"], float), np.asarray(vec, float)
                sim = float(a @ b)
                if metric == "cosine":
                    sim = sim / (np.linalg.norm(a) * np.linalg.norm(b))
                expected[vid] = sim
            order = sorted(expected, key=lambda d: (-expected[d], d))
            assert [d for d, _ in got] == order
            for docid, score in got:
                assert score == pytest.approx(expected[docid], abs=1e-12)

    def test_permutation_invariant_in_insertion_order(self):
        rng = np.random.default_rng(1)
        items = [(f"d{i}", rng.normal(size=4).tolist()) for i in range(20)]
        queries = EmbeddingStore(["q"], rng.normal(size=(1, 4)))
        docs_a = EmbeddingStore.from_items(items)
        docs_b = EmbeddingStore.from_items(items[::-1])
        assert dense_search(queries, docs_a, "q", 20) == dense_search(queries, docs_b, "q", 20)

    def test_cosine_scores_bounded(self):
        rng = np.random.default_rng(2)
        queries, docs = make_stores(
            {"q": rng.normal(size=6)},
            {f"d{i}": rng.normal(size=6) for i in range(30)},
        )
        for _, score in dense_search(queries, docs, "q", 30, "cosine"):
            assert -1.0 <= score <= 1.0

    def test_tie_break_ascending_docid(self):
        queries, docs = make_stores({"q": [1, 0]}, {"d2": [0, 1], "d1": [0, 2]})
        assert [d for d, _ in dense_search(queries, docs, "q", 2)] == ["d1", "d2"]

    def test_unknown_metric(self):
        queries, docs = make_stores({"q": [1, 0]}, {"d1": [1, 0]})
        with pytest.raises(ValueError, match="euclid"):
            dense_search(queries, docs, "q", 1, "euclid")

    @pytest.mark.parametrize(
        "query_vecs, doc_vecs, zero",
        [
            ({"q": [0, 0]}, {"d1": [1, 0]}, "q"),
            ({"q": [1, 0]}, {"d1": [1, 0], "d2": [0, 0]}, "d2"),
        ],
        ids=["query", "doc"],
    )
    def test_zero_vector_rejected_under_cosine_only(self, query_vecs, doc_vecs, zero):
        queries, docs = make_stores(query_vecs, doc_vecs)
        with pytest.raises(DataError, match=f"zero vector '{zero}' not allowed under cosine"):
            dense_search(queries, docs, "q", 5, "cosine")
        assert len(dense_search(queries, docs, "q", 5, "dot")) == len(doc_vecs)


@pytest.mark.parametrize("metric", ["dot", "cosine"])
def test_overflowing_similarity_is_a_data_error(metric):
    # every component is finite, but the dot product is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        store = EmbeddingStore(["q1", "d1"], np.full((2, 2), 1e200))
        with pytest.raises(DataError, match="'q1'"):
            dense_search(store, store, "q1", 5, metric)


def test_cli_cosine_and_dot_rank_differently_and_each_as_brute_force(tmp_path):
    # doc norms differ, so the long vector leads under dot and the aligned one under cosine
    queries = {"q1": [1.0, 0.0], "q2": [0.6, 0.8]}
    docs = {"long": [3.0, 3.0], "aligned": [1.0, 0.1], "diag": [0.5, 0.55], "short": [0.2, 0.9]}
    query_path = write_vectors(tmp_path / "q.vec.tsv", [(v, ",".join(map(str, x))) for v, x in queries.items()])
    doc_path = write_vectors(tmp_path / "d.vec.tsv", [(v, ",".join(map(str, x))) for v, x in docs.items()])
    rankings = {}
    for metric in ("dot", "cosine"):
        out = tmp_path / f"{metric}.trec"
        assert main(["retrieve", "dense", "--queries", query_path, "--docs", doc_path, "--metric", metric,
                     "--out", str(out)]) == 0
        run = read_run(str(out))
        for qid, qvec in queries.items():
            a = np.array(qvec)
            expected = {}
            for docid, dvec in docs.items():
                b = np.array(dvec)
                sim = float(a @ b)
                expected[docid] = sim / float(np.linalg.norm(a) * np.linalg.norm(b)) if metric == "cosine" else sim
            order = sorted(expected, key=lambda d: (-expected[d], d))
            assert run.docids(qid) == order, (metric, qid)
            assert run.scores(qid) == pytest.approx(expected, abs=1e-12)
        rankings[metric] = {qid: run.docids(qid) for qid in queries}
    assert rankings["dot"]["q1"][0] == "long" and rankings["cosine"]["q1"][0] == "aligned"


def test_cosine_outputs_equal_the_per_query_formula_bit_for_bit(tmp_path):
    rng = np.random.default_rng(17)
    queries = EmbeddingStore([f"q{i}" for i in range(8)] + [f"s{i}" for i in range(40)], rng.normal(size=(48, 16)))
    docs = EmbeddingStore([f"d{i:03d}" for i in range(300)], rng.normal(size=(300, 16)))
    write_vectors(tmp_path / "q.vec.tsv", zip(queries.ids, queries.matrix))
    write_vectors(tmp_path / "d.vec.tsv", zip(docs.ids, docs.matrix))
    queries, docs = load_embeddings(str(tmp_path / "q.vec.tsv")), load_embeddings(str(tmp_path / "d.vec.tsv"))
    out = tmp_path / "dense.trec"
    assert main(["retrieve", "dense", "--queries", str(tmp_path / "q.vec.tsv"), "--docs", str(tmp_path / "d.vec.tsv"),
                 "--metric", "cosine", "-k", "40", "--out", str(out)]) == 0
    run = read_run(str(out))
    for qid in queries.ids:
        qvec = queries.vector(qid)
        scores = docs.matrix @ qvec / (np.linalg.norm(docs.matrix, axis=1) * np.linalg.norm(qvec))
        order = np.lexsort((np.array(docs.ids), -scores))[:40]
        assert repr(run.entries[qid]) == repr([(docs.ids[i], float(scores[i])) for i in order])

    (tmp_path / "test.tsv").write_text("".join(f"q{i}\ttarget {i}\n" for i in range(8)), encoding="utf-8")
    (tmp_path / "train.tsv").write_text("".join(f"s{i}\tsource {i}\n" for i in range(40)), encoding="utf-8")
    (tmp_path / "train.qrels").write_text("".join(f"s{i} 0 d{i % 7} {i % 3}\n" for i in range(40)), encoding="utf-8")
    pairs, expected = tmp_path / "q2q2d.pairs.tsv", tmp_path / "oracle.pairs.tsv"
    assert main(["forge", "q2q2d", "--test-topics", str(tmp_path / "test.tsv"), "--train-topics",
                 str(tmp_path / "train.tsv"), "--train-qrels", str(tmp_path / "train.qrels"), "--query-vectors",
                 str(tmp_path / "q.vec.tsv"), "--tau", "-1", "--top-m", "5", "--out", str(pairs)]) == 0
    write_pairs(oracle_q2q2d(load_topics(str(tmp_path / "test.tsv")), load_topics(str(tmp_path / "train.tsv")),
                             load_qrels(str(tmp_path / "train.qrels")), queries, AugmentationParams(top_m=5, tau=-1.0)),
                str(expected))
    assert pairs.read_bytes() == expected.read_bytes() and pairs.stat().st_size > 0


def test_cosine_norms_are_computed_once_per_store(monkeypatch):
    rng = np.random.default_rng(3)
    queries = EmbeddingStore([f"q{i}" for i in range(10)], rng.normal(size=(10, 4)))
    docs = EmbeddingStore([f"d{i}" for i in range(50)], rng.normal(size=(50, 4)))
    norm, calls = np.linalg.norm, []

    def counted(x, *args, **kwargs):
        calls.append(np.shape(x))
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    for qid in queries.ids:
        dense_search(queries, docs, qid, 5, "cosine")
    assert calls.count((50, 4)) == 1 and calls.count((4,)) == 10
