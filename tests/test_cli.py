import ast
import errno
import gc
import hashlib
import importlib.util
import json
import os
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import NUL_SIBLINGS, write_vectors
from rankpipe import cli, dense, ensemble, forge, sparse, validate
from rankpipe.cli import main
from rankpipe.corpus import load_corpus, load_qrels, load_topics
from rankpipe.errors import DataError, FormatError
from rankpipe.fusion import cut_pool
from rankpipe.pipeline import _KEYS, STAGES, ExperimentConfig, load_config, run_pipeline
from rankpipe.rerank import rerank_pool
from rankpipe.runs import read_run, write_run

DESK = Path(__file__).parent / "data" / "desk"


def write_tiny_project(root: Path) -> Path:
    """Two queries, six docs, complementary sparse/dense relevance."""
    docs = [
        {"docid": "d1", "title": "", "text": "albatross zephyr facts albatross zephyr"},
        {"docid": "d2", "title": "", "text": "nothing shared with queries here"},
        {"docid": "d3", "title": "", "text": "quasar obsidian notes quasar obsidian"},
        {"docid": "d4", "title": "", "text": "more filler text entirely"},
        {"docid": "d5", "title": "", "text": "albatross appears once only"},
        {"docid": "d6", "title": "", "text": "quasar appears once only"},
    ]
    (root / "corpus.jsonl").write_text(
        "".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8"
    )
    (root / "topics.tsv").write_text("q1\talbatross zephyr\nq2\tquasar obsidian\n", encoding="utf-8")
    (root / "qrels.txt").write_text(
        "q1 Q0 d1 1\nq1 Q0 d2 1\nq2 Q0 d3 1\nq2 Q0 d4 1\n", encoding="utf-8"
    )
    (root / "queries.vec.tsv").write_text("q1\t1.0,0.0\nq2\t0.0,1.0\n", encoding="utf-8")
    doc_vecs = {"d1": "0.0,0.0", "d2": "1.0,0.0", "d3": "0.0,0.0", "d4": "0.0,1.0", "d5": "0.0,0.0", "d6": "0.0,0.0"}
    (root / "docs.vec.tsv").write_text(
        "".join(f"{d}\t{v}\n" for d, v in doc_vecs.items()), encoding="utf-8"
    )
    config = "\n".join(
        [
            "schema = rankpipe-exp-1",
            "seed = 7",
            "languages = xx",
            "stages = index,bm25,dense,fuse,pool,rerank,eval",
            "output_dir = out",
            "corpus.xx = corpus.jsonl",
            "topics.xx = topics.tsv",
            "qrels.xx = qrels.txt",
            "query_vectors.xx = queries.vec.tsv",
            "doc_vectors.xx = docs.vec.tsv",
            "retrieve.k = 6",
            "pool.k = 4",
            "eval.k = 3",
            "eval.recall_k = 4",
            "",
        ]
    )
    (root / "exp.cfg").write_text(config, encoding="utf-8")
    return root / "exp.cfg"


def exit_code(argv: list[str]) -> int:
    """The exit code of a CLI call, whether main returns it or argparse exits with it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestSubcommands:
    def test_index_retrieve_eval_flow(self, tmp_path, capsys):
        write_tiny_project(tmp_path)
        index_path = tmp_path / "idx.rpidx"
        run_path = tmp_path / "bm25.trec"
        assert main(["index", "build", "--corpus", str(tmp_path / "corpus.jsonl"), "--out", str(index_path)]) == 0
        assert main(
            ["retrieve", "bm25", "--index", str(index_path), "--topics", str(tmp_path / "topics.tsv"),
             "-k", "5", "--out", str(run_path)]
        ) == 0
        assert main(
            ["eval", "--run", str(run_path), "--qrels", str(tmp_path / "qrels.txt"), "--metric", "ndcg", "-k", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "ndcg@3" in out

    def test_index_from_older_tokenization_asks_for_a_rebuild(self, tmp_path, capsys):
        write_tiny_project(tmp_path)
        index_path = tmp_path / "idx.rpidx"
        assert main(["index", "build", "--corpus", str(tmp_path / "corpus.jsonl"), "--out", str(index_path)]) == 0
        current = index_path.read_bytes()
        for magic in (b"RPIDX001", b"RPIDX002", b"RPIDX003", b"RPIDX004"):
            index_path.write_bytes(magic + current[8:])
            assert main(
                ["retrieve", "bm25", "--index", str(index_path), "--topics", str(tmp_path / "topics.tsv"),
                 "--out", str(tmp_path / "bm25.trec")]
            ) == 2
            err = capsys.readouterr().err
            assert str(index_path) in err and "rebuild it with `rankpipe index build`" in err
            assert not (tmp_path / "bm25.trec").exists()

    def test_a_tag_flag_is_the_tag_of_every_line_of_the_run(self, tmp_path, capsys):
        write_tiny_project(tmp_path)
        index, bm25, dense = tmp_path / "idx.rpidx", tmp_path / "bm25.trec", tmp_path / "dense.trec"
        assert main(["index", "build", "--corpus", str(tmp_path / "corpus.jsonl"), "--out", str(index)]) == 0
        assert main(["retrieve", "bm25", "--index", str(index), "--topics", str(tmp_path / "topics.tsv"),
                     "--tag", "t1", "--out", str(bm25)]) == 0
        assert main(["retrieve", "dense", "--queries", str(tmp_path / "queries.vec.tsv"),
                     "--docs", str(tmp_path / "docs.vec.tsv"), "--tag", "t2", "--out", str(dense)]) == 0
        for path, tag in ((bm25, "t1"), (dense, "t2")):
            lines = path.read_text(encoding="utf-8").splitlines()
            assert lines and [line.split()[5] for line in lines] == [tag] * len(lines)
            assert read_run(str(path)).tag == tag
        capsys.readouterr()
        assert main(["validate", str(bm25), str(dense)]) == 0
        assert capsys.readouterr().out == "2 file(s) clean\n"

    def test_a_docid_that_begins_with_a_comment_mark_is_a_data_error_at_its_line(self, tmp_path, capsys):
        # "#d1" would begin a comment line in a doc-vector file; a "#" inside an id, as in
        # MIRACL's article#passage docids, is not at a line's start in any file
        corpus, index = tmp_path / "corpus.jsonl", tmp_path / "idx.rpidx"
        docs = [{"docid": "#d1", "title": "", "text": "a"}, {"docid": "12#0", "title": "", "text": "a"}]
        corpus.write_text("".join(json.dumps(doc) + "\n" for doc in docs), encoding="utf-8")
        assert main(["index", "build", "--corpus", str(corpus), "--out", str(index)]) == 2
        assert f"{corpus}:1: docid '#d1'" in capsys.readouterr().err
        assert not index.exists()
        assert main(["validate", str(corpus)]) == 2
        assert capsys.readouterr().out.splitlines()[0] == (
            f"{corpus}:1: [corpus.docid] docid '#d1' is empty or contains whitespace, or begins with '#'")
        corpus.write_text(json.dumps(docs[1]) + "\n", encoding="utf-8")
        assert main(["validate", str(corpus)]) == 0
        assert main(["index", "build", "--corpus", str(corpus), "--out", str(index)]) == 0
        assert sparse.load_index(str(index)).docids == ["12#0"]

    def test_retrieve_dense_top_k_is_a_prefix_of_the_whole_ranking(self, tmp_path, capsys):
        # q2 reverses q1's order, so each NUL sibling pair is cut between its two ids once
        queries = write_vectors(tmp_path / "q.vec.tsv", [("q1", [1.0]), ("q2", [-1.0])])
        docs = write_vectors(tmp_path / "d.vec.tsv", [(docid, [value]) for docid, value in NUL_SIBLINGS])
        n, runs = len(NUL_SIBLINGS), []
        for k in range(1, n + 1):
            runs.append(str(tmp_path / f"dense.{k}.trec"))
            argv = ["retrieve", "dense", "--queries", queries, "--docs", docs, "-k", str(k), "--out", runs[-1]]
            assert main(argv) == 0
        lines = [Path(run).read_text(encoding="utf-8").splitlines() for run in runs]
        for qid in ("q1", "q2"):
            whole = [line for line in lines[-1] if line.split()[0] == qid]
            assert len(whole) == n
            for k in range(1, n):
                assert [line for line in lines[k - 1] if line.split()[0] == qid] == whole[:k], (qid, k)
        capsys.readouterr()
        assert main(["validate", queries, docs, *runs]) == 0, capsys.readouterr().out

    def test_retrieve_dense_and_fuse(self, tmp_path):
        write_tiny_project(tmp_path)
        dense_path = tmp_path / "dense.trec"
        assert main(
            ["retrieve", "dense", "--queries", str(tmp_path / "queries.vec.tsv"),
             "--docs", str(tmp_path / "docs.vec.tsv"), "--metric", "dot", "-k", "6",
             "--out", str(dense_path)]
        ) == 0
        index_path = tmp_path / "idx.rpidx"
        bm25_path = tmp_path / "bm25.trec"
        main(["index", "build", "--corpus", str(tmp_path / "corpus.jsonl"), "--out", str(index_path)])
        main(["retrieve", "bm25", "--index", str(index_path), "--topics", str(tmp_path / "topics.tsv"),
              "--out", str(bm25_path)])
        hybrid_path = tmp_path / "hybrid.trec"
        assert main(
            ["fuse", "--runs", str(bm25_path), str(dense_path), "--weights", "0.5,0.5",
             "--normalize", "minmax", "-k", "4", "--out", str(hybrid_path)]
        ) == 0
        hybrid = read_run(str(hybrid_path))
        assert hybrid.tag == "hybrid"
        assert set(hybrid.docids("q1")[:2]) == {"d1", "d2"}

    def test_forge_subcommands(self, tmp_path):
        write_tiny_project(tmp_path)
        pool_path = tmp_path / "pool.trec"
        pool_path.write_text(
            "q1 Q0 d1 1 3.0 hybrid\nq1 Q0 d2 2 2.0 hybrid\nq1 Q0 d5 3 1.0 hybrid\n"
        )
        out = tmp_path / "neg.pairs.tsv"
        assert main(
            ["forge", "negatives", "--pool", str(pool_path), "--qrels", str(tmp_path / "qrels.txt"),
             "--topics", str(tmp_path / "topics.tsv"), "-n", "2", "--seed", "5", "--out", str(out)]
        ) == 0
        assert out.read_text().count("negative") == 1  # d1, d2 are positives; only d5 eligible

        q2q_out = tmp_path / "q2q.pairs.tsv"
        assert main(
            ["forge", "q2q2d", "--test-topics", str(tmp_path / "topics.tsv"),
             "--train-topics", str(tmp_path / "topics.tsv"), "--train-qrels", str(tmp_path / "qrels.txt"),
             "--query-vectors", str(tmp_path / "queries.vec.tsv"), "--out", str(q2q_out)]
        ) == 0
        assert "q2q2d" in q2q_out.read_text()

        scored = tmp_path / "scored.trec"
        scored.write_text("q1 Q0 d1 1 0.9 model\nq1 Q0 d2 2 0.4 model\n")
        pseudo_out = tmp_path / "pseudo.pairs.tsv"
        assert main(
            ["forge", "pseudo", "--run", str(scored), "--topics", str(tmp_path / "topics.tsv"),
             "--fraction", "1.0", "--out", str(pseudo_out)]
        ) == 0
        lines = [l for l in pseudo_out.read_text().splitlines() if l]
        assert len(lines) == 2

    def test_forge_negatives_from_corpus_is_the_library_call(self, tmp_path):
        en = DESK / "en"
        corpus, qrels, topics = str(en / "corpus.jsonl"), str(en / "qrels.txt"), str(en / "topics.tsv")
        out, expected = tmp_path / "cli.pairs.tsv", tmp_path / "lib.pairs.tsv"
        assert main(["forge", "negatives", "--from-corpus", corpus, "--qrels", qrels, "--topics", topics,
                     "-n", "5", "--seed", "1", "--out", str(out)]) == 0
        judged = load_qrels(qrels)
        universes = dict.fromkeys(judged, [doc.docid for doc in load_corpus(corpus)])
        forge.write_pairs(forge.sample_negatives(universes, judged, 5, 1, load_topics(topics)), str(expected))
        assert out.read_bytes() == expected.read_bytes()
        pairs = forge.read_pairs(str(out))
        assert len(pairs) == 5 * len(judged)
        assert all(judged[p.qid].get(p.docid, 0) == 0 for p in pairs)

    def test_eval_per_query_out_lists_each_query_by_qid(self, tmp_path, capsys):
        from rankpipe import metrics

        run_path, qrels_path, out = tmp_path / "r.trec", tmp_path / "q.qrels", tmp_path / "eval.tsv"
        run_path.write_text("q2 Q0 d1 1 2.0 t\nq2 Q0 d2 2 1.0 t\nq10 Q0 d3 1 1.0 t\nq1 Q0 d2 1 3.0 t\n"
                            "q1 Q0 d1 2 2.0 t\nq1 Q0 d3 3 1.0 t\n", encoding="utf-8")
        qrels_path.write_text("q1 Q0 d1 1\nq1 Q0 d3 2\nq2 Q0 d2 1\nq10 Q0 d3 1\n", encoding="utf-8")
        assert main(["eval", "--run", str(run_path), "--qrels", str(qrels_path), "--metric", "ndcg", "-k", "3",
                     "--per-query", "--out", str(out)]) == 0
        report = metrics.ndcg_at_k(read_run(str(run_path)), load_qrels(str(qrels_path)), 3)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines == [f"ndcg@3\t{report.mean!r}", "evaluated_queries\t3", "skipped_queries\t0",
                         *(f"{qid}\t{report.per_query[qid]!r}" for qid in ("q1", "q10", "q2"))]
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")

    def test_rerank_and_ensemble(self, tmp_path):
        write_tiny_project(tmp_path)
        pool_path = tmp_path / "pool.trec"
        pool_path.write_text(
            "q1 Q0 d1 1 3.0 hybrid\nq1 Q0 d2 2 2.0 hybrid\n"
            "q2 Q0 d3 1 3.0 hybrid\nq2 Q0 d4 2 2.0 hybrid\n"
        )
        rerank_path = tmp_path / "rerank.trec"
        assert main(
            ["rerank", "--pool", str(pool_path), "--topics", str(tmp_path / "topics.tsv"),
             "--corpus", str(tmp_path / "corpus.jsonl"), "--scorer", "lexical", "--out", str(rerank_path)]
        ) == 0
        run = read_run(str(rerank_path))
        assert run.scores("q1")["d1"] == 1.0
        assert run.scores("q1")["d2"] == 0.0

        other = tmp_path / "other.trec"
        other.write_text(
            "q1 Q0 d1 1 0.9 x\nq1 Q0 d2 2 0.2 x\nq2 Q0 d3 1 0.8 x\nq2 Q0 d4 2 0.1 x\n"
        )
        ens_path = tmp_path / "ens.trec"
        assert main(
            ["ensemble", "--runs", str(rerank_path), str(other), "--base-weights", "0.802,0.730",
             "--lambda", "0.5", "--out", str(ens_path)]
        ) == 0
        assert read_run(str(ens_path)).tag == "ensemble"

    def test_stats_output(self, tmp_path, capsys):
        write_tiny_project(tmp_path)
        (tmp_path / "dev.tsv").write_text("q9\tquasar\n", encoding="utf-8")
        (tmp_path / "dev.qrels").write_text("q9 Q0 d3 1\nq9 Q0 d6 0\nq9 Q0 d7 2\n", encoding="utf-8")
        assert main(
            ["stats", "--corpus", str(tmp_path / "corpus.jsonl"), "--language", "xx",
             "--topics", f"train={tmp_path / 'topics.tsv'}", "--qrels", f"train={tmp_path / 'qrels.txt'}",
             "--topics", f"dev={tmp_path / 'dev.tsv'}", "--qrels", f"dev={tmp_path / 'dev.qrels'}"]
        ) == 0
        assert capsys.readouterr().out == (
            "language\tdev.queries\tdev.judgments\ttrain.queries\ttrain.judgments\tpassages\n"
            "xx\t1\t3\t2\t4\t6\n"
        )


class TestParserSurface:
    # every parser with its own --help, as in tests/data/cli_help.txt
    COMMANDS = ["", "index", "index build", "retrieve", "retrieve bm25", "retrieve dense", "fuse", "forge",
                "forge negatives", "forge q2q2d", "forge pseudo", "rerank", "ensemble", "eval", "stats",
                "validate", "pipeline"]

    def test_every_help_text_is_the_recorded_one(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help at the terminal width
        texts = []
        for command in self.COMMANDS:
            argv = [*command.split(), "--help"]
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0, command
            texts.append(f"$ {' '.join(['rankpipe', *argv])}\n{capsys.readouterr().out}")
        assert "".join(texts) == (DESK.parent / "cli_help.txt").read_text(encoding="utf-8")

    def test_left_out_flags_take_the_library_defaults(self, tmp_path):
        en = DESK / "en"
        corpus, topics, qrels = str(en / "corpus.jsonl"), str(en / "topics.tsv"), str(en / "qrels.txt")
        vectors = str(en / "queries.vec.tsv")
        cli, lib = tmp_path / "cli", tmp_path / "lib"
        cli.mkdir()
        lib.mkdir()

        def call(*argv, out: str) -> str:
            assert main([*map(str, argv), "--out", str(cli / out)]) == 0
            return str(cli / out)

        call("index", "build", "--corpus", corpus, out="idx.rpidx")
        sparse.save_index(sparse.build_index(load_corpus(corpus)), str(lib / "idx.rpidx"))
        pool = call("retrieve", "bm25", "--index", cli / "idx.rpidx", "--topics", topics, out="bm25.trec")
        write_run(sparse.retrieve_bm25(sparse.load_index(str(lib / "idx.rpidx")), topics), str(lib / "bm25.trec"))
        call("retrieve", "dense", "--queries", vectors, "--docs", en / "docs.vec.tsv", out="dense.trec")
        write_run(dense.retrieve_dense(vectors, str(en / "docs.vec.tsv")), str(lib / "dense.trec"))
        call("forge", "negatives", "--pool", pool, "--qrels", qrels, "-n", 3, out="neg.pairs.tsv")
        cut = cut_pool(read_run(pool))
        negatives = forge.sample_negatives({q: cut.docids(q) for q in cut.entries}, load_qrels(qrels), 3, 0)
        forge.write_pairs(negatives, str(lib / "neg.pairs.tsv"))
        call("forge", "q2q2d", "--test-topics", topics, "--train-topics", topics, "--train-qrels", qrels,
             "--query-vectors", vectors, out="q2q2d.pairs.tsv")
        pairs = forge.q2q2d_augment(load_topics(topics), load_topics(topics), load_qrels(qrels),
                                    dense.load_embeddings(vectors), forge.AugmentationParams())
        forge.write_pairs(pairs, str(lib / "q2q2d.pairs.tsv"))
        reranked = call("rerank", "--pool", pool, "--topics", topics, "--corpus", corpus, out="rerank.trec")
        write_run(rerank_pool(read_run(pool), topics, corpus), str(lib / "rerank.trec"))
        call("forge", "pseudo", "--run", reranked, out="pseudo.pairs.tsv")
        pairs = forge.pseudo_label(read_run(reranked), None, forge.AugmentationParams())
        forge.write_pairs(pairs, str(lib / "pseudo.pairs.tsv"))
        call("ensemble", "--runs", reranked, pool, "--base-weights", "0.6,0.4", out="ens.trec")
        runs = [read_run(reranked), read_run(pool)]
        weights = ensemble.adjust_weights(ensemble.EnsembleConfig([0.6, 0.4]), ensemble.correlation_matrix(runs))
        write_run(ensemble.ensemble_runs(runs, weights), str(lib / "ens.trec"))
        assert len(tree_digest(cli)) == 8
        assert tree_digest(cli) == tree_digest(lib)


class TestValidateCommand:
    def test_clean_files_exit_zero(self, tmp_path):
        write_tiny_project(tmp_path)
        run_path = tmp_path / "ok.trec"
        run_path.write_text("q1 Q0 d1 1 2.0 t\nq1 Q0 d2 2 1.0 t\n")
        assert main(["validate", str(run_path), str(tmp_path / "qrels.txt"), str(tmp_path / "corpus.jsonl")]) == 0

    def test_duplicate_run_pair_reported(self, tmp_path, capsys):
        path = tmp_path / "dup.trec"
        path.write_text("q1 Q0 d1 1 2.0 t\nq1 Q0 d1 2 1.0 t\n")
        assert main(["validate", str(path)]) == 2
        assert "run.duplicate" in capsys.readouterr().out

    def test_negative_grade_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.qrels"
        path.write_text("q1 Q0 d1 -2\n")
        assert main(["validate", str(path)]) == 2
        assert "qrels.grade" in capsys.readouterr().out

    def test_unknown_kind_needs_flag(self, tmp_path, capsys):
        path = tmp_path / "mystery.bin"
        path.write_text("x")
        assert main(["validate", str(path)]) == 2
        assert "kind" in capsys.readouterr().out


class TestCyclicCollector:
    """A call runs with the cyclic collector paused and leaves it as it found it."""

    @pytest.fixture(params=[True, False], ids=["caller-enabled", "caller-disabled"])
    def caller_state(self, request):
        before = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if before else gc.disable)()

    def test_successful_call(self, tmp_path, monkeypatch, caller_state):
        seen = []

        def validate_artifacts(paths, **kwargs):
            seen.append(gc.isenabled())
            return []

        monkeypatch.setattr(cli, "validate_artifacts", validate_artifacts)
        assert main(["validate", str(tmp_path / "r.trec")]) == 0
        assert seen == [False]
        assert gc.isenabled() is caller_state

    def test_data_error(self, tmp_path, caller_state):
        assert main(["eval", "--run", str(tmp_path / "missing.trec"), "--qrels", str(tmp_path / "q.txt")]) == 2
        assert gc.isenabled() is caller_state

    def test_usage_error(self, caller_state):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--no-such-flag"])
        assert exc.value.code == 1
        assert gc.isenabled() is caller_state


class TestExitCodes:
    def test_usage_error_is_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["index", "build", "--corpus-missing-flag"])
        assert exc.value.code == 1

    def test_data_error_is_two(self, tmp_path):
        assert main(["eval", "--run", str(tmp_path / "missing.trec"), "--qrels", str(tmp_path / "missing.txt")]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["retrieve", "bm25", "--index", "i.rpidx", "--topics", "t.tsv"],
            ["retrieve", "dense", "--queries", "q.vec.tsv", "--docs", "d.vec.tsv"],
        ],
    )
    def test_tag_with_whitespace_is_a_usage_error(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tag", "my run", "--out", str(tmp_path / "r.trec")])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--k1", "nan"], "k1 must be finite and > 0"),
            (["--k1", "inf"], "k1 must be finite and > 0"),
            (["--k1", "-1"], "k1 must be finite and > 0"),
            (["--b", "nan"], "b must be in [0, 1]"),
        ],
        ids=["k1-nan", "k1-inf", "k1-negative", "b-nan"],
    )
    def test_bm25_parameter_out_of_range_is_a_usage_error_before_any_read(self, tmp_path, capsys, flags, message):
        # no index exists: a read would be a data error, exit 2
        out = tmp_path / "r.trec"
        argv = ["retrieve", "bm25", "--index", str(tmp_path / "i.rpidx"), "--topics", str(tmp_path / "t.tsv"), *flags]
        assert main(argv + ["--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["fuse", "--weights", "inf,1"], "inf"),
            (["fuse", "--weights", "0.5,nan"], "nan"),
            (["ensemble", "--base-weights", "inf,1"], "inf"),
            (["ensemble", "--base-weights", "nan,1"], "nan"),
        ],
    )
    def test_non_finite_weight_is_a_usage_error_naming_it(self, tmp_path, capsys, argv, bad):
        assert exit_code(argv + ["--runs", "a.trec", "b.trec", "--out", str(tmp_path / "o.trec")]) == 1
        assert f"weight '{bad}' is not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["fuse", "--weights=-1,2"], "[-1.0, 2.0]"),
            (["fuse", "--weights=0,0"], "[0.0, 0.0]"),
            (["ensemble", "--base-weights=0,0"], "[0.0, 0.0]"),
            (["fuse", "--weights=1e308,1e308"], "[1e+308, 1e+308]"),
        ],
    )
    def test_weights_breaking_the_rule_are_a_usage_error_naming_them(self, tmp_path, capsys, argv, named):
        assert exit_code(argv + ["--runs", "a.trec", "b.trec", "--out", str(tmp_path / "o.trec")]) == 1
        assert f"weights {named} must be finite and >= 0 with a positive sum" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "n_runs, base_weights, message",
        [
            (1, "0.5,0.5", "2 base weights for 1 runs"),
            (1, "0.5,0.5,7", "3 base weights for 1 runs"),
            (2, "1e308,1e308", "weights [1e+308, 1e+308] must be finite and >= 0 with a positive sum inside"),
        ],
    )
    def test_base_weights_that_cannot_weigh_the_runs_are_a_usage_error(
        self, tmp_path, capsys, n_runs, base_weights, message
    ):
        run = tmp_path / "a.trec"
        run.write_text("q1 Q0 d1 1 1.0 a\nq1 Q0 d2 2 0.5 a\n")
        out = tmp_path / "o.trec"
        argv = ["ensemble", "--runs", *[str(run)] * n_runs, "--base-weights", base_weights, "--out", str(out)]
        assert exit_code(argv) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "second_run, flags, message",
        [
            ("b.trec", ["--base-weights", "1"], "1 base weights for 2 runs"),
            ("missing.trec", ["--base-weights", "0.5,0.5", "--lambda", "2"], "lambda must be in [0, 1]"),
            ("missing.trec", ["--base-weights", "1e308,1e308"], "with a positive sum inside the float range"),
        ],
    )
    def test_ensemble_reports_a_usage_error_before_reading_any_run(
        self, tmp_path, capsys, second_run, flags, message
    ):
        # a.trec and b.trec share no query, and missing.trec does not exist: both data errors
        (tmp_path / "a.trec").write_text("q1 Q0 d1 1 1.0 a\nq1 Q0 d2 2 0.5 a\n")
        (tmp_path / "b.trec").write_text("q2 Q0 d1 1 1.0 b\nq2 Q0 d2 2 0.5 b\n")
        out = tmp_path / "o.trec"
        argv = ["ensemble", "--runs", str(tmp_path / "a.trec"), str(tmp_path / second_run), *flags, "--out", str(out)]
        assert exit_code(argv) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fuse", "--runs", "TMP/nope1.trec", "TMP/nope2.trec", "--weights", "1"], "2 runs but 1 weights"),
            (["fuse", "--runs", "TMP/nope1.trec", "TMP/nope2.trec", "-k", "0"], "k must be >= 1"),
            (["retrieve", "bm25", "--index", "TMP/i.rpidx", "--topics", "TMP/empty.tsv", "-k", "0"], "k must be >= 1"),
            (["retrieve", "dense", "--queries", "TMP/nope.tsv", "--docs", "TMP/nope.tsv", "-k", "0"], "k must be >= 1"),
            (["rerank", "--pool", "TMP/empty.trec", "--topics", "DESK/topics.tsv", "--corpus", "DESK/corpus.jsonl",
              "--budget", "0"], "budget must be >= 1"),
            (["forge", "pseudo", "--run", "TMP/low.trec", "--scale", "2"], "pseudo_scale must be in (0, 1]"),
            (["forge", "pseudo", "--run", "TMP/low.trec", "--scale", "-0.0"], "pseudo_scale must be in (0, 1]"),
            (["forge", "pseudo", "--run", "TMP/empty.trec", "--scale", "5"], "pseudo_scale must be in (0, 1]"),
            (["forge", "negatives", "--from-corpus", "DESK/corpus.jsonl", "--qrels", "DESK/qrels.txt", "-n", "2",
              "--pool-k", "0"], "--pool-k"),
            (["retrieve", "bm25", "--index", "TMP/nope.rpidx", "--topics", "DESK/topics.tsv", "-k", "0"],
             "k must be >= 1"),
            (["rerank", "--pool", "TMP/nope.trec", "--topics", "DESK/topics.tsv", "--corpus", "DESK/corpus.jsonl",
              "--budget", "0"], "budget must be >= 1"),
            (["rerank", "--pool", "TMP/nope.trec", "--topics", "DESK/topics.tsv", "--corpus", "DESK/corpus.jsonl",
              "--pool-k", "0"], "k must be >= 1"),
            (["eval", "--run", "TMP/nope.trec", "--qrels", "DESK/qrels.txt", "-k", "0"], "k must be >= 1"),
            (["eval", "--run", "TMP/nope.trec", "--qrels", "DESK/qrels.txt", "--metric", "recall", "-k", "-1"],
             "k must be >= 0"),
            (["forge", "negatives", "--pool", "TMP/nope.trec", "--qrels", "DESK/qrels.txt", "-n", "-1"],
             "n must be >= 0"),
            (["forge", "negatives", "--pool", "TMP/nope.trec", "--qrels", "DESK/qrels.txt", "-n", "2",
              "--pool-k", "0"], "k must be >= 1"),
            (["forge", "negatives", "--from-corpus", "TMP/nope.jsonl", "--qrels", "DESK/qrels.txt", "-n", "-1"],
             "n must be >= 0"),
        ],
        ids=["fuse-weight-count", "fuse-k-0", "bm25-k-0", "dense-k-0", "rerank-budget-0", "pseudo-scale-2",
             "pseudo-scale-minus-0", "pseudo-scale-5", "negatives-corpus-pool-k", "bm25-k-0-missing-index",
             "rerank-budget-0-missing-pool", "rerank-pool-k-0-missing-pool", "eval-ndcg-k-0-missing-run",
             "eval-recall-k-minus-1-missing-run", "negatives-n-minus-1-missing-pool",
             "negatives-pool-k-0-missing-pool", "negatives-n-minus-1-missing-corpus"],
    )
    def test_bad_flag_is_a_usage_error_that_its_input_cannot_hide(self, tmp_path, capsys, argv, message):
        # a missing input would be a data error, exit 2; an empty topics file, pool or run
        # gives a value nothing to be checked on
        sparse.index_corpus(str(DESK / "en" / "corpus.jsonl"), str(tmp_path / "i.rpidx"))
        (tmp_path / "empty.tsv").write_text("")
        (tmp_path / "empty.trec").write_text("")
        (tmp_path / "low.trec").write_text("q1 Q0 d1 1 0.1 x\nq1 Q0 d2 2 0.05 x\n")
        out = tmp_path / "o.out"
        argv = [arg.replace("TMP", str(tmp_path)).replace("DESK", str(DESK / "en")) for arg in argv]
        assert exit_code([*argv, "--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_pseudo_score_outside_the_unit_interval_exits_2_at_its_line(self, tmp_path, capsys):
        run, out = tmp_path / "scored.trec", tmp_path / "p.pairs.tsv"
        run.write_text("q1 Q0 d1 1 0.9 model\nq1 Q0 d2 2 1.5 model\n")
        assert main(["forge", "pseudo", "--run", str(run), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {run}:2: score 1.5 for (q1, d2) outside [0, 1]\n"
        assert not out.exists()

    def test_one_run_ensembles_with_all_the_weight(self, tmp_path, capsys):
        run = tmp_path / "a.trec"
        run.write_text("q1 Q0 d1 1 1.0 a\nq1 Q0 d2 2 0.5 a\n")
        out = tmp_path / "o.trec"
        assert main(["ensemble", "--runs", str(run), "--base-weights", "0.3", "--out", str(out)]) == 0
        assert "weights: 1.0000" in capsys.readouterr().out
        assert read_run(str(out)).docids("q1") == ["d1", "d2"]

    @pytest.mark.parametrize("universe", [[], ["--pool", "p.trec", "--from-corpus", "c.jsonl"]])
    def test_negatives_take_exactly_one_of_pool_and_corpus(self, tmp_path, universe):
        with pytest.raises(SystemExit) as exc:
            main(["forge", "negatives", *universe, "--qrels", "q.txt", "-n", "2",
                  "--out", str(tmp_path / "n.pairs.tsv")])
        assert exc.value.code == 1

    def test_directory_as_input_is_a_data_error(self, tmp_path, capsys):
        write_tiny_project(tmp_path)
        assert main(["eval", "--run", str(tmp_path), "--qrels", str(tmp_path / "qrels.txt")]) == 2
        assert f"{tmp_path}'" in capsys.readouterr().err

    def test_path_through_a_file_is_a_data_error(self, tmp_path, capsys):
        write_tiny_project(tmp_path)
        run = tmp_path / "qrels.txt" / "run.trec"
        assert main(["eval", "--run", str(run), "--qrels", str(tmp_path / "qrels.txt")]) == 2
        assert str(run) in capsys.readouterr().err

    def test_unreadable_input_is_a_data_error(self, tmp_path, monkeypatch, capsys):
        write_tiny_project(tmp_path)
        run = tmp_path / "run.trec"
        run.write_text("q1 Q0 d1 1 0.9 t\n")
        run.chmod(0)
        if os.access(run, os.R_OK):  # a privileged user reads it anyway: deny it as the OS would
            real_open = open

            def denying_open(file, *args, **kwargs):
                if file == str(run):
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), file)
                return real_open(file, *args, **kwargs)

            monkeypatch.setattr(validate, "open", denying_open, raising=False)
        assert main(["eval", "--run", str(run), "--qrels", str(tmp_path / "qrels.txt")]) == 2
        assert str(run) in capsys.readouterr().err

    def test_unknown_scorer_spec_is_a_usage_error_naming_it(self, tmp_path, capsys):
        assert exit_code(["rerank", "--pool", "p.trec", "--topics", "t.tsv", "--corpus", "c.jsonl", "--scorer", "magic",
                          "--out", str(tmp_path / "r.trec")]) == 1
        assert "'magic'" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_score_file_that_cannot_be_opened_is_two_naming_it(self, tmp_path, capsys, where):
        write_tiny_project(tmp_path)
        pool_path = tmp_path / "pool.trec"
        pool_path.write_text("q1 Q0 d1 1 3.0 hybrid\n")
        scores = tmp_path / "no-such.tsv" if where == "missing" else tmp_path
        code = main(
            ["rerank", "--pool", str(pool_path), "--topics", str(tmp_path / "topics.tsv"),
             "--corpus", str(tmp_path / "corpus.jsonl"), "--scorer", f"file:{scores}",
             "--out", str(tmp_path / "r.trec")]
        )
        assert code == 2
        assert str(scores) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--topics", "dev"],
            ["--topics", "bogus=topics.tsv"],
            ["--qrels", "bogus=qrels.txt"],
            ["--topics", "dev=a.tsv", "--topics", "dev=b.tsv"],
            ["--qrels", "dev=a.txt", "--qrels", "dev=b.txt"],
        ],
        ids=["no-equals", "unknown-topics-split", "unknown-qrels-split", "topics-split-twice", "qrels-split-twice"],
    )
    def test_stats_split_flag_is_a_usage_error_before_any_read(self, tmp_path, flags):
        # no file exists: a read would be a data error, exit 2
        argv = ["stats", "--corpus", str(tmp_path / "corpus.jsonl"), *flags]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 1

    def test_protocol_error_is_three(self, tmp_path):
        write_tiny_project(tmp_path)
        pool_path = tmp_path / "pool.trec"
        pool_path.write_text("q1 Q0 d1 1 3.0 hybrid\n")
        code = main(
            ["rerank", "--pool", str(pool_path), "--topics", str(tmp_path / "topics.tsv"),
             "--corpus", str(tmp_path / "corpus.jsonl"), "--scorer", "cmd:/no/such/binary",
             "--out", str(tmp_path / "r.trec")]
        )
        assert code == 3


class TestConfig:
    def test_bad_schema_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("schema = other-1\nseed = 1\nlanguages = xx\nstages = index\noutput_dir = out\n")
        with pytest.raises(DataError, match="schema"):
            load_config(str(cfg))

    def test_unknown_stage_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("schema = rankpipe-exp-1\nseed = 1\nlanguages = xx\nstages = warp\noutput_dir = out\n")
        with pytest.raises(DataError, match="warp"):
            load_config(str(cfg))

    def test_missing_required_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("schema = rankpipe-exp-1\nseed = 1\nlanguages = xx\nstages = index\n")
        with pytest.raises(DataError, match="output_dir"):
            load_config(str(cfg))

    @pytest.mark.parametrize(
        "line",
        [
            "pool.k = fifty",
            "fuse.weights = 0.5,x",
            "fuse.weights = 0.5",
            "fuse.weights = nan,1",
            "dense.metric = l2",
            "rerank.scorer = oracle",
            "seed = x",
            "stages = index,bm26",
            "schema = rankpipe-exp-0",
            "languages = ,",
            "eval.targets = bm25,hybird",
        ],
    )
    def test_value_that_does_not_parse_is_a_data_error_at_its_line(self, tmp_path, capsys, line):
        cfg_path = write_tiny_project(tmp_path)
        key = line.split()[0]
        kept = [old for old in cfg_path.read_text(encoding="utf-8").splitlines(keepends=True) if old.split()[0] != key]
        cfg_path.write_text("".join(kept) + line + "\n", encoding="utf-8")
        assert main(["pipeline", "--config", str(cfg_path)]) == 2
        assert f"{cfg_path}:{len(kept) + 1}: bad value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line", ["retreive.k = 5", "pool.kk = 3", "script_policy = auto", "script_policy = klingon",
                 "script_policy = unigram"],
    )
    def test_unknown_key_is_a_data_error_at_its_line(self, tmp_path, capsys, line):
        cfg_path = write_tiny_project(tmp_path)
        lines = cfg_path.read_text(encoding="utf-8").splitlines(keepends=True)
        cfg_path.write_text("".join(lines) + line + "\n", encoding="utf-8")
        assert main(["pipeline", "--config", str(cfg_path)]) == 2
        key = line.split()[0]
        assert f"{cfg_path}:{len(lines) + 1}: unknown key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", ["topics.fr = nowhere.tsv", "corpus.yy = corpus.jsonl"])
    def test_input_key_for_an_unlisted_language_is_a_data_error_at_its_line(self, tmp_path, capsys, line):
        cfg_path = write_tiny_project(tmp_path)  # languages = xx
        lines = cfg_path.read_text(encoding="utf-8").splitlines(keepends=True)
        cfg_path.write_text("".join(lines) + line + "\n", encoding="utf-8")
        assert main(["pipeline", "--config", str(cfg_path)]) == 2
        key = line.split()[0]
        assert (f"{cfg_path}:{len(lines) + 1}: input key {key!r} is for a language that 'languages' does not list"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_get_refuses_a_key_outside_the_known_keys(self, tmp_path):
        config = load_config(str(write_tiny_project(tmp_path)))
        with pytest.raises(KeyError, match="retreive.k"):
            config.get("retreive.k")

    def test_every_config_in_use_loads(self, tmp_path, monkeypatch):
        load_config(str(DESK / "desk.cfg"))
        load_config(str(write_tiny_project(tmp_path)))
        # the keys the benchmark's configs set: its own writer, given every value key its workloads pass
        perfbench = Path(__file__).resolve().parent.parent / "perfbench"
        calls = [node for node in ast.walk(ast.parse((perfbench / "run.py").read_text(encoding="utf-8")))
                 if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_write_config"]
        values = {key.value: "1" for call in calls for kw in call.keywords if kw.arg is None for key in kw.value.keys}
        assert values
        monkeypatch.syspath_prepend(str(perfbench))  # run.py imports its sibling modules
        spec = importlib.util.spec_from_file_location("perfbench_run", perfbench / "run.py")
        run = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look their module up there
        spec.loader.exec_module(run)
        files = SimpleNamespace(corpus="corpus.jsonl", topics="topics.tsv", qrels="qrels.txt",
                                query_vectors="queries.vec.tsv", doc_vectors="docs.vec.tsv")
        cfg = tmp_path / "bench.cfg"
        run._write_config(cfg, 1, SimpleNamespace(files={"xx": files}), ",".join(STAGES), **values)
        assert set(load_config(str(cfg)).values) >= set(values)

    @pytest.mark.parametrize(
        "line",
        [
            "pool.k = 0",
            "retrieve.k = 0",
            "eval.k = 0",
            "eval.recall_k = -3",
            "bm25.k1 = -1",
            "bm25.k1 = nan",
            "bm25.k1 = inf",
            "bm25.b = 2",
            "rerank.budget = 0",
        ],
    )
    def test_value_out_of_range_is_a_data_error_at_its_line(self, tmp_path, capsys, line):
        cfg_path = write_tiny_project(tmp_path)
        key = line.split()[0]
        kept = [old for old in cfg_path.read_text(encoding="utf-8").splitlines(keepends=True) if old.split()[0] != key]
        cfg_path.write_text("".join(kept) + line + "\n", encoding="utf-8")
        assert main(["pipeline", "--config", str(cfg_path)]) == 2
        assert f"{cfg_path}:{len(kept) + 1}: bad value" in capsys.readouterr().err

    def test_repeated_language_is_a_data_error_at_its_line(self, tmp_path, capsys):
        cfg_path = write_tiny_project(tmp_path)
        lines = cfg_path.read_text(encoding="utf-8").splitlines(keepends=True)
        lineno = next(i for i, line in enumerate(lines, 1) if line.split()[0] == "languages")
        lines[lineno - 1] = "languages = xx, yy,xx\n"
        cfg_path.write_text("".join(lines), encoding="utf-8")
        assert main(["pipeline", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert (f"{cfg_path}:{lineno}: bad value 'xx, yy,xx' for 'languages': "
                "expected one or more languages, each named once") in err
        assert not (tmp_path / "out").exists()

    def test_paths_resolve_relative_to_config(self, tmp_path):
        cfg_path = write_tiny_project(tmp_path)
        config = load_config(str(cfg_path))
        assert config.lang_path("corpus", "xx") == tmp_path / "corpus.jsonl"


# inputs that do not exist, so that a CLI call whose values all pass exits 2 on its first read
_MISSING = str(DESK / "no-such-dir" / "missing")
_BM25 = ["retrieve", "bm25", "--index", _MISSING, "--topics", _MISSING, "--out", _MISSING]
_DENSE = ["retrieve", "dense", "--queries", _MISSING, "--docs", _MISSING, "--out", _MISSING]
_RERANK = ["rerank", "--pool", _MISSING, "--topics", _MISSING, "--corpus", _MISSING, "--out", _MISSING]
_EVAL = ["eval", "--run", _MISSING, "--qrels", _MISSING]
# each value key and the CLI calls that take the same value, the drawn string going where {} stands
_SHARED = [
    ("retrieve.k", _BM25 + ["-k={}"]),
    ("retrieve.k", _DENSE + ["-k={}"]),
    ("pool.k", _RERANK + ["--pool-k={}"]),
    ("rerank.budget", _RERANK + ["--budget={}"]),
    ("eval.k", _EVAL + ["--metric", "ndcg", "-k={}"]),
    ("eval.recall_k", _EVAL + ["--metric", "recall", "-k={}"]),
    ("bm25.k1", _BM25 + ["--k1={}"]),
    ("bm25.b", _BM25 + ["--b={}"]),
    ("fuse.weights", ["fuse", "--runs", _MISSING, _MISSING, "--out", _MISSING, "--weights={}"]),
    ("dense.metric", _DENSE + ["--metric={}"]),
    ("rerank.scorer", _RERANK + ["--scorer={}"]),
]
_NUMBER = st.one_of(
    st.integers(-3, 3).map(str),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e309", "-1e309", "1e308", "1_0", "0x10", "1.0", "1e3", "+2",
                     "\u0663", ""]),
)
_WORD = st.sampled_from(["dot", "cosine", "l2", "lexical", "cmd:python3 s.py", "cmd:", "magic", "file"])
_ATOM = _NUMBER | _WORD | st.text(max_size=6)
# what a config line can hold as a value: the reader strips it and ends the line at a newline
_RAW = (_ATOM | st.lists(_ATOM, min_size=1, max_size=3).map(",".join)).filter(
    lambda raw: raw == raw.strip() and "\n" not in raw and not raw.startswith("file:")
)


class TestOneRulePerValue:
    """A value that a config key and a CLI flag share passes one rule: the library's."""

    @settings(max_examples=300, deadline=None)
    @given(shared=st.sampled_from(_SHARED), raw=_RAW)
    def test_the_config_accepts_a_value_exactly_when_the_cli_does(self, shared, raw):
        key, argv = shared
        assert not Path(_MISSING).parent.exists()
        structural = {"schema": "rankpipe-exp-1", "seed": "1", "languages": "xx", "stages": "eval", "output_dir": "o"}
        config = ExperimentConfig(DESK, {**structural, key: raw})
        try:
            _KEYS[key](config, key)
            accepted = True
        except FormatError:
            accepted = False
        # exit 1 is a usage error reported before any read; exit 2 is the first missing input
        assert exit_code([arg.replace("{}", raw) for arg in argv]) == (2 if accepted else 1)


class TestPipeline:
    def test_full_run_and_metrics(self, tmp_path, capsys):
        cfg_path = write_tiny_project(tmp_path)
        assert main(["pipeline", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "hybrid" in out
        lang_dir = tmp_path / "out" / "xx"
        for name in ("index.rpidx", "bm25.trec", "dense.trec", "hybrid.trec", "pool.trec",
                     "rerank.trec", "metrics.tsv"):
            assert (lang_dir / name).exists()
        assert (tmp_path / "out" / "summary.tsv").exists()
        # both relevants (one lexical, one dense) must surface in the hybrid pool
        reports = read_run(str(lang_dir / "pool.trec"))
        assert {"d1", "d2"} <= set(reports.docids("q1"))

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path = write_tiny_project(tmp_path)
        config = load_config(str(cfg_path))
        run_pipeline(config)
        first = tree_digest(tmp_path / "out")
        run_pipeline(load_config(str(cfg_path)))
        assert tree_digest(tmp_path / "out") == first

    @pytest.mark.parametrize(
        "stage, upstream",
        [("bm25", "index"), ("fuse", "bm25"), ("pool", "fuse"), ("rerank", "pool"), ("eval", "rerank")],
        ids=["bm25", "fuse", "pool", "rerank", "eval"],
    )
    def test_missing_upstream_names_stage(self, tmp_path, stage, upstream):
        cfg_path = write_tiny_project(tmp_path)
        text = cfg_path.read_text().replace(
            "stages = index,bm25,dense,fuse,pool,rerank,eval", f"stages = {stage}\neval.targets = rerank"
        )
        cfg_path.write_text(text)
        with pytest.raises(DataError, match=f"; run stage '{upstream}' first"):
            run_pipeline(load_config(str(cfg_path)))
        assert [p for p in (tmp_path / "out").rglob("*") if p.is_file()] == []

    def test_docid_with_whitespace_is_blamed_on_the_corpus(self, tmp_path, capsys):
        desk = tmp_path / "desk"
        shutil.copytree(DESK, desk, ignore=shutil.ignore_patterns("out"))
        corpus = desk / "en" / "corpus.jsonl"
        corpus.write_text(corpus.read_text(encoding="utf-8").replace('"en-dl0"', '"en dl0"'), encoding="utf-8")
        assert main(["pipeline", "--config", str(desk / "desk.cfg")]) == 2
        assert f"{corpus}:1: docid 'en dl0'" in capsys.readouterr().err
        assert not (desk / "out" / "en" / "bm25.trec").exists()

    @pytest.mark.parametrize("weights", ["-1,2", "0,0"])
    def test_weights_breaking_the_rule_are_a_data_error_at_their_line(self, tmp_path, capsys, weights):
        desk = tmp_path / "desk"
        shutil.copytree(DESK, desk, ignore=shutil.ignore_patterns("out"))
        cfg = desk / "desk.cfg"
        lines = cfg.read_text(encoding="utf-8").splitlines(keepends=True)
        lineno = next(i for i, line in enumerate(lines, 1) if line.startswith("fuse.weights"))
        lines[lineno - 1] = f"fuse.weights = {weights}\n"
        cfg.write_text("".join(lines), encoding="utf-8")
        assert main(["pipeline", "--config", str(cfg)]) == 2
        assert f"{cfg}:{lineno}: bad value {weights!r} for 'fuse.weights'" in capsys.readouterr().err

    def test_partial_stages_then_eval(self, tmp_path):
        cfg_path = write_tiny_project(tmp_path)
        text = cfg_path.read_text().replace(
            "stages = index,bm25,dense,fuse,pool,rerank,eval", "stages = index,bm25,eval"
        )
        cfg_path.write_text(text)
        reports = run_pipeline(load_config(str(cfg_path)))
        assert ("bm25", "ndcg", 3) in reports["xx"]
        assert ("hybrid", "ndcg", 3) not in reports["xx"]

    def test_composed_pipeline_equals_stage_by_stage_cli(self, tmp_path):
        cfg_path = write_tiny_project(tmp_path)
        run_pipeline(load_config(str(cfg_path)))
        lang_dir = tmp_path / "out" / "xx"

        index_path = tmp_path / "manual.rpidx"
        bm25_path = tmp_path / "manual.bm25.trec"
        dense_path = tmp_path / "manual.dense.trec"
        pool_path = tmp_path / "manual.pool.trec"
        rerank_path = tmp_path / "manual.rerank.trec"
        assert main(["index", "build", "--corpus", str(tmp_path / "corpus.jsonl"), "--out", str(index_path)]) == 0
        assert main(["retrieve", "bm25", "--index", str(index_path), "--topics", str(tmp_path / "topics.tsv"),
                     "-k", "6", "--out", str(bm25_path)]) == 0
        assert main(["retrieve", "dense", "--queries", str(tmp_path / "queries.vec.tsv"),
                     "--docs", str(tmp_path / "docs.vec.tsv"), "-k", "6", "--out", str(dense_path)]) == 0
        assert main(["fuse", "--runs", str(bm25_path), str(dense_path), "--weights", "0.5,0.5",
                     "--normalize", "minmax", "-k", "4", "--out", str(pool_path)]) == 0
        assert main(["rerank", "--pool", str(lang_dir / "pool.trec"), "--topics", str(tmp_path / "topics.tsv"),
                     "--corpus", str(tmp_path / "corpus.jsonl"), "--pool-k", "4", "--out", str(rerank_path)]) == 0

        assert index_path.read_bytes() == (lang_dir / "index.rpidx").read_bytes()
        assert read_run(str(bm25_path)).entries == read_run(str(lang_dir / "bm25.trec")).entries
        assert read_run(str(dense_path)).entries == read_run(str(lang_dir / "dense.trec")).entries
        assert read_run(str(pool_path)).entries == read_run(str(lang_dir / "pool.trec")).entries
        assert read_run(str(rerank_path)).entries == read_run(str(lang_dir / "rerank.trec")).entries
