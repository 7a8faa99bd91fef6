"""Start-up cost: the package root imports its submodules on first use, a
CLI call imports only the modules its subcommand runs, and numpy only for
the subcommands and pipeline stages that compute with it."""
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rankpipe

ROOT = Path(__file__).resolve().parent.parent
DESK = ROOT / "tests" / "data" / "desk" / "en"

PUBLIC_NAMES = {
    "AugmentationParams", "Bm25Params", "DataError", "Document", "EmbeddingStore",
    "EnsembleConfig", "FormatError", "InvertedIndex", "MetricReport", "PairInput",
    "ProtocolError", "Run", "ScorerHandle", "StatsRow", "TrainingPair", "adjust_weights",
    "bm25_search", "build_index", "build_pairs", "correlation_matrix", "corpus_stats", "cut_pool",
    "dense_search", "detect_policy", "ensemble_runs", "fuse", "lexical_score", "load_corpus",
    "load_embeddings", "load_index", "load_qrels", "load_topics", "macro_average", "ndcg_at_k",
    "normalize_run", "pseudo_label", "q2q2d_augment", "read_pairs", "read_run", "recall_at_k",
    "sample_negatives", "save_index", "score_pairs", "tokenize", "write_pairs", "write_qrels",
    "write_run",
}


def test_all_lists_the_public_names():
    assert len(PUBLIC_NAMES) == 47
    assert set(rankpipe.__all__) == PUBLIC_NAMES


def test_each_public_name_is_its_submodule_object():
    for name in rankpipe.__all__:
        value = getattr(rankpipe, name)
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from rankpipe import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES


def _run_python(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=60)


def _importtime(args: list[str], cwd: Path) -> set[str]:
    """Modules a fresh interpreter imports while running ``args``."""
    result = _run_python(["-X", "importtime", *args], cwd)
    assert result.returncode == 0, result.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:")
    }


@pytest.fixture(scope="module")
def cli_imports(tmp_path_factory):
    """The modules one CLI call imports, as the ``rankpipe`` entry point makes
    it, beyond those a bare interpreter imports."""
    bare = _importtime(["-c", "pass"], tmp_path_factory.mktemp("bare"))
    entry_point = "import sys; from rankpipe.cli import main; sys.exit(main(sys.argv[1:]))"

    def imports(argv: list, cwd: Path) -> set[str]:
        return _importtime(["-c", entry_point, *map(str, argv)], cwd) - bare

    return imports


def test_package_root_imports_no_submodule(tmp_path):
    code = "import sys, rankpipe; print(sorted(m for m in sys.modules if m.startswith('rankpipe')))"
    result = _run_python(["-c", code], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "['rankpipe']"


def test_version_loads_no_stage_module(tmp_path, cli_imports):
    imported = cli_imports(["--version"], tmp_path)
    assert {m for m in imported if m.split(".")[0] == "rankpipe"} == {
        "rankpipe", "rankpipe.cli", "rankpipe.errors", "rankpipe.tokenization", "rankpipe.validate"
    }
    assert imported & {"dataclasses", "json", "logging"} == set()


# subcommands that neither index, search nor rerank
LIGHT = {"fuse", "eval", "stats", "validate"}


def test_cli_loads_numpy_only_where_a_subcommand_needs_it(tmp_path, cli_imports):
    calls = {
        "index build": ["index", "build", "--corpus", DESK / "corpus.jsonl", "--out", "idx.rpidx"],
        "retrieve bm25": ["retrieve", "bm25", "--index", "idx.rpidx", "--topics", DESK / "topics.tsv",
                          "-k", "20", "--out", "bm25.trec"],
        "fuse": ["fuse", "--runs", "bm25.trec", "bm25.trec", "-k", "10", "--out", "fused.trec"],
        "rerank lexical": ["rerank", "--pool", "fused.trec", "--topics", DESK / "topics.tsv",
                           "--corpus", DESK / "corpus.jsonl", "--out", "rerank.trec"],
        "eval": ["eval", "--run", "rerank.trec", "--qrels", DESK / "qrels.txt"],
        "stats": ["stats", "--corpus", DESK / "corpus.jsonl", "--topics", f"dev={DESK / 'topics.tsv'}",
                  "--qrels", f"dev={DESK / 'qrels.txt'}"],
        "validate": ["validate", "bm25.trec", DESK / "qrels.txt", DESK / "corpus.jsonl"],
        "forge negatives": ["forge", "negatives", "--pool", "fused.trec", "--qrels", DESK / "qrels.txt",
                            "--topics", DESK / "topics.tsv", "-n", "3", "--out", "neg.pairs.tsv"],
        "forge negatives --from-corpus": ["forge", "negatives", "--qrels", DESK / "qrels.txt",
                                          "--from-corpus", DESK / "corpus.jsonl", "-n", "3", "--out", "cneg.pairs.tsv"],
        "forge pseudo": ["forge", "pseudo", "--run", "rerank.trec", "--topics", DESK / "topics.tsv",
                         "--out", "pseudo.pairs.tsv"],
        "ensemble": ["ensemble", "--runs", "rerank.trec", "fused.trec", "--base-weights", "0.6,0.4",
                     "--out", "ensemble.trec"],
    }
    heavy = {}
    for label, argv in calls.items():
        imported = cli_imports(argv, tmp_path)
        unwanted = {"numpy", "scipy", "logging"}
        if label in LIGHT:
            unwanted |= {"rankpipe.sparse", "rankpipe.rerank", "rankpipe.pipeline"}
        heavy[label] = sorted(imported & unwanted)
    assert heavy == {label: [] for label in calls}
    # the probe does see numpy where a subcommand computes with it
    dense = ["retrieve", "dense", "--queries", DESK / "queries.vec.tsv", "--docs", DESK / "docs.vec.tsv",
             "--out", "dense.trec"]
    q2q2d = ["forge", "q2q2d", "--test-topics", DESK / "topics.tsv", "--train-topics", DESK / "topics.tsv",
             "--train-qrels", DESK / "qrels.txt", "--query-vectors", DESK / "queries.vec.tsv", "--out", "q2q.pairs.tsv"]
    for argv in (dense, q2q2d):
        imported = cli_imports(argv, tmp_path)
        assert "numpy" in imported and "logging" not in imported


def test_forge_imports_logging_only_to_warn(tmp_path, cli_imports):
    (tmp_path / "pool.trec").write_text("en-q0 Q0 en-d0 1 1.0 x\nunjudged Q0 en-d0 1 1.0 x\n", encoding="utf-8")
    argv = ["forge", "negatives", "--pool", "pool.trec", "--qrels", DESK / "qrels.txt", "-n", "1",
            "--out", "neg.pairs.tsv"]
    assert "logging" in cli_imports(argv, tmp_path)


def test_pipeline_imports_numpy_only_for_the_stages_that_use_it(tmp_path, cli_imports):
    desk = tmp_path / "desk"
    shutil.copytree(DESK.parent, desk, ignore=shutil.ignore_patterns("out"))
    config = desk / "desk.cfg"
    assert "numpy" in cli_imports(["pipeline", "--config", config], tmp_path)
    text = config.read_text(encoding="utf-8")
    for stages in ("eval", "fuse"):
        config.write_text(re.sub(r"(?m)^stages = .*$", f"stages = {stages}", text), encoding="utf-8")
        imported = cli_imports(["pipeline", "--config", config], tmp_path)
        assert imported & {"numpy", "rankpipe.dense", "rankpipe.sparse", "rankpipe.rerank"} == set(), stages


def test_one_language_pipeline_imports_no_multiprocessing(tmp_path, cli_imports):
    desk = tmp_path / "desk"
    shutil.copytree(DESK.parent, desk, ignore=shutil.ignore_patterns("out"))
    config = desk / "desk.cfg"
    text = config.read_text(encoding="utf-8")
    # one language, and no input keys for the others, which would be data errors
    one = re.sub(r"(?m)^languages = .*$", "languages = en", re.sub(r"(?m)^\w+\.(sw|zh) = .*\n", "", text))
    config.write_text(one, encoding="utf-8")
    assert "multiprocessing" not in cli_imports(["pipeline", "--config", config], tmp_path)
    # the probe does see it where the languages are dealt over more than one process
    config.write_text(text, encoding="utf-8")
    if len(getattr(os, "sched_getaffinity", lambda pid: {0})(0)) > 1:
        assert "multiprocessing" in cli_imports(["pipeline", "--config", config], tmp_path)
