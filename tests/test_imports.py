"""Start-up cost: the package root imports its submodules on first use, and
a CLI call imports numpy only for the subcommands that compute with it."""
import os
import subprocess
import sys
from pathlib import Path

import rankpipe

ROOT = Path(__file__).resolve().parent.parent
DESK = ROOT / "tests" / "data" / "desk" / "en"

PUBLIC_NAMES = {
    "AugmentationParams", "Bm25Params", "CandidatePool", "DataError", "Document", "EmbeddingStore",
    "EnsembleConfig", "FormatError", "InvertedIndex", "JudgmentSet", "MetricReport", "PairInput",
    "ProtocolError", "Query", "Run", "ScorerHandle", "StatsRow", "TrainingPair", "adjust_weights",
    "bm25_search", "build_index", "build_pairs", "correlation_matrix", "corpus_stats", "cut_pool",
    "dense_search", "detect_policy", "ensemble_runs", "fuse", "lexical_score", "load_corpus",
    "load_embeddings", "load_index", "load_qrels", "load_topics", "macro_average", "ndcg_at_k",
    "normalize_run", "pseudo_label", "q2q2d_augment", "read_pairs", "read_run", "recall_at_k",
    "sample_negatives", "sample_negatives_corpus", "save_index", "score_pairs", "tokenize",
    "truncate_pair_text", "write_embeddings", "write_pairs", "write_qrels", "write_run",
}


def test_all_lists_the_public_names():
    assert len(PUBLIC_NAMES) == 53
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


def _top_level_imports(args: list[str], cwd: Path) -> set[str]:
    """Top-level packages a fresh interpreter imports while running ``args``."""
    result = _run_python(["-X", "importtime", *args], cwd)
    assert result.returncode == 0, result.stderr
    return {
        line.rsplit("|", 1)[1].strip().split(".")[0]
        for line in result.stderr.splitlines()
        if line.startswith("import time:")
    }


def test_package_root_imports_no_submodule(tmp_path):
    code = "import sys, rankpipe; print(sorted(m for m in sys.modules if m.startswith('rankpipe')))"
    result = _run_python(["-c", code], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "['rankpipe']"


def test_cli_loads_numpy_only_where_a_subcommand_needs_it(tmp_path):
    calls = {
        "version": ["--version"],
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
    }
    heavy = {}
    for label, argv in calls.items():
        imported = _top_level_imports(["-m", "rankpipe.cli", *map(str, argv)], tmp_path)
        heavy[label] = sorted(imported & {"numpy", "scipy"})
    assert heavy == {label: [] for label in calls}
    # the probe does see numpy where a subcommand computes with it
    dense = ["retrieve", "dense", "--queries", DESK / "queries.vec.tsv", "--docs", DESK / "docs.vec.tsv",
             "--out", "dense.trec"]
    assert "numpy" in _top_level_imports(["-m", "rankpipe.cli", *map(str, dense)], tmp_path)
