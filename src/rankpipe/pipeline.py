"""Stage orchestration: index -> retrieve -> fuse -> pool -> rerank -> eval.

Requested stages run in canonical dependency order per language; every
intermediate is written in the documented formats with a provenance header
(config schema + seed, never timestamps), so rerunning the same config is
byte-identical. Within one call a stage hands the run it wrote to the later
stages of its language in memory; a stage whose upstream ran in an earlier
call reads the artifact, and a missing one names the stage to run first.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import dense, fusion, metrics, rerank, sparse
from .corpus import load_corpus, load_qrels, load_topics
from .errors import DataError
from .expconfig import SCHEMA, STAGES, ExperimentConfig
from .runs import Run, read_run, write_run

# artifact filenames per language directory
INDEX_FILE = "index.rpidx"
RUN_FILES = {
    "bm25": "bm25.trec",
    "dense": "dense.trec",
    "fuse": "hybrid.trec",
    "pool": "pool.trec",
    "rerank": "rerank.trec",
}
# run names under which eval reports each artifact
EVAL_RUNS = {
    "bm25": RUN_FILES["bm25"],
    "dense": RUN_FILES["dense"],
    "hybrid": RUN_FILES["fuse"],
    "rerank": RUN_FILES["rerank"],
}
METRICS_FILE = "metrics.tsv"
SUMMARY_FILE = "summary.tsv"

_PRODUCER = {
    INDEX_FILE: "index",
    RUN_FILES["bm25"]: "bm25",
    RUN_FILES["dense"]: "dense",
    RUN_FILES["fuse"]: "fuse",
    RUN_FILES["pool"]: "pool",
    RUN_FILES["rerank"]: "rerank",
}


def _header(config: ExperimentConfig, stage: str) -> str:
    return f"schema={SCHEMA} stage={stage} seed={config.seed}"


def _require_artifact(path: Path) -> Path:
    if not path.exists():
        stage = _PRODUCER.get(path.name, "an earlier stage")
        raise DataError(f"missing artifact {path}; run stage {stage!r} first")
    return path


# runs written so far for one language, keyed by artifact filename
Runs = dict[str, Run]


def _load_run(config: ExperimentConfig, language: str, name: str, runs: Runs) -> Run:
    if name in runs:
        return runs[name]
    return read_run(str(_require_artifact(config.out_path(language, name))))


def _save_run(config: ExperimentConfig, language: str, stage: str, run: Run, runs: Runs) -> None:
    name = RUN_FILES[stage]
    runs[name] = write_run(run, str(config.out_path(language, name)), header=_header(config, stage))


def _stage_index(config: ExperimentConfig, language: str, runs: Runs) -> None:
    policy = config.get("script_policy", "auto")
    index = sparse.build_index(load_corpus(str(config.lang_path("corpus", language))), policy)
    sparse.save_index(index, str(config.out_path(language, INDEX_FILE)))


def _stage_bm25(config: ExperimentConfig, language: str, runs: Runs) -> None:
    index = sparse.load_index(str(_require_artifact(config.out_path(language, INDEX_FILE))))
    params = sparse.Bm25Params(k1=config.get_float("bm25.k1", 0.9), b=config.get_float("bm25.b", 0.4))
    k = config.get_int("retrieve.k", 1000)
    topics = load_topics(str(config.lang_path("topics", language)), language=language)
    run = Run(
        entries={q.qid: sparse.bm25_search(index, q.text, k, params) for q in topics},
        tag="bm25",
    )
    _save_run(config, language, "bm25", run, runs)


def _stage_dense(config: ExperimentConfig, language: str, runs: Runs) -> None:
    metric = config.get("dense.metric", "dot")
    queries = dense.load_embeddings(str(config.lang_path("query_vectors", language)), metric)
    docs = dense.load_embeddings(str(config.lang_path("doc_vectors", language)), metric)
    k = config.get_int("retrieve.k", 1000)
    run = Run(
        entries={qid: dense.dense_search(queries, docs, qid, k) for qid in queries.ids},
        tag="dense",
    )
    _save_run(config, language, "dense", run, runs)


def _stage_fuse(config: ExperimentConfig, language: str, runs: Runs) -> None:
    weights = [float(w) for w in config.get("fuse.weights", "0.5,0.5").split(",")]
    legs = [_load_run(config, language, RUN_FILES[leg], runs) for leg in ("bm25", "dense")]
    fused = fusion.fuse([fusion.normalize_run(leg) for leg in legs], weights)
    _save_run(config, language, "fuse", fused, runs)


def _stage_pool(config: ExperimentConfig, language: str, runs: Runs) -> None:
    hybrid = _load_run(config, language, RUN_FILES["fuse"], runs)
    pool = fusion.cut_pool(hybrid, config.get_int("pool.k", fusion.DEFAULT_POOL_K))
    _save_run(config, language, "pool", pool.to_run(), runs)


def _stage_rerank(config: ExperimentConfig, language: str, runs: Runs) -> None:
    pool_run = _load_run(config, language, RUN_FILES["pool"], runs)
    pool = fusion.cut_pool(pool_run, config.get_int("pool.k", fusion.DEFAULT_POOL_K))
    topics = load_topics(str(config.lang_path("topics", language)), language=language)
    corpus_lookup = {doc.docid: doc for doc in load_corpus(str(config.lang_path("corpus", language)))}
    scorer = rerank.ScorerHandle.parse(config.get("rerank.scorer", "lexical"))
    policy = config.get("script_policy", "auto")
    pairs = rerank.build_pairs(
        pool,
        topics,
        corpus_lookup,
        budget=config.get_int("rerank.budget", rerank.DEFAULT_BUDGET),
        script_policy=policy,
    )
    run = rerank.score_pairs(pairs, scorer, script_policy=policy)
    _save_run(config, language, "rerank", run, runs)


def _eval_targets(config: ExperimentConfig, language: str) -> list[tuple[str, str]]:
    raw = config.get("eval.targets")
    if raw:
        names = [t.strip() for t in raw.split(",") if t.strip()]
        for name in names:
            if name not in EVAL_RUNS:
                raise DataError(f"unknown eval target {name!r} (known: {', '.join(EVAL_RUNS)})")
        return [(name, EVAL_RUNS[name]) for name in names]
    found = [
        (name, filename)
        for name, filename in EVAL_RUNS.items()
        if config.out_path(language, filename).exists()
    ]
    if not found:
        raise DataError(f"no runs to evaluate for {language!r}; run a retrieval stage first")
    return found


def _stage_eval(
    config: ExperimentConfig, language: str, runs: Runs
) -> dict[tuple[str, str, int], metrics.MetricReport]:
    qrels = load_qrels(str(config.lang_path("qrels", language)))
    ndcg_k = config.get_int("eval.k", 10)
    recall_k = config.get_int("eval.recall_k", config.get_int("pool.k", fusion.DEFAULT_POOL_K))
    reports: dict[tuple[str, str, int], metrics.MetricReport] = {}
    for name, filename in _eval_targets(config, language):
        run = _load_run(config, language, filename, runs)
        reports[(name, metrics.NDCG, ndcg_k)] = metrics.ndcg_at_k(run, qrels, ndcg_k)
        reports[(name, metrics.RECALL, recall_k)] = metrics.recall_at_k(run, qrels, recall_k)
    out = config.out_path(language, METRICS_FILE)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(f"# {_header(config, 'eval')}\n")
        fh.write("run\tmetric\tk\tmean\tevaluated\tskipped\n")
        for (name, metric, k), report in sorted(reports.items()):
            fh.write(
                f"{name}\t{metric}\t{k}\t{report.mean!r}\t{report.evaluated_queries}\t{report.skipped_queries}\n"
            )
    return reports


_STAGE_FUNCS = {
    "index": _stage_index,
    "bm25": _stage_bm25,
    "dense": _stage_dense,
    "fuse": _stage_fuse,
    "pool": _stage_pool,
    "rerank": _stage_rerank,
}


def run_pipeline(config: ExperimentConfig, threads: int = 1) -> dict[str, dict]:
    """Run the configured stages for every language and write a summary.

    Returns {language: {(run, metric, k): MetricReport}} for languages where
    the eval stage ran, plus macro averages in the summary file.
    """
    stages = [s for s in STAGES if s in config.stages]

    def run_language(language: str) -> dict:
        config.out_path(language, "x").parent.mkdir(parents=True, exist_ok=True)
        runs: Runs = {}
        reports: dict = {}
        for stage in stages:
            if stage == "eval":
                reports = _stage_eval(config, language, runs)
            else:
                _STAGE_FUNCS[stage](config, language, runs)
        return reports

    if threads > 1 and len(config.languages) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_language, config.languages))
        all_reports = dict(zip(config.languages, results))
    else:
        all_reports = {language: run_language(language) for language in config.languages}

    if "eval" in stages:
        keys = sorted({key for reports in all_reports.values() for key in reports})
        summary = config.output_dir / SUMMARY_FILE
        with open(summary, "w", encoding="utf-8") as fh:
            fh.write(f"# {_header(config, 'summary')}\n")
            fh.write("run\tmetric\tk\tmacro\tlanguages\n")
            for key in keys:
                langs = [lang for lang in config.languages if key in all_reports[lang]]
                macro = metrics.macro_average([all_reports[lang][key] for lang in langs])
                name, metric, k = key
                fh.write(f"{name}\t{metric}\t{k}\t{macro!r}\t{','.join(langs)}\n")
    return all_reports
