"""Stage orchestration: index -> retrieve -> fuse -> pool -> rerank -> eval.

Requested stages run in canonical dependency order per language; every
intermediate is written in the documented formats with a provenance header
(config schema + seed, never timestamps), so rerunning the same config is
byte-identical. Within one call a stage hands the run or index it wrote to
the later stages of its language in memory; a stage whose upstream ran in an
earlier call reads the artifact, and a missing one names the stage to run
first. Each stage imports the modules it computes with, so a call that only
evaluates or fuses starts without numpy.
"""
from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from . import fusion
from .corpus import load_qrels
from .errors import DataError
from .expconfig import SCHEMA, STAGES, ExperimentConfig
from .runs import DEFAULT_K, Run, read_run, write_run
from .tokenization import AUTO, POLICIES

if TYPE_CHECKING:
    from .metrics import MetricReport
    from .sparse import InvertedIndex

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
# the runs the fuse stage combines, in the order of the fuse.weights values
FUSE_LEGS = ("bm25", "dense")
METRICS_FILE = "metrics.tsv"
SUMMARY_FILE = "summary.tsv"

_PRODUCER = {name: stage for stage, name in {"index": INDEX_FILE, **RUN_FILES}.items()}


def _header(config: ExperimentConfig, stage: str) -> str:
    return f"schema={SCHEMA} stage={stage} seed={config.seed}"


def _require_artifact(path: Path) -> Path:
    if not path.exists():
        stage = _PRODUCER.get(path.name, "an earlier stage")
        raise DataError(f"missing artifact {path}; run stage {stage!r} first")
    return path


# the runs and the index written so far for one language, keyed by artifact filename
Held = dict[str, "Run | InvertedIndex"]


def _load_run(config: ExperimentConfig, language: str, name: str, held: Held) -> Run:
    if name in held:
        return held[name]
    return read_run(str(_require_artifact(config.out_path(language, name))))


def _save_run(config: ExperimentConfig, language: str, stage: str, run: Run, held: Held) -> None:
    name = RUN_FILES[stage]
    held[name] = write_run(run, str(config.out_path(language, name)), header=_header(config, stage))


def _fuse_weights(raw: str) -> list[float]:
    weights = fusion.parse_weights(raw)
    if len(weights) != len(FUSE_LEGS):
        raise ValueError(f"expected {len(FUSE_LEGS)} weights, one per leg: {', '.join(FUSE_LEGS)}")
    return weights


def _stage_index(config: ExperimentConfig, language: str, held: Held) -> None:
    from . import sparse

    policy = config.get("script_policy", AUTO, choices=POLICIES)
    held[INDEX_FILE] = sparse.index_corpus(
        str(config.lang_path("corpus", language)), str(config.out_path(language, INDEX_FILE)), policy
    )


def _stage_bm25(config: ExperimentConfig, language: str, held: Held) -> None:
    from . import sparse

    params = sparse.Bm25Params(  # each value is checked alone, so that an error names its line
        k1=config.get("bm25.k1", sparse.Bm25Params.k1, lambda raw: sparse.Bm25Params(k1=float(raw)).k1),
        b=config.get("bm25.b", sparse.Bm25Params.b, lambda raw: sparse.Bm25Params(b=float(raw)).b),
    )
    # a built index scores as its saved file does; no later stage needs it
    index = held.pop(INDEX_FILE, None)
    if index is None:
        index = sparse.load_index(str(_require_artifact(config.out_path(language, INDEX_FILE))))
    run = sparse.retrieve_bm25(
        index,
        str(config.lang_path("topics", language)),
        config.get("retrieve.k", DEFAULT_K, int, minimum=1),
        params,
    )
    _save_run(config, language, "bm25", run, held)


def _stage_dense(config: ExperimentConfig, language: str, held: Held) -> None:
    from . import dense

    run = dense.retrieve_dense(
        str(config.lang_path("query_vectors", language)),
        str(config.lang_path("doc_vectors", language)),
        config.get("retrieve.k", DEFAULT_K, int, minimum=1),
        config.get("dense.metric", dense.DOT, choices=dense.METRICS),
    )
    _save_run(config, language, "dense", run, held)


def _stage_fuse(config: ExperimentConfig, language: str, held: Held) -> None:
    weights = config.get("fuse.weights", [0.5, 0.5], _fuse_weights)
    legs = [_load_run(config, language, RUN_FILES[leg], held) for leg in FUSE_LEGS]
    fused = fusion.fuse([fusion.normalize_run(leg) for leg in legs], weights)
    _save_run(config, language, "fuse", fused, held)


def _stage_pool(config: ExperimentConfig, language: str, held: Held) -> None:
    hybrid = _load_run(config, language, RUN_FILES["fuse"], held)
    pool = fusion.cut_pool(hybrid, config.get("pool.k", fusion.DEFAULT_POOL_K, int, minimum=1))
    _save_run(config, language, "pool", pool, held)


def _stage_rerank(config: ExperimentConfig, language: str, held: Held) -> None:
    from . import rerank

    run = rerank.rerank_pool(
        _load_run(config, language, RUN_FILES["pool"], held),
        str(config.lang_path("topics", language)),
        str(config.lang_path("corpus", language)),
        config.get("rerank.scorer", rerank.ScorerHandle(), rerank.ScorerHandle.parse),
        config.get("pool.k", fusion.DEFAULT_POOL_K, int, minimum=1),
        config.get("rerank.budget", rerank.DEFAULT_BUDGET, int, minimum=1),
        config.get("script_policy", AUTO, choices=POLICIES),
    )
    _save_run(config, language, "rerank", run, held)


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


def _stage_eval(config: ExperimentConfig, language: str, held: Held) -> dict[tuple[str, str, int], MetricReport]:
    from . import metrics

    qrels = load_qrels(str(config.lang_path("qrels", language)))
    ndcg_k = config.get("eval.k", 10, int, minimum=1)
    recall_k = config.get("eval.recall_k", config.get("pool.k", fusion.DEFAULT_POOL_K, int, minimum=1), int, minimum=0)
    reports: dict[tuple[str, str, int], MetricReport] = {}
    for name, filename in _eval_targets(config, language):
        run = _load_run(config, language, filename, held)
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


def run_pipeline(config: ExperimentConfig) -> dict[str, dict]:
    """Run the configured stages for every language and write a summary.

    Returns {language: {(run, metric, k): MetricReport}} for languages where
    the eval stage ran, plus macro averages in the summary file.
    """
    stages = [s for s in STAGES if s in config.stages]
    all_reports: dict[str, dict] = {}
    for language in config.languages:
        config.out_path(language, "x").parent.mkdir(parents=True, exist_ok=True)
        held: Held = {}
        all_reports[language] = {}
        for stage in stages:
            if stage == "eval":
                all_reports[language] = _stage_eval(config, language, held)
            else:
                _STAGE_FUNCS[stage](config, language, held)

    if "eval" in stages:
        from .metrics import macro_average

        keys = sorted({key for reports in all_reports.values() for key in reports})
        summary = config.output_dir / SUMMARY_FILE
        with open(summary, "w", encoding="utf-8") as fh:
            fh.write(f"# {_header(config, 'summary')}\n")
            fh.write("run\tmetric\tk\tmacro\tlanguages\n")
            for key in keys:
                langs = [lang for lang in config.languages if key in all_reports[lang]]
                macro = macro_average([all_reports[lang][key] for lang in langs])
                name, metric, k = key
                fh.write(f"{name}\t{metric}\t{k}\t{macro!r}\t{','.join(langs)}\n")
    return all_reports
