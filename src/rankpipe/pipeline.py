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
from typing import TYPE_CHECKING, Any

from . import fusion
from .corpus import load_qrels
from .errors import DataError
from .expconfig import SCHEMA, STAGES, ExperimentConfig
from .runs import DEFAULT_K, Run, read_run, write_run
from .tokenization import AUTO
from .validate import DOT, METRICS

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
# the parsed config values the configured stages read, keyed by config key;
# "bm25" holds the parameters bm25.k1 and bm25.b
Values = dict[str, Any]


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


def _eval_target_names(raw: str | None) -> list[str] | None:
    if not raw:  # every run the language has
        return None
    names = [t.strip() for t in raw.split(",") if t.strip()]
    for name in names:
        if name not in EVAL_RUNS:
            raise DataError(f"unknown eval target {name!r} (known: {', '.join(EVAL_RUNS)})")
    return names


def _read_values(config: ExperimentConfig, stages: set[str]) -> Values:
    """Every config value that ``stages`` read, parsed before the first of
    them runs, so a bad value stops the call before any artifact is written.
    An error names the value's line, as ``ExperimentConfig.get`` does."""
    get = config.get
    values: Values = {}
    if {"index", "rerank"} & stages:  # checked, not used: a config naming a removed policy stops here
        get("script_policy", AUTO, choices=(AUTO,))
    if "bm25" in stages:
        from .sparse import Bm25Params

        values["bm25"] = Bm25Params(  # each value is checked alone, so that an error names its line
            k1=get("bm25.k1", Bm25Params.k1, lambda raw: Bm25Params(k1=float(raw)).k1),
            b=get("bm25.b", Bm25Params.b, lambda raw: Bm25Params(b=float(raw)).b),
        )
    if {"bm25", "dense"} & stages:
        values["retrieve.k"] = get("retrieve.k", DEFAULT_K, int, minimum=1)
    if "dense" in stages:
        values["dense.metric"] = get("dense.metric", DOT, choices=METRICS)
    if "fuse" in stages:
        values["fuse.weights"] = get("fuse.weights", [0.5, 0.5], _fuse_weights)
    if {"pool", "rerank", "eval"} & stages:
        values["pool.k"] = get("pool.k", fusion.DEFAULT_POOL_K, int, minimum=1)
    if "rerank" in stages:
        from . import rerank

        values["rerank.scorer"] = get("rerank.scorer", rerank.ScorerHandle(), rerank.ScorerHandle.parse)
        values["rerank.budget"] = get("rerank.budget", rerank.DEFAULT_BUDGET, int, minimum=1)
    if "eval" in stages:
        values["eval.k"] = get("eval.k", 10, int, minimum=1)
        values["eval.recall_k"] = get("eval.recall_k", values["pool.k"], int, minimum=0)
        values["eval.targets"] = _eval_target_names(get("eval.targets"))
    return values


def _stage_index(config: ExperimentConfig, language: str, held: Held, values: Values) -> None:
    from . import sparse

    corpus, out = config.lang_path("corpus", language), config.out_path(language, INDEX_FILE)
    held[INDEX_FILE] = sparse.index_corpus(str(corpus), str(out))


def _stage_bm25(config: ExperimentConfig, language: str, held: Held, values: Values) -> None:
    from . import sparse

    # a built index scores as its saved file does; no later stage needs it
    index = held.pop(INDEX_FILE, None)
    if index is None:
        index = sparse.load_index(str(_require_artifact(config.out_path(language, INDEX_FILE))))
    run = sparse.retrieve_bm25(index, str(config.lang_path("topics", language)), values["retrieve.k"], values["bm25"])
    _save_run(config, language, "bm25", run, held)


def _stage_dense(config: ExperimentConfig, language: str, held: Held, values: Values) -> None:
    from . import dense

    run = dense.retrieve_dense(
        str(config.lang_path("query_vectors", language)),
        str(config.lang_path("doc_vectors", language)),
        values["retrieve.k"],
        values["dense.metric"],
    )
    _save_run(config, language, "dense", run, held)


def _stage_fuse(config: ExperimentConfig, language: str, held: Held, values: Values) -> None:
    legs = [_load_run(config, language, RUN_FILES[leg], held) for leg in FUSE_LEGS]
    fused = fusion.fuse([fusion.normalize_run(leg) for leg in legs], values["fuse.weights"])
    _save_run(config, language, "fuse", fused, held)


def _stage_pool(config: ExperimentConfig, language: str, held: Held, values: Values) -> None:
    pool = fusion.cut_pool(_load_run(config, language, RUN_FILES["fuse"], held), values["pool.k"])
    _save_run(config, language, "pool", pool, held)


def _stage_rerank(config: ExperimentConfig, language: str, held: Held, values: Values) -> None:
    from . import rerank

    run = rerank.rerank_pool(
        _load_run(config, language, RUN_FILES["pool"], held),
        str(config.lang_path("topics", language)),
        str(config.lang_path("corpus", language)),
        values["rerank.scorer"],
        values["pool.k"],
        values["rerank.budget"],
    )
    _save_run(config, language, "rerank", run, held)


def _eval_targets(config: ExperimentConfig, language: str, names: list[str] | None) -> list[tuple[str, str]]:
    if names is not None:
        return [(name, EVAL_RUNS[name]) for name in names]
    found = [(name, filename) for name, filename in EVAL_RUNS.items() if config.out_path(language, filename).exists()]
    if not found:
        raise DataError(f"no runs to evaluate for {language!r}; run a retrieval stage first")
    return found


def _stage_eval(config: ExperimentConfig, language: str, held: Held, values: Values) -> dict[tuple, MetricReport]:
    from . import metrics

    qrels = load_qrels(str(config.lang_path("qrels", language)))
    ndcg_k, recall_k = values["eval.k"], values["eval.recall_k"]
    reports: dict[tuple[str, str, int], MetricReport] = {}
    for name, filename in _eval_targets(config, language, values["eval.targets"]):
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
    values = _read_values(config, set(stages))
    all_reports: dict[str, dict] = {}
    for language in config.languages:
        config.out_path(language, "x").parent.mkdir(parents=True, exist_ok=True)
        held: Held = {}
        all_reports[language] = {}
        for stage in stages:
            if stage == "eval":
                all_reports[language] = _stage_eval(config, language, held, values)
            else:
                _STAGE_FUNCS[stage](config, language, held, values)

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
