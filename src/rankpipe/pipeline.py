"""Experiment configs and stage orchestration: index -> retrieve -> fuse ->
pool -> rerank -> eval.

A config is diffable provenance: ``key = value`` lines, ``#`` comments and a
mandatory ``schema = rankpipe-exp-1``; relative paths resolve against its
directory. ``ExperimentConfig.get`` reads every value. An unknown key, and
each value the configured stages read, input files included, are checked
before the first stage runs; a bad one names the config's ``path:line``.

A stage is declared once, in ``STAGE_TABLE``: its name, the artifact it
writes in each language directory, its per-language input keys and its
body. Requested stages run in the table's order per language; every
intermediate is written in the documented formats with a provenance header
(config schema + seed, never timestamps), so rerunning the same config is
byte-identical. Within one call a stage hands the run or index it wrote to
the later stages of its language in memory; a stage whose upstream ran in an
earlier call reads the artifact, and a missing one names the stage to run
first. Each stage imports the modules it computes with, so a call that only
evaluates or fuses starts without numpy. The languages run in parallel, one
forked ``multiprocessing`` worker per CPU, with the bytes of one process.
"""
from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any

from . import fusion
from .corpus import load_qrels
from .errors import DataError, FormatError
from .runs import DEFAULT_K, Run, read_run, write_run
from .validate import DOT, METRICS, data_lines

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

    from .metrics import MetricReport
    from .sparse import InvertedIndex

SCHEMA = "rankpipe-exp-1"
STRUCTURAL_KEYS = ("schema", "seed", "languages", "stages", "output_dir")

# a default of ExperimentConfig.get: the key must be set
REQUIRED = object()


def _names(raw: str, known: tuple[str, ...] = ()) -> list[str]:
    """The names of a comma-separated list, each one of ``known`` when given."""
    names = [name.strip() for name in raw.split(",") if name.strip()]
    for name in names:
        if known and name not in known:
            raise ValueError(f"unknown name {name!r} (known: {', '.join(known)})")
    return names


def _languages(raw: str) -> list[str]:
    languages = _names(raw)
    if not languages or len(set(languages)) != len(languages):  # summary.tsv would average a language twice
        raise ValueError("expected one or more languages, each named once")
    return languages


@dataclass
class ExperimentConfig:
    """A config's values and their lines; construction checks the structural keys and rejects an unknown key."""

    base_dir: Path
    values: dict[str, str]
    path: str | None = None
    lines: dict[str, int] = field(default_factory=dict)  # key -> line it is set on
    seed: int = field(init=False)
    languages: list[str] = field(init=False)
    stages: list[str] = field(init=False)
    output_dir: Path = field(init=False)

    def __post_init__(self) -> None:
        self.get("schema", REQUIRED, choices=(SCHEMA,))
        self.seed = self.get("seed", REQUIRED, int)
        self.languages = self.get("languages", REQUIRED, _languages)
        self.stages = self.get("stages", REQUIRED, lambda raw: _names(raw, STAGES))
        self.output_dir = self.base_dir / self.get("output_dir", REQUIRED)
        for key in self.values:
            if not _is_key(key):
                raise FormatError(f"unknown key {key!r}", path=self.path, line=self.lines.get(key))

    def get(
        self,
        key: str,
        default: Any = None,
        parse: Callable[[str], Any] = str,
        choices: tuple = (),
        minimum: float | None = None,
    ) -> Any:
        """The value of ``key`` through ``parse``, ``default`` when unset; an unset key
        whose default is REQUIRED is a FormatError naming the config's path. A value
        outside ``choices`` (when given), one that ``parse`` rejects with a ValueError,
        or one below ``minimum`` (when given) is a FormatError at its line. An unknown ``key`` is a KeyError."""
        if not _is_key(key):
            raise KeyError(f"{key!r} is not a config key")
        raw = self.values.get(key)
        if raw is None:
            if default is REQUIRED:
                raise FormatError(f"missing required key {key!r}", path=self.path)
            return default
        try:
            if choices and raw not in choices:
                raise ValueError(f"expected one of {', '.join(choices)}")
            value = parse(raw)
            if minimum is not None and value < minimum:
                raise ValueError(f"must be >= {minimum}")
            return value
        except ValueError as exc:
            raise FormatError(f"bad value {raw!r} for {key!r}: {exc}", path=self.path, line=self.lines.get(key)) from None

    def input_file(self, raw: str) -> Path:
        """The file that ``raw`` names, resolved against the config's directory;
        a ValueError when there is none, which ``get`` reports as a bad value."""
        path = self.base_dir / raw
        if not path.is_file():
            raise ValueError(f"no file at {path}")
        return path

    def lang_path(self, key: str, language: str) -> Path:
        """The input file that ``key.language`` names."""
        return self.get(f"{key}.{language}", REQUIRED, self.input_file)

    def out_path(self, language: str, stage: str) -> Path:
        """The artifact that ``stage`` writes for ``language``."""
        return self.output_dir / language / _ARTIFACTS[stage]


def load_config(path: str) -> ExperimentConfig:
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, line in data_lines(path):
        key, equals, value = line.partition("=")
        key = key.strip()
        if not equals:
            raise FormatError("expected 'key = value'", path=path, line=lineno)
        if not key:
            raise FormatError("empty key", path=path, line=lineno)
        if key in values:
            raise FormatError(f"duplicate key {key!r}", path=path, line=lineno)
        values[key] = value.strip()
        lines[key] = lineno
    return ExperimentConfig(Path(path).resolve().parent, values, path, lines)


# the runs the fuse stage combines, in the order of the fuse.weights values
FUSE_LEGS = ("bm25", "dense")
# the stage whose run eval reports under each name
EVAL_RUNS = {"bm25": "bm25", "dense": "dense", "hybrid": "fuse", "rerank": "rerank"}
SUMMARY_FILE = "summary.tsv"


def _header(config: ExperimentConfig, stage: str) -> str:
    return f"schema={SCHEMA} stage={stage} seed={config.seed}"


# what one language's stages returned so far by stage name: runs as written, the index, eval reports
Held = dict[str, Any]
# the parsed config values the configured stages read, keyed by config key;
# "bm25" holds the parameters bm25.k1 and bm25.b, "corpus.en" its file's path
Values = dict[str, Any]


def _upstream(config: ExperimentConfig, language: str, stage: str) -> str:
    """The artifact an earlier call's ``stage`` wrote, which must exist."""
    path = config.out_path(language, stage)
    if not path.exists():
        raise DataError(f"missing artifact {path}; run stage {stage!r} first")
    return str(path)


def _load_run(config: ExperimentConfig, language: str, held: Held, stage: str) -> Run:
    return held[stage] if stage in held else read_run(_upstream(config, language, stage))


def _fuse_weights(raw: str) -> list[float]:
    weights = fusion.parse_weights(raw)
    if len(weights) != len(FUSE_LEGS):
        raise ValueError(f"expected {len(FUSE_LEGS)} weights, one per leg: {', '.join(FUSE_LEGS)}")
    return weights


# every value key, each read by _read_values alone; ExperimentConfig.get refuses any other
VALUE_KEYS = ("bm25.k1", "bm25.b", "retrieve.k", "dense.metric", "fuse.weights", "pool.k", "rerank.scorer",
              "rerank.budget", "eval.k", "eval.recall_k", "eval.targets")


def _is_key(key: str) -> bool:
    """A structural key, a value key, or ``<input>.<name>`` for an input key of a stage."""
    prefix, _, name = key.partition(".")
    return key in STRUCTURAL_KEYS or key in VALUE_KEYS or bool(name) and any(prefix in s.inputs for s in STAGE_TABLE)


def _read_values(config: ExperimentConfig, stages: set[str]) -> Values:
    """Every config value that ``stages`` read, input paths included, parsed
    before the first of them runs, so a bad value stops the call before any
    artifact is written. An error names the value's line, as
    ``ExperimentConfig.get`` does."""
    get = config.get
    values: Values = {}
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

        def scorer(raw: str) -> rerank.ScorerHandle:
            handle = rerank.ScorerHandle.parse(raw)
            if handle.kind == rerank.SCORE_FILE:  # a score file resolves as the input paths do
                handle = replace(handle, location=str(config.input_file(handle.location)))
            return handle

        values["rerank.scorer"] = get("rerank.scorer", rerank.ScorerHandle(), scorer)
        values["rerank.budget"] = get("rerank.budget", rerank.DEFAULT_BUDGET, int, minimum=1)
    if "eval" in stages:
        values["eval.k"] = get("eval.k", 10, int, minimum=1)
        values["eval.recall_k"] = get("eval.recall_k", values["pool.k"], int, minimum=0)
        values["eval.targets"] = get("eval.targets", None, lambda raw: _names(raw, tuple(EVAL_RUNS)))
    for key in dict.fromkeys(key for stage in STAGE_TABLE if stage.name in stages for key in stage.inputs):
        for language in config.languages:
            values[f"{key}.{language}"] = str(config.lang_path(key, language))
    return values


def _index(config: ExperimentConfig, language: str, held: Held, values: Values) -> InvertedIndex:
    from . import sparse

    return sparse.index_corpus(values[f"corpus.{language}"], str(config.out_path(language, "index")))


def _bm25(config: ExperimentConfig, language: str, held: Held, values: Values) -> Run:
    from . import sparse

    # a built index scores as its saved file does; no later stage needs it
    index = held.pop("index") if "index" in held else sparse.load_index(_upstream(config, language, "index"))
    return sparse.retrieve_bm25(index, values[f"topics.{language}"], values["retrieve.k"], values["bm25"])


def _dense(config: ExperimentConfig, language: str, held: Held, values: Values) -> Run:
    from . import dense

    vectors = values[f"query_vectors.{language}"], values[f"doc_vectors.{language}"]
    return dense.retrieve_dense(*vectors, values["retrieve.k"], values["dense.metric"])


def _fuse(config: ExperimentConfig, language: str, held: Held, values: Values) -> Run:
    legs = [_load_run(config, language, held, leg) for leg in FUSE_LEGS]
    return fusion.fuse([fusion.normalize_run(leg) for leg in legs], values["fuse.weights"])


def _pool(config: ExperimentConfig, language: str, held: Held, values: Values) -> Run:
    return fusion.cut_pool(_load_run(config, language, held, "fuse"), values["pool.k"])


def _rerank(config: ExperimentConfig, language: str, held: Held, values: Values) -> Run:
    from . import rerank

    pool = _load_run(config, language, held, "pool")
    texts = values[f"topics.{language}"], values[f"corpus.{language}"]
    return rerank.rerank_pool(pool, *texts, values["rerank.scorer"], values["pool.k"], values["rerank.budget"])


def _eval(config: ExperimentConfig, language: str, held: Held, values: Values) -> dict[tuple, MetricReport]:
    from . import metrics

    qrels = load_qrels(values[f"qrels.{language}"])
    # eval.targets unset or empty: every run the language has
    names = values["eval.targets"] or [n for n, stage in EVAL_RUNS.items() if config.out_path(language, stage).exists()]
    if not names:
        raise DataError(f"no runs to evaluate for {language!r}; run a retrieval stage first")
    ndcg_k, recall_k = values["eval.k"], values["eval.recall_k"]
    reports: dict[tuple[str, str, int], MetricReport] = {}
    for name in names:
        run = _load_run(config, language, held, EVAL_RUNS[name])
        reports[(name, metrics.NDCG, ndcg_k)] = metrics.ndcg_at_k(run, qrels, ndcg_k)
        reports[(name, metrics.RECALL, recall_k)] = metrics.recall_at_k(run, qrels, recall_k)
    with open(config.out_path(language, "eval"), "w", encoding="utf-8") as fh:
        fh.write(f"# {_header(config, 'eval')}\n")
        fh.write("run\tmetric\tk\tmean\tevaluated\tskipped\n")
        for (name, metric, k), report in sorted(reports.items()):
            fh.write(f"{name}\t{metric}\t{k}\t{report.mean!r}\t{report.evaluated_queries}\t{report.skipped_queries}\n")
    return reports


@dataclass(frozen=True)
class Stage:
    """A stage: its artifact in each language directory, the key prefixes of
    its per-language input files, and its body, which returns what later
    stages use; the runner writes a returned Run, other bodies their own file."""

    name: str
    artifact: str
    inputs: tuple[str, ...]
    body: Callable[[ExperimentConfig, str, Held, Values], Any]


# every stage, in run order
STAGE_TABLE = (
    Stage("index", "index.rpidx", ("corpus",), _index),
    Stage("bm25", "bm25.trec", ("topics",), _bm25),
    Stage("dense", "dense.trec", ("query_vectors", "doc_vectors"), _dense),
    Stage("fuse", "hybrid.trec", (), _fuse),
    Stage("pool", "pool.trec", (), _pool),
    Stage("rerank", "rerank.trec", ("topics", "corpus"), _rerank),
    Stage("eval", "metrics.tsv", ("qrels",), _eval),
)
STAGES = tuple(stage.name for stage in STAGE_TABLE)
_ARTIFACTS = {stage.name: stage.artifact for stage in STAGE_TABLE}


def _run_language(config: ExperimentConfig, language: str, stages: list[Stage], values: Values) -> dict:
    """Run ``stages`` for one language; its eval reports, empty without an eval stage."""
    (config.output_dir / language).mkdir(parents=True, exist_ok=True)
    held: Held = {}
    for stage in stages:
        result = stage.body(config, language, held, values)
        if isinstance(result, Run):
            result = write_run(result, str(config.out_path(language, stage.name)), header=_header(config, stage.name))
        held[stage.name] = result
    return held.get("eval", {})


# per language, its eval reports or the error that stopped it
Results = dict[str, "dict | BaseException"]


def _run_share(config: ExperimentConfig, languages: list[str], stages: list[Stage], values: Values) -> Results:
    """Run each of ``languages`` to its end or to its own first error."""
    results: Results = {}
    for language in languages:
        try:
            results[language] = _run_language(config, language, stages, values)
        except Exception as exc:  # kept with its traceback; run_pipeline raises it once every language ran
            results[language] = exc
    return results


def _worker_count(languages: int) -> int:
    """One worker per CPU this process may run on, at most one per language;
    one where the platform does not say which CPUs those are."""
    affinity = getattr(os, "sched_getaffinity", None)
    return min(languages, len(affinity(0))) if affinity else 1


def _picklable(error: BaseException) -> BaseException:
    import pickle

    try:
        pickle.loads(pickle.dumps(error))
    except Exception:
        return DataError(f"{type(error).__name__}: {error}")
    return error


def _work(config: ExperimentConfig, languages: list[str], stages: list[Stage], values: Values, pipe: Connection) -> None:
    """A forked worker's body: run ``languages`` and send their results through ``pipe``."""
    try:
        results = _run_share(config, languages, stages, values)
    except BaseException as exc:  # an interrupt: the caller raises it for each of these languages
        results = dict.fromkeys(languages, exc)
    pipe.send({lang: _picklable(r) if isinstance(r, BaseException) else r for lang, r in results.items()})


def run_pipeline(config: ExperimentConfig) -> dict[str, dict]:
    """Run the configured stages for every language and write a summary.

    Returns {language: {(run, metric, k): MetricReport}} for languages where
    the eval stage ran, plus macro averages in the summary file.

    The languages are dealt round-robin over one process per CPU this process
    may run on, at most one per language: the caller runs ``languages[0::W]``
    and W - 1 forked ``multiprocessing`` workers the rest, so one CPU or one
    language forks nothing. Each language runs to its end or to its own first
    error; once all have run, the error of the first failing language in
    config order is raised (a worker that ends without results, killed say,
    is a ChildProcessError naming its exit code), and the summary is written
    only when none failed. The artifacts do not depend on W.
    """
    stages = [stage for stage in STAGE_TABLE if stage.name in config.stages]
    names = {stage.name for stage in stages}
    values = _read_values(config, names)
    languages = config.languages
    count = _worker_count(len(languages))
    workers = []  # (process, read end of its pipe, its languages)
    results: Results = {}
    try:
        if count > 1:
            import multiprocessing

            if "dense" in names:  # once, not in each worker
                import numpy  # noqa: F401
            context = multiprocessing.get_context("fork")
            for i in range(1, count):
                reader, writer = context.Pipe(duplex=False)
                with writer:  # the caller keeps only the read end, so a dead worker is an EOFError
                    worker = context.Process(target=_work, args=(config, languages[i::count], stages, values, writer))
                    worker.start()
                workers.append((worker, reader, languages[i::count]))
        results = _run_share(config, languages[::count], stages, values)
    except BaseException:  # an interrupt: the workers' results would be discarded
        for worker, _, _ in workers:
            worker.kill()
        raise
    finally:
        for worker, reader, share in workers:
            with reader:
                try:
                    got = reader.recv()
                except (EOFError, OSError):  # nothing or a part of the results came through
                    got = None
            worker.join()
            results.update(got or dict.fromkeys(share, ChildProcessError(
                f"the worker running {', '.join(share)} ended without a result (exit code {worker.exitcode})")))
    for language in languages:
        if isinstance(results[language], BaseException):
            raise results[language]
    all_reports = {language: results[language] for language in languages}

    if "eval" in names:
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
