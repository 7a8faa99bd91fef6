"""Experiment configs and stage orchestration: index -> retrieve -> fuse ->
pool -> rerank -> eval.

A config is diffable provenance: ``key = value`` lines, ``#`` comments and a
mandatory ``schema = rankpipe-exp-1``; relative paths resolve against its
directory. ``ExperimentConfig.get`` reads every value. Each value the
configured stages read, input files included, is checked before the first
stage runs, and a bad one names the config's ``path:line``.

Requested stages run in canonical dependency order per language; every
intermediate is written in the documented formats with a provenance header
(config schema + seed, never timestamps), so rerunning the same config is
byte-identical. Within one call a stage hands the run or index it wrote to
the later stages of its language in memory; a stage whose upstream ran in an
earlier call reads the artifact, and a missing one names the stage to run
first. Each stage imports the modules it computes with, so a call that only
evaluates or fuses starts without numpy. The languages run in parallel, in a
forked worker per CPU (``run_pipeline``), with the same bytes as in one process.
"""
from __future__ import annotations

import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any

from . import fusion
from .corpus import load_qrels
from .errors import DataError, FormatError
from .runs import DEFAULT_K, Run, read_run, write_run
from .tokenization import AUTO
from .validate import DOT, METRICS, data_lines

if TYPE_CHECKING:
    from .metrics import MetricReport
    from .sparse import InvertedIndex

SCHEMA = "rankpipe-exp-1"

STAGES = ("index", "bm25", "dense", "fuse", "pool", "rerank", "eval")

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
    """A config's values and the lines they are set on; construction checks the structural keys."""

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
        or one below ``minimum`` (when given) is a FormatError at its line."""
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

    def out_path(self, language: str, name: str) -> Path:
        return self.output_dir / language / name


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
# the per-language input files each stage reads, by config key prefix
INPUTS = {"index": ("corpus",), "bm25": ("topics",), "dense": ("query_vectors", "doc_vectors"),
          "rerank": ("topics", "corpus"), "eval": ("qrels",)}
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
# "bm25" holds the parameters bm25.k1 and bm25.b, "corpus.en" its file's path
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


def _read_values(config: ExperimentConfig, stages: set[str]) -> Values:
    """Every config value that ``stages`` read, input paths included, parsed
    before the first of them runs, so a bad value stops the call before any
    artifact is written. An error names the value's line, as
    ``ExperimentConfig.get`` does."""
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
        # unset or empty: every run the language has
        values["eval.targets"] = get("eval.targets", None, lambda raw: _names(raw, tuple(EVAL_RUNS))) or None
    for key in [key for stage, keys in INPUTS.items() if stage in stages for key in keys]:
        for language in config.languages:
            values[f"{key}.{language}"] = str(config.lang_path(key, language))
    return values


def _stage_index(config: ExperimentConfig, language: str, held: Held, values: Values) -> None:
    from . import sparse

    held[INDEX_FILE] = sparse.index_corpus(values[f"corpus.{language}"], str(config.out_path(language, INDEX_FILE)))


def _stage_bm25(config: ExperimentConfig, language: str, held: Held, values: Values) -> None:
    from . import sparse

    # a built index scores as its saved file does; no later stage needs it
    index = held.pop(INDEX_FILE, None)
    if index is None:
        index = sparse.load_index(str(_require_artifact(config.out_path(language, INDEX_FILE))))
    run = sparse.retrieve_bm25(index, values[f"topics.{language}"], values["retrieve.k"], values["bm25"])
    _save_run(config, language, "bm25", run, held)


def _stage_dense(config: ExperimentConfig, language: str, held: Held, values: Values) -> None:
    from . import dense

    vectors = values[f"query_vectors.{language}"], values[f"doc_vectors.{language}"]
    run = dense.retrieve_dense(*vectors, values["retrieve.k"], values["dense.metric"])
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

    pool = _load_run(config, language, RUN_FILES["pool"], held)
    texts = values[f"topics.{language}"], values[f"corpus.{language}"]
    run = rerank.rerank_pool(pool, *texts, values["rerank.scorer"], values["pool.k"], values["rerank.budget"])
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

    qrels = load_qrels(values[f"qrels.{language}"])
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


def _run_language(config: ExperimentConfig, language: str, stages: list[str], values: Values) -> dict:
    """Run ``stages`` for one language; its eval reports, empty without an eval stage."""
    config.out_path(language, "x").parent.mkdir(parents=True, exist_ok=True)
    held: Held = {}
    reports: dict[tuple, MetricReport] = {}
    for stage in stages:
        if stage == "eval":
            reports = _stage_eval(config, language, held, values)
        else:
            _STAGE_FUNCS[stage](config, language, held, values)
    return reports


# per language, its eval reports or the error that stopped it
Results = dict[str, "dict | BaseException"]
# a forked worker: its pid, the read end of its result pipe and its languages
Worker = tuple[int, int, list[str]]


def _run_share(config: ExperimentConfig, languages: list[str], stages: list[str], values: Values) -> Results:
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


def _fork_worker(config: ExperimentConfig, languages: list[str], stages: list[str], values: Values) -> Worker:
    """Fork a process that runs ``languages`` and writes their results, pickled,
    to a pipe. The child never returns into its caller: it ends in ``os._exit``,
    past the caller's frames and atexit handlers."""
    import pickle

    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd, languages
    status = 1
    try:
        os.close(read_fd)
        try:
            results = _run_share(config, languages, stages, values)
        except BaseException as exc:  # an interrupt: the parent raises it for each of these languages
            results = dict.fromkeys(languages, exc)
        results = {lang: _picklable(r) if isinstance(r, BaseException) else r for lang, r in results.items()}
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(results))
        status = 0
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(status)


def _reap(workers: list[Worker]) -> Results:
    """Read every worker's results and wait for it to end. A worker that ends
    without results, killed say, fails each of its languages with a
    ChildProcessError, which the CLI reports as a data error."""
    import pickle

    results: Results = {}
    for pid, read_fd, languages in workers:
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
        _, status = os.waitpid(pid, 0)
        try:
            results.update(pickle.loads(data))
        except Exception:  # nothing or a part of the results came through
            error = ChildProcessError(
                f"the worker running {', '.join(languages)} ended without a result "
                f"(wait status {status}, exit code {os.waitstatus_to_exitcode(status)})"
            )
            results.update(dict.fromkeys(languages, error))
    return results


def run_pipeline(config: ExperimentConfig) -> dict[str, dict]:
    """Run the configured stages for every language and write a summary.

    Returns {language: {(run, metric, k): MetricReport}} for languages where
    the eval stage ran, plus macro averages in the summary file.

    The languages are dealt round-robin over one process per CPU this process
    may run on, at most one per language: the caller runs ``languages[0::W]``
    and W - 1 forked workers the rest, so that with one CPU or one language
    nothing is forked. Each language runs to its end or to its own first
    error; the error of the first failing language in config order is raised
    once every language has run, and the summary is written only when none
    failed. The artifacts do not depend on W.
    """
    stages = [s for s in STAGES if s in config.stages]
    values = _read_values(config, set(stages))
    languages = config.languages
    count = _worker_count(len(languages))
    if count > 1:
        if "dense" in stages:  # once, not in each worker
            import numpy  # noqa: F401
        sys.stdout.flush()  # else each child would write the buffered text again
        sys.stderr.flush()
    workers: list[Worker] = []
    results: Results = {}
    try:
        for i in range(1, count):
            workers.append(_fork_worker(config, languages[i::count], stages, values))
        results = _run_share(config, languages[::count], stages, values)
    except BaseException:  # an interrupt: the workers' results would be discarded
        import signal

        for pid, _, _ in workers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        results.update(_reap(workers))
    for language in languages:
        if isinstance(results[language], BaseException):
            raise results[language]
    all_reports = {language: results[language] for language in languages}

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
