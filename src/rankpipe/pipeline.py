"""Experiment configs and stage orchestration: index -> retrieve -> fuse ->
pool -> rerank -> eval.

A config is diffable provenance: ``key = value`` lines, ``#`` comments and a
mandatory ``schema = rankpipe-exp-1``; relative paths resolve against its
directory. ``ExperimentConfig.get`` reads every value. An unknown key, and
each value the configured stages read, input files included, are checked
before the first stage runs; a bad one names the config's ``path:line``.

A stage is declared once, in ``STAGE_TABLE``: its name, the artifact it
writes in each language directory, its per-language input keys, the value
keys and the upstream stages it reads, and its body, which gets those alone.
Requested stages run in the table's order per language; every intermediate
is written in the documented formats with a provenance header (config
schema + seed, never timestamps), so rerunning the same config is
byte-identical. Within one call a stage's result is held in memory for the
later stages of its language that read it; a stage whose upstream ran in an
earlier call reads the artifact, and a missing one names the stage to run
first. Each stage imports the modules it computes with, so a call that only
evaluates or fuses starts without numpy. The languages run in parallel, one
forked ``multiprocessing`` worker per CPU, with the bytes of one process.
The workers fork from the caller before any stage runs, while it has one
thread and no numpy; numpy loads in the process that runs a dense stage.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any

from . import available_cpus, fusion
from .corpus import load_qrels
from .errors import DataError, FormatError
from .runs import DEFAULT_K, Run, check_k, read_run, write_run
from .validate import DOT, METRICS, data_lines

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

    from .metrics import MetricReport
    from .rerank import ScorerHandle
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
            if "." in key and key not in VALUE_KEYS and key.partition(".")[2] not in self.languages:
                raise FormatError(f"input key {key!r} is for a language that 'languages' does not list",
                                  path=self.path, line=self.lines.get(key))

    def get(
        self,
        key: str,
        default: Any = None,
        parse: Callable[[str], Any] = str,
        choices: tuple = (),
    ) -> Any:
        """The value of ``key`` through ``parse``, ``default`` when unset; an unset key
        whose default is REQUIRED is a FormatError naming the config's path. A value
        outside ``choices`` (when given), or one that ``parse`` rejects with a ValueError,
        is a FormatError at its line. An unknown ``key`` is a KeyError."""
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
            return parse(raw)
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


# the parsed config values of a stage's value keys, and its input paths by input name ("topics")
Values = dict[str, Any]


class Reads(dict):
    """The results of the stages that one stage reads, by stage name: those
    its language holds, and any other read from its artifact, which must
    exist. A stage it does not read has no path here, so asking for it is a
    KeyError; ``stage in reads`` tells whether a result is held or on disk."""

    def __init__(self, held: dict[str, Any], paths: dict[str, Path]) -> None:
        super().__init__((stage, held[stage]) for stage in paths if stage in held)
        self.paths = paths

    def __missing__(self, stage: str) -> Any:
        path = self.paths[stage]
        if not path.exists():
            raise DataError(f"missing artifact {path}; run stage {stage!r} first")
        if stage == "index":
            from . import sparse

            return sparse.load_index(str(path))
        return read_run(str(path))

    def __contains__(self, stage: object) -> bool:
        return super().__contains__(stage) or stage in self.paths and self.paths[stage].exists()


def _given(values: Values, **params: str) -> dict[str, Any]:
    """Each parameter of ``params`` (name=key) whose key is set, so that the layer's defaults fill the others."""
    return {param: values[key] for param, key in params.items() if values[key] is not None}


def _bm25_param(name: str, raw: str) -> float:
    """BM25 parameter ``name``, checked alone, so that an error names its line."""
    from .sparse import Bm25Params

    return getattr(Bm25Params(**{name: float(raw)}), name)


def _fuse_weights(raw: str) -> list[float]:
    weights = fusion.parse_weights(raw)
    if len(weights) != len(FUSE_LEGS):
        raise ValueError(f"expected {len(FUSE_LEGS)} weights, one per leg: {', '.join(FUSE_LEGS)}")
    return weights


def _scorer(config: ExperimentConfig, raw: str) -> ScorerHandle:
    from . import rerank

    handle = rerank.ScorerHandle.parse(raw)
    if handle.kind == rerank.SCORE_FILE:  # a score file resolves as the input paths do
        handle = replace(handle, location=str(config.input_file(handle.location)))
    return handle


# each value key and the ExperimentConfig.get call that reads it, in the order in which their
# errors are reported; get refuses any other key. A None default leaves the layer's own default.
_KEYS: dict[str, Callable[[ExperimentConfig, str], Any]] = {
    "bm25.k1": lambda config, key: config.get(key, None, lambda raw: _bm25_param("k1", raw)),
    "bm25.b": lambda config, key: config.get(key, None, lambda raw: _bm25_param("b", raw)),
    "retrieve.k": lambda config, key: config.get(key, DEFAULT_K, lambda raw: check_k(int(raw))),
    "dense.metric": lambda config, key: config.get(key, DOT, choices=METRICS),
    "fuse.weights": lambda config, key: config.get(key, [0.5, 0.5], _fuse_weights),
    "pool.k": lambda config, key: config.get(key, fusion.DEFAULT_POOL_K, lambda raw: check_k(int(raw))),
    "rerank.scorer": lambda config, key: config.get(key, None, lambda raw: _scorer(config, raw)),
    "rerank.budget": lambda config, key: config.get(key, None, lambda raw: check_k(int(raw), name="budget")),
    "eval.k": lambda config, key: config.get(key, 10, lambda raw: check_k(int(raw))),
    "eval.recall_k": lambda config, key: config.get(key, None, lambda raw: check_k(int(raw), 0)),  # unset: pool.k
    "eval.targets": lambda config, key: config.get(key, None, lambda raw: _names(raw, tuple(EVAL_RUNS))),
}
VALUE_KEYS = tuple(_KEYS)


def _is_key(key: str) -> bool:
    """A structural key, a value key, or ``<input>.<name>`` for an input key of a stage."""
    prefix, _, name = key.partition(".")
    return key in STRUCTURAL_KEYS or key in VALUE_KEYS or bool(name) and any(prefix in s.inputs for s in STAGE_TABLE)


def _read_values(config: ExperimentConfig, stages: list[Stage]) -> Values:
    """Every config value that ``stages`` read, input paths included, parsed
    before the first of them runs, so a bad value stops the call before any
    artifact is written. An error names the value's line, as
    ``ExperimentConfig.get`` does."""
    read = {key for stage in stages for key in stage.keys}
    values: Values = {key: get(config, key) for key, get in _KEYS.items() if key in read}
    for name in dict.fromkeys(name for stage in stages for name in stage.inputs):
        for language in config.languages:
            values[f"{name}.{language}"] = str(config.lang_path(name, language))
    return values


def _index(config: ExperimentConfig, language: str, reads: Reads, values: Values) -> InvertedIndex:
    from . import sparse

    return sparse.index_corpus(values["corpus"], str(config.out_path(language, "index")))


def _bm25(config: ExperimentConfig, language: str, reads: Reads, values: Values) -> Run:
    from . import sparse

    params = sparse.Bm25Params(**_given(values, k1="bm25.k1", b="bm25.b"))
    return sparse.retrieve_bm25(reads["index"], values["topics"], values["retrieve.k"], params)


def _dense(config: ExperimentConfig, language: str, reads: Reads, values: Values) -> Run:
    from . import dense

    vectors = values["query_vectors"], values["doc_vectors"]
    return dense.retrieve_dense(*vectors, values["retrieve.k"], values["dense.metric"])


def _fuse(config: ExperimentConfig, language: str, reads: Reads, values: Values) -> Run:
    legs = [reads[leg] for leg in FUSE_LEGS]
    return fusion.fuse([fusion.normalize_run(leg) for leg in legs], values["fuse.weights"])


def _pool(config: ExperimentConfig, language: str, reads: Reads, values: Values) -> Run:
    return fusion.cut_pool(reads["fuse"], values["pool.k"])


def _rerank(config: ExperimentConfig, language: str, reads: Reads, values: Values) -> Run:
    from . import rerank

    # an external scorer's processes share the CPUs with the other language workers
    cpus = max(1, available_cpus() // _worker_count(len(config.languages)))
    return rerank.rerank_pool(reads["pool"], values["topics"], values["corpus"], pool_k=values["pool.k"], cpus=cpus,
                              **_given(values, scorer="rerank.scorer", budget="rerank.budget"))


def _eval(config: ExperimentConfig, language: str, reads: Reads, values: Values) -> dict[tuple, MetricReport]:
    from . import metrics

    qrels = load_qrels(values["qrels"])
    # eval.targets unset or empty: every run the language holds or has on disk
    names = values["eval.targets"] or [name for name, stage in EVAL_RUNS.items() if stage in reads]
    if not names:
        raise DataError(f"no runs to evaluate for {language!r}; run a retrieval stage first")
    ndcg_k = values["eval.k"]
    recall_k = values["pool.k"] if values["eval.recall_k"] is None else values["eval.recall_k"]
    reports: dict[tuple[str, str, int], MetricReport] = {}
    for name in names:
        run = reads[EVAL_RUNS[name]]
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
    its per-language input files, the value keys it reads, the stages whose
    results it reads, and its body, which returns what later stages use; the
    runner writes a returned Run, other bodies their own file."""

    name: str
    artifact: str
    inputs: tuple[str, ...]
    keys: tuple[str, ...]
    reads: tuple[str, ...]
    body: Callable[[ExperimentConfig, str, Reads, Values], Any]


# every stage, in run order
STAGE_TABLE = (
    Stage("index", "index.rpidx", ("corpus",), (), (), _index),
    Stage("bm25", "bm25.trec", ("topics",), ("bm25.k1", "bm25.b", "retrieve.k"), ("index",), _bm25),
    Stage("dense", "dense.trec", ("query_vectors", "doc_vectors"), ("retrieve.k", "dense.metric"), (), _dense),
    Stage("fuse", "hybrid.trec", (), ("fuse.weights",), FUSE_LEGS, _fuse),
    Stage("pool", "pool.trec", (), ("pool.k",), ("fuse",), _pool),
    Stage("rerank", "rerank.trec", ("topics", "corpus"), ("pool.k", "rerank.scorer", "rerank.budget"), ("pool",),
          _rerank),
    Stage("eval", "metrics.tsv", ("qrels",), ("pool.k", "eval.k", "eval.recall_k", "eval.targets"),
          tuple(EVAL_RUNS.values()), _eval),
)
STAGES = tuple(stage.name for stage in STAGE_TABLE)
_ARTIFACTS = {stage.name: stage.artifact for stage in STAGE_TABLE}


def _run_language(config: ExperimentConfig, language: str, stages: list[Stage], values: Values) -> dict:
    """Run ``stages`` for one language; its eval reports, empty without an eval stage."""
    (config.output_dir / language).mkdir(parents=True, exist_ok=True)
    held: dict[str, Any] = {}
    for i, stage in enumerate(stages):
        own = {key: values[key] for key in stage.keys} | {name: values[f"{name}.{language}"] for name in stage.inputs}
        paths = {name: config.out_path(language, name) for name in stage.reads}
        result = stage.body(config, language, Reads(held, paths), own)
        # a result is held only while a later stage reads it
        later = {name for later_stage in stages[i + 1:] for name in later_stage.reads}
        held = {name: kept for name, kept in held.items() if name in later}
        if isinstance(result, Run):
            result = write_run(result, str(config.out_path(language, stage.name)), header=_header(config, stage.name))
        if stage.name in later:
            held[stage.name] = result
    return result if stages and stages[-1].name == "eval" else {}


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
    """One worker per CPU this process may run on, at most one per language."""
    return min(languages, available_cpus())


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
    language forks nothing. The workers fork before any stage runs, from the
    caller as ``_read_values`` left it, without numpy (a CLI call has one
    thread then), and a dense stage imports numpy in the process that runs
    it. Each language runs to its end or to its own first error; once all
    have run, the error of the first failing language in config order is
    raised (a worker that ends without results, killed say, is a
    ChildProcessError naming its exit code), and the summary is written only
    when none failed. The artifacts do not depend on W.
    """
    stages = [stage for stage in STAGE_TABLE if stage.name in config.stages]
    values = _read_values(config, stages)
    languages = config.languages
    count = _worker_count(len(languages))
    workers = []  # (process, read end of its pipe, its languages)
    results: Results = {}
    try:
        if count > 1:
            import multiprocessing

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

    if "eval" in config.stages:
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
