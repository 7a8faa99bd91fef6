#!/usr/bin/env python3
"""rankpipe benchmark: seeded workloads through the CLI, checked against oracles.

    python3 perfbench/run.py --workload retrieval --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all        # every workload, human-readable

Workloads (see BENCHMARK.json for why each exists): ``retrieval``,
``rerank`` and ``cli-tour``. Inputs come from ``gen.py`` and depend only on
``--seed``.

``--trace 0`` runs the workload's CLI calls as child processes with
``sys.executable -m rankpipe.cli`` and this checkout's ``src`` first on
PYTHONPATH, one child at a time: the set-up calls three times, then passes
over the timed calls until ``--seconds`` have elapsed. It checks the outputs
and prints the end-to-end metrics, medians across set-ups and passes.

``--trace 1`` makes the same calls in-process through ``rankpipe.cli.main``
(a ``pipeline`` call one configured stage at a time): one set-up and one
pass to warm up, then untraced, traced and untraced again. It prints the per-layer metrics from the traced pass; the traced time
minus the mean untraced time is the tracing overhead.

End-to-end metrics, reported by every workload:

  setup_s      set-up calls, median of three set-ups: retrieval `index build`
               per language; rerank `pipeline` with stages index..pool;
               cli-tour a warm-up `--version`
  pass_s       timed calls, median over passes: retrieval `pipeline` with
               stages bm25..eval (pipeline_s); rerank lexical and external
               rerank plus forge, ensemble and eval (rerank_lexical_s,
               rerank_external_s, downstream_s); cli-tour three `--version`
               calls (startup_s is their median) and every subcommand once
               (cli_tour_s)
  peak_rss_mb  largest peak RSS of any one CLI call
  index_mb     size of the .rpidx files, in 10^6 bytes

The per-workload parts named in parentheses and ``error_rate`` (failed over
attempted operations) are printed and recorded too. Layers and the metric
they should move: tokenization and index build/save move setup_s on
retrieval; index load, BM25, dense search, fusion and run IO move pass_s on
retrieval and setup_s on rerank; rerank, forge, ensemble and metrics move
pass_s on rerank; ``cli.import_s`` moves everything on cli-tour, where a
compute change should show nothing. Index layout moves index_mb and
peak_rss_mb against pass_s.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A record of each run
(calls, rusage, checks, versions, input sizes) and the spans of traced runs
are written under ``.bench_out/``; scratch files live in ``.bench_work/``
and are removed on exit.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import random
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import gen
import oracle
import scorer
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_REPS = 3
CALL_TIMEOUT_S = 60
TOLERANCE = 1e-9
ORACLE_SAMPLE = 4  # BM25-checked queries per language
ORACLE_DEPTH = 20


@dataclass(frozen=True)
class Step:
    label: str
    argv: tuple
    group: str  # the metric the call's wall time counts toward


@dataclass
class Call:
    label: str
    group: str
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    exit: int


@dataclass
class Checks:
    results: list = field(default_factory=list)

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append({"check": name, "ok": bool(ok), "detail": detail})
        if not ok:
            print(f"CHECK FAILED: {name}: {detail}", file=sys.stderr)

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.results)


def _write_config(path: Path, seed: int, g: gen.Generated, stages: str, **values) -> None:
    lines = ["schema = rankpipe-exp-1", f"seed = {seed}", f"languages = {','.join(g.files)}",
             f"stages = {stages}", "output_dir = ."]
    lines += [f"{key} = {value}" for key, value in values.items()]
    for lang, f in g.files.items():
        lines += [f"corpus.{lang} = {f.corpus}", f"topics.{lang} = {f.topics}", f"qrels.{lang} = {f.qrels}",
                  f"query_vectors.{lang} = {f.query_vectors}", f"doc_vectors.{lang} = {f.doc_vectors}"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _digests(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file() and p.suffix != ".cfg"
    }


class Workload:
    """One workload: its set-up calls, its timed calls and its output checks."""

    name = ""
    external_scorer = False

    def __init__(self, seed: int, inputs: Path):
        self.seed = seed
        start = time.perf_counter()
        self.g = gen.generate(self.name, seed, inputs)
        self.phases = {"generate": time.perf_counter() - start}  # wall seconds per benchmark phase
        self.scorer_cmd = shlex.join([sys.executable, str(HERE / "scorer.py")])

    def prepare_setup(self, d: Path) -> None:
        d.mkdir(parents=True, exist_ok=True)

    def setup_steps(self, d: Path) -> list[Step]:
        raise NotImplementedError

    def prepare_pass(self, setup: Path, d: Path) -> None:
        d.mkdir(parents=True, exist_ok=True)

    def pass_steps(self, setup: Path, d: Path) -> list[Step]:
        raise NotImplementedError

    def index_files(self, setup: Path, d: Path) -> list[Path]:
        return [setup / lang / "index.rpidx" for lang in self.g.files]

    def check(self, setup: Path, d: Path, ck: Checks) -> None:
        raise NotImplementedError

    def validate_step(self, setup: Path, d: Path) -> Step:
        inputs = [p for f in self.g.files.values() for p in vars(f).values()]
        artifacts = sorted(p for base in (setup, d) for p in base.rglob("*") if p.name.endswith((".trec", ".pairs.tsv")))
        return Step("validate", ("validate", *inputs, *artifacts), "check")

    # shared checks

    def check_planted(self, ck: Checks, lang: str, bm25_path: Path, dense_path: Path) -> None:
        for leg, path, planted in (("bm25", bm25_path, self.g.lexical), ("dense", dense_path, self.g.dense)):
            run = oracle.read_run(path)
            qids = self.g.collections[lang].queries
            wrong = [q for q in qids if not run.get(q) or run[q][0][0] != planted[q]]
            ck.expect(f"{lang} {leg} planted rank 1", not wrong, f"{len(wrong)} of {len(qids)} queries: {wrong[:3]}")

    def check_bm25_oracle(self, ck: Checks, lang: str, bm25_path: Path) -> None:
        run = oracle.read_run(bm25_path)
        base = self.g.collections[lang]
        qids = random.Random(f"{self.seed}-{lang}").sample(sorted(base.queries), ORACLE_SAMPLE)
        for coll in (base, dataclasses.replace(base, split_scripts=True, _tf={})):
            bad = _bm25_mismatches(coll, run, qids)
            if not bad:
                break
        ck.expect(f"{lang} bm25 equals exhaustive oracle", not bad, f"queries {bad}")

    def check_metrics_file(self, ck: Checks, lang: str, d: Path, runs: dict[str, str], k: int) -> None:
        """Compare the pipeline's nDCG@k per run with the oracle's."""
        lines = [line.split("\t") for line in (d / lang / "metrics.tsv").read_text(encoding="utf-8").splitlines()
                 if line and not line.startswith("#")]
        rows = [dict(zip(lines[0], line)) for line in lines[1:]]
        reported = {r["run"]: float(r["mean"]) for r in rows if r["metric"] == "ndcg" and r["k"] == str(k)}
        for name, filename in runs.items():
            want = self.mean_ndcg(lang, d / lang / filename, k)
            ck.expect(f"{lang} {name} ndcg@{k} equals oracle", _close(reported.get(name, -1.0), want),
                      f"reported {reported.get(name)} oracle {want}")

    def mean_ndcg(self, lang: str, run_path: Path, k: int) -> float:
        qrels = self.g.collections[lang].qrels
        values = [oracle.ndcg([d for d, _ in ranked], qrels.get(qid, {}), k)
                  for qid, ranked in oracle.read_run(run_path).items()]
        values = [v for v in values if v is not None]
        return sum(values) / len(values)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE * max(1.0, abs(b))


def _bm25_mismatches(coll: oracle.Collection, run: dict, qids: list[str]) -> list[str]:
    """Queries whose top results differ from exhaustive scoring, in score at
    each rank or in the score of the passage the run put there."""
    df, avgdl = coll.document_frequencies(), coll.avgdl()
    bad = []
    for qid in qids:
        expected = coll.bm25_rank(qid, ORACLE_DEPTH, df, avgdl)
        got = run.get(qid, [])[:ORACLE_DEPTH]
        terms = sorted(set(oracle.tokenize(coll.queries[qid], split_scripts=coll.split_scripts)))
        if len(got) != len(expected) or not all(
            _close(score, want) and _close(score, coll.bm25_score(docid, terms, df, avgdl))
            for (docid, score), (_, want) in zip(got, expected)
        ):
            bad.append(qid)
    return bad


def _eval_mean(path: Path) -> float:
    """The mean from the first line of `rankpipe eval --out`."""
    return float(path.read_text(encoding="utf-8").split("\n")[0].split("\t")[1])


class Retrieval(Workload):
    name = "retrieval"

    def prepare_setup(self, d):
        for lang in self.g.files:
            (d / lang).mkdir(parents=True, exist_ok=True)

    def setup_steps(self, d):
        return [Step(f"index build {lang}", ("index", "build", "--corpus", f.corpus, "--out", d / lang / "index.rpidx"),
                     "setup") for lang, f in self.g.files.items()]

    def prepare_pass(self, setup, d):
        for lang in self.g.files:
            (d / lang).mkdir(parents=True, exist_ok=True)
            shutil.copyfile(setup / lang / "index.rpidx", d / lang / "index.rpidx")
        _write_config(d / "exp.cfg", self.seed, self.g, "bm25,dense,fuse,pool,eval",
                      **{"retrieve.k": 1000, "pool.k": 100, "eval.k": 10})

    def pass_steps(self, setup, d):
        return [Step("pipeline", ("pipeline", "--config", d / "exp.cfg"), "pipeline_s")]

    def check(self, setup, d, ck):
        for lang in self.g.files:
            self.check_planted(ck, lang, d / lang / "bm25.trec", d / lang / "dense.trec")
            self.check_bm25_oracle(ck, lang, d / lang / "bm25.trec")
            self.check_metrics_file(ck, lang, d, {"bm25": "bm25.trec", "dense": "dense.trec",
                                                  "hybrid": "hybrid.trec"}, 10)


class Rerank(Workload):
    name = "rerank"
    external_scorer = True
    LEXICAL_POOL_K = 5
    EXTERNAL_POOL_K = 300

    def prepare_setup(self, d):
        d.mkdir(parents=True, exist_ok=True)
        _write_config(d / "setup.cfg", self.seed, self.g, "index,bm25,dense,fuse,pool",
                      **{"retrieve.k": 1000, "pool.k": self.EXTERNAL_POOL_K})

    def setup_steps(self, d):
        return [Step("pipeline index..pool", ("pipeline", "--config", d / "setup.cfg"), "setup")]

    def pass_steps(self, setup, d):
        (lang, f), = self.g.files.items()
        pool = setup / lang / "pool.trec"
        lexical, external = d / "rerank-lexical.trec", d / "rerank-external.trec"
        rerank = ("rerank", "--pool", pool, "--topics", f.topics, "--corpus", f.corpus)
        seed = str(self.seed)
        return [
            Step("rerank lexical", (*rerank, "--scorer", "lexical", "--pool-k", self.LEXICAL_POOL_K,
                                    "--out", lexical), "rerank_lexical_s"),
            Step("rerank external", (*rerank, "--scorer", f"cmd:{self.scorer_cmd}",
                                     "--pool-k", self.EXTERNAL_POOL_K, "--out", external), "rerank_external_s"),
            Step("forge negatives", ("forge", "negatives", "--pool", pool, "--qrels", f.qrels, "--topics", f.topics,
                                     "-n", 20, "--seed", seed, "--out", d / "negatives.pairs.tsv"), "downstream_s"),
            Step("forge q2q2d", ("forge", "q2q2d", "--test-topics", f.test_topics, "--train-topics", f.topics,
                                 "--train-qrels", f.qrels, "--query-vectors", f.all_query_vectors,
                                 "--seed", seed, "--out", d / "q2q2d.pairs.tsv"), "downstream_s"),
            Step("forge pseudo", ("forge", "pseudo", "--run", lexical, "--topics", f.topics, "--seed", seed,
                                  "--out", d / "pseudo.pairs.tsv"), "downstream_s"),
            Step("ensemble", ("ensemble", "--runs", lexical, external, "--base-weights", "0.6,0.4",
                              "--out", d / "ensemble.trec"), "downstream_s"),
            Step("eval", ("eval", "--run", d / "ensemble.trec", "--qrels", f.qrels, "--metric", "ndcg", "-k", 10,
                          "--out", d / "eval.tsv"), "downstream_s"),
        ]

    def check(self, setup, d, ck):
        (lang, _), = self.g.files.items()
        coll = self.g.collections[lang]
        self.check_planted(ck, lang, setup / lang / "bm25.trec", setup / lang / "dense.trec")
        self.check_bm25_oracle(ck, lang, setup / lang / "bm25.trec")

        external = oracle.read_run(d / "rerank-external.trec")
        pairs = [(q, doc, s) for q, ranked in external.items() for doc, s in ranked]
        wrong = [(q, doc) for q, doc, s in pairs
                 if s != scorer.score(oracle.pair_text(coll.queries[q], *coll.docs[doc]))]
        ck.expect("external scores equal recomputed scores", pairs and not wrong,
                  f"{len(wrong)} of {len(pairs)} pairs: {wrong[:3]}")

        pool = oracle.read_run(setup / lang / "pool.trec")
        lexical = oracle.read_run(d / "rerank-lexical.trec")
        wrong = [q for q, ranked in pool.items()
                 if self.g.lexical[q] in [doc for doc, _ in ranked[: self.LEXICAL_POOL_K]]
                 and lexical[q][0] != (self.g.lexical[q], 1.0)]
        ck.expect("lexical rerank puts the planted match first", not wrong, f"queries {wrong[:3]}")

        reported = _eval_mean(d / "eval.tsv")
        want = self.mean_ndcg(lang, d / "ensemble.trec", 10)
        ck.expect("ensemble ndcg@10 equals oracle", _close(reported, want), f"reported {reported} oracle {want}")


class CliTour(Workload):
    name = "cli-tour"
    STARTUP_CALLS = 3

    def setup_steps(self, d):
        return [Step("--version warm-up", ("--version",), "setup")]

    def prepare_pass(self, setup, d):
        (d / "pipe").mkdir(parents=True, exist_ok=True)
        _write_config(d / "pipe" / "exp.cfg", self.seed, self.g, "index,bm25,dense,fuse,pool,rerank,eval",
                      **{"retrieve.k": 50, "pool.k": 20, "eval.k": 10, "eval.recall_k": 20})

    def pass_steps(self, setup, d):
        lang, f = next(iter(self.g.files.items()))
        seed = str(self.seed)
        steps = [Step("--version", ("--version",), "startup_s")] * self.STARTUP_CALLS
        tour = [
            ("index build", ("index", "build", "--corpus", f.corpus, "--out", d / "tour.rpidx",
                             "--script-policy", "auto")),
            ("retrieve bm25", ("retrieve", "bm25", "--index", d / "tour.rpidx", "--topics", f.topics, "-k", 50,
                               "--out", d / "bm25.trec")),
            ("retrieve dense", ("retrieve", "dense", "--queries", f.query_vectors, "--docs", f.doc_vectors,
                                "--metric", "dot", "-k", 50, "--out", d / "dense.trec")),
            ("fuse", ("fuse", "--runs", d / "bm25.trec", d / "dense.trec", "--weights", "0.5,0.5",
                      "--normalize", "minmax", "-k", 50, "--out", d / "pool.trec")),
            ("forge negatives", ("forge", "negatives", "--pool", d / "pool.trec", "--qrels", f.qrels,
                                 "--topics", f.topics, "-n", 10, "--seed", seed, "--out", d / "neg.pairs.tsv")),
            ("forge q2q2d", ("forge", "q2q2d", "--test-topics", f.test_topics, "--train-topics", f.topics,
                             "--train-qrels", f.qrels, "--query-vectors", f.all_query_vectors,
                             "--seed", seed, "--out", d / "q2q2d.pairs.tsv")),
            ("forge pseudo", ("forge", "pseudo", "--run", d / "pool.trec", "--topics", f.topics, "--seed", seed,
                              "--out", d / "pseudo.pairs.tsv")),
            ("rerank", ("rerank", "--pool", d / "pool.trec", "--topics", f.topics, "--corpus", f.corpus,
                        "--scorer", "lexical", "--out", d / "rerank.trec")),
            ("ensemble", ("ensemble", "--runs", d / "rerank.trec", d / "pool.trec",
                          "--base-weights", "0.802,0.730", "--lambda", 0.5, "--out", d / "ens.trec")),
            ("eval", ("eval", "--run", d / "pool.trec", "--qrels", f.qrels, "--metric", "recall", "-k", 50,
                      "--out", d / "eval.tsv")),
            ("validate", ("validate", d / "pool.trec", d / "neg.pairs.tsv", f.qrels)),
            ("stats", ("stats", "--corpus", f.corpus, "--language", lang, "--topics", f"train={f.topics}",
                       "--qrels", f"train={f.qrels}")),
            ("pipeline", ("pipeline", "--config", d / "pipe" / "exp.cfg")),
        ]
        return steps + [Step(label, argv, "cli_tour_s") for label, argv in tour]

    def index_files(self, setup, d):
        return [d / "tour.rpidx"] + sorted((d / "pipe").glob("*/index.rpidx"))

    def check(self, setup, d, ck):
        lang = next(iter(self.g.files))
        self.check_planted(ck, lang, d / "bm25.trec", d / "dense.trec")
        self.check_bm25_oracle(ck, lang, d / "bm25.trec")
        qrels = self.g.collections[lang].qrels
        values = [oracle.recall([doc for doc, _ in ranked], qrels.get(q, {}), 50)
                  for q, ranked in oracle.read_run(d / "pool.trec").items()]
        values = [v for v in values if v is not None]
        reported = _eval_mean(d / "eval.tsv")
        ck.expect(f"{lang} pool recall@50 equals oracle", _close(reported, sum(values) / len(values)),
                  f"reported {reported}")
        for lang in self.g.files:
            self.check_planted(ck, lang, d / "pipe" / lang / "bm25.trec", d / "pipe" / lang / "dense.trec")
            self.check_metrics_file(ck, lang, d / "pipe", {"bm25": "bm25.trec", "dense": "dense.trec",
                                                           "hybrid": "hybrid.trec", "rerank": "rerank.trec"}, 10)


WORKLOADS = {w.name: w for w in (Retrieval, Rerank, CliTour)}


def _check_outputs(wl: Workload, setup: Path, d: Path, ck: Checks) -> None:
    # outputs a failed call left missing or malformed count as one failed check
    try:
        wl.check(setup, d, ck)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        ck.expect("outputs readable", False, repr(exc))


# running the CLI

def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _kill_group(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


def call_cli(step: Step, env: dict[str, str], log) -> Call:
    """Run one CLI call as a child process; rusage comes from wait4 on that
    child alone, so peak RSS and CPU are attributed to this call."""
    argv = [sys.executable, "-m", "rankpipe.cli", *map(str, step.argv)]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=log,
                            start_new_session=True)
    timer = threading.Timer(CALL_TIMEOUT_S, _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        print(f"CALL FAILED ({proc.returncode}): {step.label}", file=sys.stderr)
    return Call(step.label, step.group, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                proc.returncode)


def call_inprocess(step: Step, tracer: spans.Tracer | None = None) -> int:
    """Run one CLI call through ``rankpipe.cli.main``. A ``pipeline`` call runs
    one configured stage at a time, each under a ``pipeline.<stage>`` span."""
    from rankpipe import cli

    argvs = [[str(a) for a in step.argv]]
    stages = [None]
    if step.argv[0] == "pipeline":
        stages, configs = _stage_configs(Path(step.argv[2]))
        argvs = [["pipeline", "--config", str(c)] for c in configs]
    code = 0
    with contextlib.redirect_stdout(io.StringIO()):
        for stage, argv in zip(stages, argvs):
            with tracer.span(f"pipeline.{stage}") if tracer and stage else contextlib.nullcontext():
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:
                    traceback.print_exc()
                    code = 1
            if code != 0:
                if tracer and stage:
                    tracer.count("pipeline.errors")
                break
    return code


def _stage_configs(config: Path) -> tuple[list[str], list[Path]]:
    """One copy of an experiment config per configured stage, beside it, so
    the stages share the output directory."""
    lines = config.read_text(encoding="utf-8").splitlines()
    stages_line = next(i for i, line in enumerate(lines) if line.split("=")[0].strip() == "stages")
    stages = [s.strip() for s in lines[stages_line].split("=", 1)[1].split(",") if s.strip()]
    paths = []
    for stage in stages:
        lines[stages_line] = f"stages = {stage}"
        path = config.with_suffix(f".{stage}.cfg")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
    return stages, paths


# untraced run

def _median_sum(groups: list[list[Call]], group: str | None = None) -> float:
    return statistics.median(sum(c.wall_s for c in calls if group in (None, c.group)) for calls in groups)


def run_untraced(wl: Workload, work: Path, seconds: float, ck: Checks) -> tuple[dict, list[Call]]:
    env = _child_env()
    with open(work / "stderr.log", "ab") as log:
        setups: list[list[Call]] = []
        for rep in range(SETUP_REPS):
            d = work / f"setup{rep}"
            wl.prepare_setup(d)
            setups.append([call_cli(s, env, log) for s in wl.setup_steps(d)])
        setup = work / "setup0"
        setup_digests = _digests(setup)
        for rep in range(1, SETUP_REPS):
            ck.expect(f"set-up {rep} byte-identical to set-up 0", _digests(work / f"setup{rep}") == setup_digests)

        passes: list[list[Call]] = []
        first = work / "pass0"
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            d = work / f"pass{len(passes)}"
            wl.prepare_pass(setup, d)
            passes.append([call_cli(s, env, log) for s in wl.pass_steps(setup, d)])
            if d != first:
                ck.expect(f"pass {len(passes) - 1} byte-identical to pass 0", _digests(d) == _digests(first))
                shutil.rmtree(d)
        wl.phases["passes"] = time.perf_counter() - start
        validate = call_cli(wl.validate_step(setup, first), env, log)
        start = time.perf_counter()
        _check_outputs(wl, setup, first, ck)
        wl.phases["checks"] = time.perf_counter() - start
        _check_against_store(wl, {"setup": setup_digests, "pass": _digests(first)}, ck)
        index_bytes = sum(p.stat().st_size for p in wl.index_files(setup, first))
    calls = [c for rep in setups for c in rep] + [c for p in passes for c in p] + [validate]
    for c in calls:
        ck.expect(f"{c.label} exits 0", c.exit == 0, f"exit {c.exit}")

    metrics = {
        "setup_s": _median_sum(setups),
        "pass_s": _median_sum(passes),
        "peak_rss_mb": max(c.maxrss_mb for c in calls),
        "index_mb": index_bytes / 1e6,
        "pass_cpu_s": statistics.median(sum(c.cpu_s for c in p) for p in passes),
        "setups": len(setups),
        "passes": len(passes),
    }
    for group in sorted({c.group for c in passes[0]} - {"startup_s"}):
        metrics[group] = _median_sum(passes, group)
    startup = [c.wall_s for p in passes for c in p if c.group == "startup_s"]
    if startup:
        metrics["startup_s"] = statistics.median(startup)
    return metrics, calls


# traced run

def _measure_import(env: dict[str, str], reps: int = 3) -> float:
    """`import rankpipe` in a fresh interpreter minus a bare interpreter."""
    def wall(code: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        return time.perf_counter() - start

    bare, full = [], []
    for _ in range(reps):
        bare.append(wall("pass"))
        full.append(wall("import rankpipe"))
    return statistics.median(full) - statistics.median(bare)


def _measure_handshake(command: str, reps: int = 3) -> float:
    """Launch the external scorer and wait for READY, as the rerank layer does."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        proc = subprocess.Popen(shlex.split(command), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        proc.stdin.write("HELLO 1\n")
        proc.stdin.flush()
        ready = proc.stdout.readline()
        times.append(time.perf_counter() - start)
        proc.stdin.close()
        proc.wait(timeout=10)
        if ready.strip() != "READY 1":
            raise RuntimeError(f"scorer handshake failed: {ready!r}")
    return statistics.median(times)


def _inprocess_pass(wl: Workload, base: Path, tracer: spans.Tracer | None, ck: Checks) -> float:
    """One set-up and one pass in-process; returns the wall time of the calls."""
    setup, d = base / "setup0", base / "pass0"
    elapsed = 0.0

    def run(steps: list[Step]) -> None:
        nonlocal elapsed
        for step in steps:
            start = time.perf_counter()
            if tracer is None:
                code = call_inprocess(step)
            else:
                with tracer.span(f"cli.{step.label}"):
                    code = call_inprocess(step, tracer)
                if code != 0:
                    tracer.count("cli.errors")
            elapsed += time.perf_counter() - start
            ck.expect(f"{step.label} exits 0 in-process", code == 0, f"exit {code}")

    with spans.instrument(tracer) if tracer else contextlib.nullcontext():
        wl.prepare_setup(setup)
        run(wl.setup_steps(setup))
        wl.prepare_pass(setup, d)
        run(wl.pass_steps(setup, d) + [wl.validate_step(setup, d)])
    return elapsed


def run_traced(wl: Workload, work: Path, ck: Checks, run_id: str) -> tuple[dict, spans.Tracer]:
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))  # this checkout's sources, as the CLI children get them
    import rankpipe.cli  # noqa: F401  (import cost is measured separately, in a fresh interpreter)

    env = _child_env()
    tracer = spans.Tracer(run_id)
    # the first pass warms caches and lazy set-up; the traced pass sits between two untraced ones
    _inprocess_pass(wl, work / "warm-up", None, ck)
    before = _inprocess_pass(wl, work / "untraced", None, ck)
    traced = _inprocess_pass(wl, work / "traced", tracer, ck)
    untraced = (before + _inprocess_pass(wl, work / "untraced-again", None, ck)) / 2
    texts = [f"{t} {b}" for c in wl.g.collections.values() for t, b in c.docs.values()]
    spans.probe_tokenization(tracer, texts)

    traced_digests = {"setup": _digests(work / "traced" / "setup0"), "pass": _digests(work / "traced" / "pass0")}
    for other in ("warm-up", "untraced", "untraced-again"):
        ck.expect(f"traced artifacts equal {other} artifacts",
                  traced_digests == {"setup": _digests(work / other / "setup0"),
                                     "pass": _digests(work / other / "pass0")})
    _check_against_store(wl, traced_digests, ck)
    _check_outputs(wl, work / "traced" / "setup0", work / "traced" / "pass0", ck)

    handshake = _measure_handshake(wl.scorer_cmd) if wl.external_scorer else None
    metrics = spans.layer_metrics(tracer, handshake)
    metrics["cli.import_s"] = _measure_import(env)
    metrics["trace.untraced_s"] = untraced
    metrics["trace.traced_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_share"] = (traced - untraced) / untraced
    metrics["trace.spans"] = len(tracer.spans)
    return metrics, tracer


# digests remembered across invocations, keyed by workload, seed, program and benchmark sources

def _source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def _check_against_store(wl: Workload, digests: dict, ck: Checks) -> None:
    path = OUT / "digests" / f"{wl.name}-seed{wl.seed}-{_source_digest()}.json"
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        ck.expect("artifacts byte-identical to an earlier run of this seed and source", earlier == digests)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(digests, indent=1, sort_keys=True), encoding="utf-8")


# reporting

def _environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = result.stdout.strip() or None

    def version(package: str) -> str | None:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": sha,
        "source_digest": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "platform": platform.platform(),
    }


UNITS = {
    "pipeline_s": "s", "rerank_lexical_s": "s", "rerank_external_s": "s", "downstream_s": "s",
    "startup_s": "s", "cli_tour_s": "s", "pass_cpu_s": "s", "error_rate": "ratio",
    "setups": "count", "passes": "count",
}


def _unit(name: str, declared: dict[str, str]) -> str:
    if name in declared:
        return declared[name]
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms_p50") or name.endswith("_ms_p95"):
        return "ms"
    if name.endswith("_us_per_pair"):
        return "us"
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def run_workload(name: str, seed: int, seconds: float, traced: bool, spec: dict) -> dict:
    """Run one workload and return its result object (the printed JSON line)."""
    run_id = f"{name}-seed{seed}-trace{int(traced)}-{os.getpid()}"
    work = WORK / run_id
    ck = Checks()
    started = time.perf_counter()
    try:
        wl = WORKLOADS[name](seed, work / "inputs")
        if traced:
            metrics, tracer = run_traced(wl, work, ck, run_id)
            calls = []
        else:
            metrics, call_list = run_untraced(wl, work, seconds, ck)
            calls = [asdict(c) for c in call_list]
            tracer = None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # every call is checked for its exit code, so checks count the operations
    attempted, failed = len(ck.results), ck.failed
    metrics["error_rate"] = failed / attempted
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    absent = [m for m in declared if metrics.get(m) is None]
    if absent and not traced:
        raise RuntimeError(f"workload {name} produced no value for {absent}")
    if absent:
        # a layer call the program no longer makes took no time and did no work
        print(f"warning: no spans for {absent}; reported as 0", file=sys.stderr)
        metrics.update(dict.fromkeys(absent, 0.0))

    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{int(traced)}"
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
              "elapsed_s": time.perf_counter() - started, "environment": _environment(),
              "inputs": wl.g.sizes, "phases_s": wl.phases, "absent": absent,
              "hook_errors": tracer.hook_errors if tracer else [], "metrics": metrics, "calls": calls, "checks": ck.results}
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer is not None:
        with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for rec in tracer.records():
                fh.write(json.dumps(rec, ensure_ascii=False) + "\n")

    print(f"== {name}  seed {seed}  trace {int(traced)}  ({attempted} operations, {failed} failed)")
    for key in sorted(metrics):
        value = metrics[key]
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {key:34s} {shown:>14s} {_unit(key, declared)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": unit} for m, unit in declared.items()},
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args(argv)
    if not (SRC / "rankpipe" / "cli.py").is_file():
        print(f"error: no rankpipe sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), spec) for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
