"""Within one pipeline call, stages hand their runs and the index to each
other in memory.

Every artifact is still written, so a call that runs all stages must leave
the same bytes as calls that run one stage each and read their upstream
artifacts back from disk.
"""
from __future__ import annotations

import itertools
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
import weakref
from collections.abc import Callable
from dataclasses import replace
from pathlib import Path

import pytest

from rankpipe import pipeline, sparse
from rankpipe.cli import main
from rankpipe.pipeline import STAGES, load_config
from rankpipe.runs import read_run, sort_ranked

from helpers import NUL_SIBLINGS, write_vectors
from test_cli import DESK, tree_digest, write_tiny_project

SRC = Path(__file__).resolve().parent.parent / "src"
# a topic none of whose terms occurs in the English desk passages
UNMATCHED_TOPIC = "en-q-none\tzyzzyva quokkaesque\n"


def _set_stages(cfg: Path, stages: str) -> Path:
    text = re.sub(r"(?m)^stages = .*$", f"stages = {stages}", cfg.read_text(encoding="utf-8"))
    cfg.write_text(text, encoding="utf-8")
    return cfg


def _desk(root: Path) -> Path:
    desk = root / "desk"
    shutil.copytree(DESK, desk, ignore=shutil.ignore_patterns("out"))
    return desk / "desk.cfg"


def _desk_with_unmatched_topic(root: Path) -> Path:
    cfg = _desk(root)
    with open(cfg.parent / "en" / "topics.tsv", "a", encoding="utf-8") as fh:
        fh.write(UNMATCHED_TOPIC)
    return cfg


def _count_calls(monkeypatch, module, name: str, log: Path) -> Callable[[], list[str]]:
    """Patch ``module.name`` to append the file name of its path argument and
    that of its directory to ``log`` on each call, so that the calls of forked
    workers count too; returns a reader of the logged names, sorted, since
    workers log in no fixed order."""
    original = getattr(module, name)

    def counting(path, *args):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{Path(path).parent.name}/{Path(path).name}\n")
        return original(path, *args)

    monkeypatch.setattr(module, name, counting)
    log.touch()
    return lambda: sorted(log.read_text(encoding="utf-8").split())


def test_one_call_equals_one_stage_per_call(tmp_path, monkeypatch):
    loads = _count_calls(monkeypatch, sparse, "load_index", tmp_path / "load_index.log")
    whole = _desk_with_unmatched_topic(tmp_path / "whole")
    pipeline.run_pipeline(load_config(str(whole)))
    # the bm25 stage scores with the index the index stage built
    assert loads() == []

    staged = _desk_with_unmatched_topic(tmp_path / "staged")
    for stage in STAGES:
        pipeline.run_pipeline(load_config(str(_set_stages(staged, stage))))
    # the bm25 stage alone reads each language's index file once
    assert loads() == ["en/index.rpidx", "sw/index.rpidx", "zh/index.rpidx"]

    out = whole.parent / "out"
    assert tree_digest(out) == tree_digest(staged.parent / "out")
    assert {"metrics.tsv", "bm25.trec", "rerank.trec"} <= {p.name for p in (out / "en").iterdir()}
    assert (out / "summary.tsv").exists()
    # the unmatched topic has an empty BM25 result, which the file drops
    assert "en-q-none" not in read_run(str(out / "en" / "bm25.trec")).entries


def test_full_call_reads_no_run_back(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, pipeline, "read_run", tmp_path / "read_run.log")
    pipeline.run_pipeline(load_config(str(_desk(tmp_path))))
    assert calls() == []


def test_stage_alone_reads_its_upstream_artifacts(tmp_path, monkeypatch):
    cfg = write_tiny_project(tmp_path)
    pipeline.run_pipeline(load_config(str(_set_stages(cfg, "index,bm25,dense"))))
    calls = _count_calls(monkeypatch, pipeline, "read_run", tmp_path / "read_run.log")
    pipeline.run_pipeline(load_config(str(_set_stages(cfg, "fuse"))))
    assert calls() == ["xx/bm25.trec", "xx/dense.trec"]


def _nul_siblings_project(root: Path) -> Path:
    """The tiny one-language project with the NUL_SIBLINGS documents: their
    texts share terms with the two topics, their vectors tie in sibling pairs,
    and q2's vector reverses q1's dense order."""
    cfg = write_tiny_project(root)
    texts = ["albatross zephyr", "albatross", "quasar obsidian", "quasar", "zephyr obsidian"]
    docs = [{"docid": docid, "title": "", "text": text} for (docid, _), text in zip(NUL_SIBLINGS, texts)]
    (root / "corpus.jsonl").write_text("".join(json.dumps(doc) + "\n" for doc in docs), encoding="utf-8")
    (root / "qrels.txt").write_text("q1 Q0 a 1\nq2 Q0 b\x00\x00 1\n", encoding="utf-8")
    write_vectors(root / "queries.vec.tsv", [("q1", [1.0]), ("q2", [-1.0])])
    write_vectors(root / "docs.vec.tsv", [(docid, [value]) for docid, value in NUL_SIBLINGS])
    return cfg


@pytest.mark.parametrize("project", [_desk, _nul_siblings_project], ids=["desk", "nul-siblings"])
def test_every_run_a_stage_hands_to_write_run_is_in_canonical_order(tmp_path, monkeypatch, project):
    config = load_config(str(project(tmp_path)))
    _cpus(monkeypatch, 1)  # one process, so that every call is seen here
    handed, write_run = [], pipeline.write_run

    def recording(run, path, *args, **kwargs):
        entries = {qid: list(ranked) for qid, ranked in run.entries.items()}
        handed.append((f"{Path(path).parent.name}/{Path(path).name}", entries))
        return write_run(run, path, *args, **kwargs)

    monkeypatch.setattr(pipeline, "write_run", recording)
    pipeline.run_pipeline(config)
    stages = ("bm25", "dense", "hybrid", "pool", "rerank")
    assert sorted(name for name, _ in handed) == sorted(
        f"{language}/{stage}.trec" for language in config.languages for stage in stages)
    for name, entries in handed:
        for qid, ranked in entries.items():
            assert ranked == sort_ranked(ranked[:]), (name, qid)


# the value keys each stage read before the stage table declared them, copied
# from the chain of per-stage tests that read them, in the order it read them
KEY_ORDER = ("bm25.k1", "bm25.b", "retrieve.k", "dense.metric", "fuse.weights", "pool.k", "rerank.scorer",
             "rerank.budget", "eval.k", "eval.recall_k", "eval.targets")
KEYS_READ = {
    "index": set(),
    "bm25": {"bm25.k1", "bm25.b", "retrieve.k"},
    "dense": {"retrieve.k", "dense.metric"},
    "fuse": {"fuse.weights"},
    "pool": {"pool.k"},
    "rerank": {"pool.k", "rerank.scorer", "rerank.budget"},
    "eval": {"pool.k", "eval.k", "eval.recall_k", "eval.targets"},
}


def test_every_stage_set_reads_the_keys_of_its_stages_once_in_order(monkeypatch):
    config = load_config(str(DESK / "desk.cfg"))
    asked: list[str] = []
    get = pipeline.ExperimentConfig.get

    def recording(self, key, *args, **kwargs):
        asked.append(key)
        return get(self, key, *args, **kwargs)

    monkeypatch.setattr(pipeline.ExperimentConfig, "get", recording)
    subsets = [names for size in range(1, len(STAGES) + 1) for names in itertools.combinations(STAGES, size)]
    assert len(subsets) == 127
    for names in subsets:
        asked.clear()
        pipeline._read_values(config, [stage for stage in pipeline.STAGE_TABLE if stage.name in names])
        value_keys = [key for key in asked if key.partition(".")[2] not in config.languages]
        assert value_keys == [key for key in KEY_ORDER if any(key in KEYS_READ[name] for name in names)], names


# what the pool stage does not declare, though the call reads the value and holds the run
@pytest.mark.parametrize("ask", [lambda reads, values: values["retrieve.k"], lambda reads, values: reads["bm25"]],
                         ids=["value", "run"])
def test_a_body_asking_for_what_its_stage_does_not_declare_is_a_key_error(tmp_path, monkeypatch, ask):
    pool = _body("pool")

    def asking_pool(config, language, reads, values):
        ask(reads, values)
        return pool(config, language, reads, values)

    _set_body(monkeypatch, "pool", asking_pool)
    with pytest.raises(KeyError):
        pipeline.run_pipeline(load_config(str(_set_stages(_desk(tmp_path), "index,bm25,dense,fuse,pool"))))


def test_a_run_is_held_only_while_a_later_stage_reads_it(tmp_path, monkeypatch):
    _cpus(monkeypatch, 1)  # every language in this process
    fuse, pool = _body("fuse"), _body("pool")
    legs: list[weakref.ref] = []
    alive: list[bool] = []

    def noting_fuse(config, language, reads, values):
        legs.append(weakref.ref(reads["bm25"]))
        return fuse(config, language, reads, values)

    def checking_pool(config, language, reads, values):
        alive.append(legs[-1]() is not None)
        return pool(config, language, reads, values)

    _set_body(monkeypatch, "fuse", noting_fuse)
    _set_body(monkeypatch, "pool", checking_pool)
    # no eval stage, so no stage after fuse reads the bm25 run
    pipeline.run_pipeline(load_config(str(_set_stages(_desk(tmp_path), "index,bm25,dense,fuse,pool,rerank"))))
    assert alive == [False, False, False]


def _body(name: str) -> Callable:
    return next(stage.body for stage in pipeline.STAGE_TABLE if stage.name == name)


def _set_body(monkeypatch, name: str, body: Callable) -> None:
    """Make the pipeline run ``body`` for stage ``name``."""
    table = tuple(replace(stage, body=body) if stage.name == name else stage for stage in pipeline.STAGE_TABLE)
    monkeypatch.setattr(pipeline, "STAGE_TABLE", table)


def _cpus(monkeypatch, count: int) -> list[int]:
    """Make the pipeline see ``count`` CPUs; returns the pids it forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    forked: list[int] = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return forked


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_count_changes_no_byte(tmp_path, monkeypatch, capsys):
    cfg = _desk(tmp_path)
    out = cfg.parent / "out"
    digests, stdouts, forks = [], [], []
    for cpus in (1, 3):
        forked = _cpus(monkeypatch, cpus)
        shutil.rmtree(out, ignore_errors=True)
        assert main(["pipeline", "--config", str(cfg)]) == 0
        digests.append(tree_digest(out))
        stdouts.append(capsys.readouterr().out)
        forks.append(len(forked))
        _assert_no_child_left()
    # one CPU forks nothing; three run en here and sw and zh in two workers
    assert forks == [0, 2]
    assert digests[0] == digests[1]
    assert stdouts[0] == stdouts[1]
    assert "summary.tsv" in digests[0]


# runs the scorer script named by its second argument, keeping a file named
# by its pid in the directory named by its first while it runs, and logging
# how many such files it saw at its start
COUNTING_SCORER = """\
import os, runpy, signal, sys
running, script = sys.argv[1:]
mine = os.path.join(running, str(os.getpid()))
open(mine, "w").close()
with open(running + ".log", "a") as fh:
    fh.write(f"{len(os.listdir(running))}\\n")
signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
try:
    sys.argv = [script]
    runpy.run_path(script, run_name="__main__")
finally:
    os.remove(mine)
"""


def test_external_scorers_change_no_byte_and_stay_within_the_cpus(tmp_path, monkeypatch, capsys):
    cfg = _desk(tmp_path)
    out, running = cfg.parent / "out", tmp_path / "running"
    (tmp_path / "counting.py").write_text(COUNTING_SCORER, encoding="utf-8")
    reference = Path(__file__).resolve().parent.parent / "demos" / "example_scorer.py"
    command = shlex.join([sys.executable, str(tmp_path / "counting.py"), str(running), str(reference)])
    text = re.sub(r"(?m)^rerank.scorer = .*$", f"rerank.scorer = cmd:{command}", cfg.read_text(encoding="utf-8"))
    cfg.write_text(text, encoding="utf-8")
    digests = []
    # 6 CPUs: three language workers with two scorers each
    for cpus in (1, 3, 6):
        _cpus(monkeypatch, cpus)
        running.mkdir()
        shutil.rmtree(out, ignore_errors=True)
        assert main(["pipeline", "--config", str(cfg)]) == 0
        digests.append(tree_digest(out))
        seen = [int(n) for n in Path(f"{running}.log").read_text(encoding="utf-8").split()]
        # one rerank per language, each with its share of the CPUs: 1, 1 and 2 scorers
        assert len(seen) == 3 * max(1, cpus // 3) and max(seen) <= cpus, (cpus, seen)
        assert not any(running.iterdir())
        shutil.rmtree(running)
        Path(f"{running}.log").unlink()
        _assert_no_child_left()
    capsys.readouterr()
    assert digests[0] == digests[1] == digests[2]
    assert "rerank-ext" in (out / "en" / "rerank.trec").read_text(encoding="utf-8")


def _break_docid(cfg: Path, language: str) -> Path:
    corpus = cfg.parent / language / "corpus.jsonl"
    text = corpus.read_text(encoding="utf-8")
    corpus.write_text(text.replace(f'"{language}-dl0"', f'"{language} dl0"', 1), encoding="utf-8")
    return corpus


@pytest.mark.parametrize("cpus", [1, 3])
def test_failing_language_leaves_the_others_complete(tmp_path, monkeypatch, capsys, cpus):
    clean = _desk(tmp_path / "clean")
    assert main(["pipeline", "--config", str(clean)]) == 0
    capsys.readouterr()
    forked = _cpus(monkeypatch, cpus)

    cfg = _desk(tmp_path / "sw")
    corpus = _break_docid(cfg, "sw")
    assert main(["pipeline", "--config", str(cfg)]) == 2
    assert f"{corpus}:1: docid 'sw dl0'" in capsys.readouterr().err
    _assert_no_child_left()
    out, clean_out = cfg.parent / "out", clean.parent / "out"
    # the languages after the failing one run to their end as in a clean run
    for language in ("en", "zh"):
        assert tree_digest(out / language) == tree_digest(clean_out / language), language
    assert not (out / "summary.tsv").exists()

    # the error raised is that of the first failing language in config order
    cfg = _desk(tmp_path / "en-zh")
    en, zh = _break_docid(cfg, "en"), _break_docid(cfg, "zh")
    assert main(["pipeline", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{en}:1: docid 'en dl0'" in err and str(zh) not in err
    assert tree_digest(cfg.parent / "out" / "sw") == tree_digest(clean_out / "sw")
    _assert_no_child_left()
    assert len(forked) == (0 if cpus == 1 else 4)


def test_crashed_worker_is_an_error_naming_its_languages(tmp_path, monkeypatch, capsys):
    forked = _cpus(monkeypatch, 3)
    bm25 = _body("bm25")
    caller = os.getpid()

    def crashing_bm25(config, language, held, values):
        if language == "zh" and os.getpid() != caller:  # never ends the test process
            os._exit(9)
        return bm25(config, language, held, values)

    _set_body(monkeypatch, "bm25", crashing_bm25)
    cfg = _desk(tmp_path)
    start = time.monotonic()
    assert main(["pipeline", "--config", str(cfg)]) == 2
    assert time.monotonic() - start < 60
    err = capsys.readouterr().err
    assert "error: the worker running zh ended without a result" in err and "exit code 9" in err
    assert "Traceback" not in err
    assert len(forked) == 2
    _assert_no_child_left()
    assert (cfg.parent / "out" / "sw" / "metrics.tsv").exists()
    assert not (cfg.parent / "out" / "summary.tsv").exists()


def test_interrupt_kills_the_workers(tmp_path, monkeypatch):
    forked = _cpus(monkeypatch, 3)
    bm25 = _body("bm25")
    caller = os.getpid()

    def slow_bm25(config, language, held, values):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(60)
        return bm25(config, language, held, values)

    _set_body(monkeypatch, "bm25", slow_bm25)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        pipeline.run_pipeline(load_config(str(_desk(tmp_path))))
    assert time.monotonic() - start < 30
    assert len(forked) == 2
    _assert_no_child_left()


class UnpicklableError(Exception):
    """An error that does not survive pickling: it holds a lambda."""

    def __init__(self, message: str):
        super().__init__(message)
        self.hook = lambda: None


def test_unpicklable_worker_error_is_a_data_error_naming_its_type(tmp_path, monkeypatch, capsys):
    forked = _cpus(monkeypatch, 3)
    bm25 = _body("bm25")

    def failing_bm25(config, language, held, values):
        if language == "zh":  # run by the second worker
            raise UnpicklableError("zh cannot be scored")
        return bm25(config, language, held, values)

    _set_body(monkeypatch, "bm25", failing_bm25)
    cfg = _desk(tmp_path)
    assert main(["pipeline", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "error: UnpicklableError: zh cannot be scored" in err
    assert "Traceback" not in err
    assert len(forked) == 2
    _assert_no_child_left()
    assert not (cfg.parent / "out" / "summary.tsv").exists()


def test_platform_without_cpu_affinity_forks_nothing(tmp_path, monkeypatch, capsys):
    cfg = _desk(tmp_path)
    out = cfg.parent / "out"
    forked = _cpus(monkeypatch, 3)
    assert main(["pipeline", "--config", str(cfg)]) == 0
    digest, stdout = tree_digest(out), capsys.readouterr().out
    shutil.rmtree(out)
    monkeypatch.delattr(os, "sched_getaffinity")
    assert main(["pipeline", "--config", str(cfg)]) == 0
    # only the call at 3 CPUs forked its two workers
    assert len(forked) == 2
    assert tree_digest(out) == digest
    assert capsys.readouterr().out == stdout
    _assert_no_child_left()


# runs the desk pipeline named by its argument at three CPUs, printing for
# each fork the caller's thread count and whether numpy was loaded
FORK_PROBE = """\
import json, os, sys
from rankpipe.cli import main
os.sched_getaffinity = lambda pid: {0, 1, 2}
seen, fork = [], os.fork
def probing_fork():
    seen.append((len(os.listdir("/proc/self/task")), "numpy" in sys.modules))
    return fork()
os.fork = probing_fork
code = main(["pipeline", "--config", sys.argv[1]])
print(json.dumps([code, seen]))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
def test_workers_fork_from_one_thread_without_numpy(tmp_path):
    cfg = _desk(tmp_path)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    result = subprocess.run([sys.executable, "-c", FORK_PROBE, str(cfg)], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    # two workers for sw and zh, each forked before any stage, dense included, ran
    assert json.loads(result.stdout.splitlines()[-1]) == [0, [[1, False], [1, False]]]
    assert result.stderr == ""


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# one CLI call; prints its exit code, the BLAS variables at numpy's import
# and after the call, and the threads the process ends with
BLAS_PROBE = """\
import json, os, sys
VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
at_import = []
class Probe:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name == "numpy":
            at_import.append({v: os.environ.get(v) for v in VARIABLES})
sys.meta_path.insert(0, Probe)
from rankpipe.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, at_import, {v: os.environ.get(v) for v in VARIABLES}, len(os.listdir("/proc/self/task"))]))
"""


def _probe_env(**blas: str) -> dict[str, str]:
    """This environment without the BLAS thread variables, plus ``blas``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return {**env, **blas}


def _blas_probe(argv: list[str], env: dict[str, str]) -> list:
    result = subprocess.run([sys.executable, "-c", BLAS_PROBE, *argv], env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def _dense_calls(tmp_path: Path) -> dict[str, list[str]]:
    en = DESK / "en"
    return {
        "retrieve dense": ["retrieve", "dense", "--queries", str(en / "queries.vec.tsv"),
                           "--docs", str(en / "docs.vec.tsv"), "--out", str(tmp_path / "dense.trec")],
        "forge q2q2d": ["forge", "q2q2d", "--test-topics", str(en / "topics.tsv"), "--train-topics",
                        str(en / "topics.tsv"), "--train-qrels", str(en / "qrels.txt"),
                        "--query-vectors", str(en / "queries.vec.tsv"), "--out", str(tmp_path / "q2q2d.pairs.tsv")],
    }


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
@pytest.mark.parametrize("call", ["retrieve dense", "forge q2q2d"])
def test_numpy_loads_through_dense_with_one_blas_thread(tmp_path, call):
    # numpy sees one thread in each variable, the call ends with one thread,
    # and the variables are gone again after the import
    unset = dict.fromkeys(BLAS_VARIABLES)
    assert _blas_probe(_dense_calls(tmp_path)[call], _probe_env()) == [0, [dict.fromkeys(BLAS_VARIABLES, "1")], unset, 1]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
def test_a_blas_thread_count_the_user_set_is_kept(tmp_path):
    kept = {**dict.fromkeys(BLAS_VARIABLES), "OPENBLAS_NUM_THREADS": "2"}
    code, at_import, after, _ = _blas_probe(_dense_calls(tmp_path)["retrieve dense"], _probe_env(OPENBLAS_NUM_THREADS="2"))
    assert (code, at_import, after) == (0, [kept], kept)


# the desk pipeline on three CPUs, so with two workers; each process notes
# its threads once its dense stage ran, and each external scorer the BLAS
# variables it inherited
DENSE_STAGE_PROBE = """\
import json, os, sys
from dataclasses import replace
from rankpipe import pipeline
from rankpipe.cli import main
os.sched_getaffinity = lambda pid: {0, 1, 2}
def noting(body):
    def run(config, language, held, values):
        result = body(config, language, held, values)
        with open(sys.argv[2], "a", encoding="utf-8") as fh:
            fh.write(json.dumps([language, len(os.listdir("/proc/self/task"))]) + "\\n")
        return result
    return run
pipeline.STAGE_TABLE = tuple(replace(s, body=noting(s.body)) if s.name == "dense" else s for s in pipeline.STAGE_TABLE)
sys.exit(main(["pipeline", "--config", sys.argv[1]]))
"""

# notes the BLAS variables it inherited, then scores as the reference scorer
ENV_SCORER = """\
import json, os, runpy, sys
with open(sys.argv[1], "a", encoding="utf-8") as fh:
    fh.write(json.dumps({v: os.environ.get(v) for v in sys.argv[3:]}) + "\\n")
runpy.run_path(sys.argv[2], run_name="__main__")
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
def test_pipeline_workers_run_dense_on_one_thread_and_scorers_inherit_the_callers_environment(tmp_path):
    cfg = _desk(tmp_path)
    scorer = tmp_path / "env_scorer.py"
    scorer.write_text(ENV_SCORER, encoding="utf-8")
    example = Path(__file__).resolve().parent.parent / "demos" / "example_scorer.py"
    command = shlex.join([sys.executable, str(scorer), str(tmp_path / "scorers.jsonl"), str(example), *BLAS_VARIABLES])
    lines = cfg.read_text(encoding="utf-8").splitlines()
    cfg.write_text("\n".join(f"rerank.scorer = cmd:{command}" if line.startswith("rerank.scorer =") else line
                             for line in lines) + "\n", encoding="utf-8")
    result = subprocess.run([sys.executable, "-c", DENSE_STAGE_PROBE, str(cfg), str(tmp_path / "dense.jsonl")],
                            env=_probe_env(), capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    noted = [json.loads(line) for line in (tmp_path / "dense.jsonl").read_text(encoding="utf-8").splitlines()]
    assert sorted(noted) == [["en", 1], ["sw", 1], ["zh", 1]]
    scorers = [json.loads(line) for line in (tmp_path / "scorers.jsonl").read_text(encoding="utf-8").splitlines()]
    assert scorers and all(env == dict.fromkeys(BLAS_VARIABLES) for env in scorers)


@pytest.mark.parametrize("present", [True, False])
def test_score_file_resolves_against_the_config_directory(tmp_path, monkeypatch, capsys, present):
    cfg = _desk(tmp_path)
    lines = cfg.read_text(encoding="utf-8").splitlines()
    line = next(i for i, text in enumerate(lines, 1) if text.startswith("rerank.scorer ="))
    lines[line - 1] = "rerank.scorer = file:scores.trec"
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    lexical = _desk(tmp_path / "lexical")
    if present:  # the lexical scorer's runs, headers and all, so the reranked runs match them
        assert main(["pipeline", "--config", str(lexical)]) == 0
        (cfg.parent / "scores.trec").write_text(
            "".join((lexical.parent / "out" / language / "rerank.trec").read_text(encoding="utf-8")
                    for language in ("en", "sw", "zh")), encoding="utf-8")
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    capsys.readouterr()
    if present:
        assert main(["pipeline", "--config", str(cfg)]) == 0
        for language in ("en", "sw", "zh"):
            reranked = read_run(str(cfg.parent / "out" / language / "rerank.trec"))
            assert reranked.entries == read_run(str(lexical.parent / "out" / language / "rerank.trec")).entries
    else:
        assert main(["pipeline", "--config", str(cfg)]) == 2
        expected = f"{cfg}:{line}: bad value 'file:scores.trec' for 'rerank.scorer': no file at {cfg.parent / 'scores.trec'}"
        assert expected in capsys.readouterr().err
        assert not (cfg.parent / "out").exists()


def test_fusion_overflow_is_blamed_on_the_scores(tmp_path, capsys):
    # finite dense scores of +-1.7e308 whose min-max span overflows; in one
    # call no later stage re-reads hybrid.trec, so the fuse stage must stop
    cfg = write_tiny_project(tmp_path)
    (tmp_path / "queries.vec.tsv").write_text("q1\t1e154,0.0\nq2\t0.0,1.0\n", encoding="utf-8")
    (tmp_path / "docs.vec.tsv").write_text(
        "".join(f"d{i}\t{x},0.0\n" for i, x in enumerate(["1.7e154", "-1.7e154", "0.0"], 1)), encoding="utf-8"
    )
    assert main(["pipeline", "--config", str(cfg)]) == 2
    assert "query 'q1' span more than the float range" in capsys.readouterr().err
    assert not (tmp_path / "out" / "xx" / "hybrid.trec").exists()


@pytest.mark.parametrize("key, value", [("fuse.weights", "-1,2"), ("eval.k", "0")])
def test_bad_config_value_stops_the_call_before_any_artifact(tmp_path, capsys, key, value):
    desk = tmp_path / "desk"
    shutil.copytree(DESK, desk, ignore=shutil.ignore_patterns("out"))
    cfg = desk / "desk.cfg"
    lines = cfg.read_text(encoding="utf-8").splitlines()
    line = next(i for i, text in enumerate(lines, 1) if text.startswith(f"{key} ="))
    lines[line - 1] = f"{key} = {value}"
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["pipeline", "--config", str(cfg)]) == 2
    assert f"{cfg}:{line}: bad value {value!r} for {key!r}" in capsys.readouterr().err
    assert [p for p in (desk / "out").rglob("*") if p.is_file()] == []


@pytest.mark.parametrize("fault", ["key", "file"])
def test_second_language_input_fault_stops_the_call_before_any_artifact(tmp_path, capsys, fault):
    desk = tmp_path / "desk"
    shutil.copytree(DESK, desk, ignore=shutil.ignore_patterns("out"))
    cfg = desk / "desk.cfg"
    lines = cfg.read_text(encoding="utf-8").splitlines()
    line = next(i for i, text in enumerate(lines, 1) if text.startswith("topics.sw ="))
    if fault == "key":
        del lines[line - 1]
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected = f"{cfg}: missing required key 'topics.sw'"
    else:
        (desk / "sw" / "topics.tsv").unlink()
        expected = f"{cfg}:{line}: bad value 'sw/topics.tsv' for 'topics.sw': no file at"
    assert main(["pipeline", "--config", str(cfg)]) == 2
    assert expected in capsys.readouterr().err
    assert not (desk / "out").exists()


@pytest.mark.parametrize(
    "bad_line, message",
    [("seed 7", "expected 'key = value'"), (" = 7", "empty key"), ("seed = 8", "duplicate key 'seed'")],
    ids=["no-equals", "empty-key", "repeated-key"],
)
def test_config_line_that_is_not_one_new_key_is_an_error_at_its_line(tmp_path, capsys, bad_line, message):
    cfg = write_tiny_project(tmp_path)
    lines = cfg.read_text(encoding="utf-8").splitlines()
    cfg.write_text("\n".join([*lines[:2], bad_line, *lines[2:]]) + "\n", encoding="utf-8")
    assert main(["pipeline", "--config", str(cfg)]) == 2
    assert f"{cfg}:3: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_eval_stage_without_a_run_is_a_data_error(tmp_path, capsys):
    cfg = _set_stages(write_tiny_project(tmp_path), "eval")
    assert main(["pipeline", "--config", str(cfg)]) == 2
    assert "no runs to evaluate for 'xx'; run a retrieval stage first" in capsys.readouterr().err
