"""Within one pipeline call, stages hand their runs and the index to each
other in memory.

Every artifact is still written, so a call that runs all stages must leave
the same bytes as calls that run one stage each and read their upstream
artifacts back from disk.
"""
from __future__ import annotations

import os
import re
import shutil
import time
from collections.abc import Callable
from dataclasses import replace
from pathlib import Path

import pytest

from rankpipe import pipeline, sparse
from rankpipe.cli import main
from rankpipe.pipeline import STAGES, load_config
from rankpipe.runs import read_run

from test_cli import DESK, tree_digest, write_tiny_project

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


@pytest.mark.parametrize("present", [True, False])
def test_score_file_resolves_against_the_config_directory(tmp_path, monkeypatch, capsys, present):
    cfg = _desk(tmp_path)
    lines = cfg.read_text(encoding="utf-8").splitlines()
    line = next(i for i, text in enumerate(lines, 1) if text.startswith("rerank.scorer ="))
    lines[line - 1] = "rerank.scorer = file:scores.tsv"
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    lexical = _desk(tmp_path / "lexical")
    if present:  # the lexical scorer's scores, so the reranked runs match its runs
        assert main(["pipeline", "--config", str(lexical)]) == 0
        with open(cfg.parent / "scores.tsv", "w", encoding="utf-8") as fh:
            for language in ("en", "sw", "zh"):
                run = read_run(str(lexical.parent / "out" / language / "rerank.trec"))
                for qid in run.entries:
                    fh.writelines(f"{qid}\t{docid}\t{score!r}\n" for docid, score in run.entries[qid])
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
        expected = f"{cfg}:{line}: bad value 'file:scores.tsv' for 'rerank.scorer': no file at {cfg.parent / 'scores.tsv'}"
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
