"""Within one pipeline call, stages hand their runs and the index to each
other in memory.

Every artifact is still written, so a call that runs all stages must leave
the same bytes as calls that run one stage each and read their upstream
artifacts back from disk.
"""
from __future__ import annotations

import re
import shutil
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


def _desk_with_unmatched_topic(root: Path) -> Path:
    desk = root / "desk"
    shutil.copytree(DESK, desk, ignore=shutil.ignore_patterns("out"))
    with open(desk / "en" / "topics.tsv", "a", encoding="utf-8") as fh:
        fh.write(UNMATCHED_TOPIC)
    return desk / "desk.cfg"


def _count_load_index(monkeypatch) -> list[str]:
    calls: list[str] = []
    load_index = sparse.load_index

    def counting_load_index(path):
        calls.append(Path(path).parent.name)
        return load_index(path)

    monkeypatch.setattr(sparse, "load_index", counting_load_index)
    return calls


def test_one_call_equals_one_stage_per_call(tmp_path, monkeypatch):
    loads = _count_load_index(monkeypatch)
    whole = _desk_with_unmatched_topic(tmp_path / "whole")
    pipeline.run_pipeline(load_config(str(whole)))
    # the bm25 stage scores with the index the index stage built
    assert loads == []

    staged = _desk_with_unmatched_topic(tmp_path / "staged")
    for stage in STAGES:
        pipeline.run_pipeline(load_config(str(_set_stages(staged, stage))))
    # the bm25 stage alone reads each language's index file once
    assert loads == ["en", "sw", "zh"]

    out = whole.parent / "out"
    assert tree_digest(out) == tree_digest(staged.parent / "out")
    assert {"metrics.tsv", "bm25.trec", "rerank.trec"} <= {p.name for p in (out / "en").iterdir()}
    assert (out / "summary.tsv").exists()
    # the unmatched topic has an empty BM25 result, which the file drops
    assert "en-q-none" not in read_run(str(out / "en" / "bm25.trec")).entries


def _count_read_run(monkeypatch) -> list[str]:
    calls: list[str] = []

    def counting_read_run(path):
        calls.append(Path(path).name)
        return read_run(path)

    monkeypatch.setattr(pipeline, "read_run", counting_read_run)
    return calls


def test_full_call_reads_no_run_back(tmp_path, monkeypatch):
    calls = _count_read_run(monkeypatch)
    pipeline.run_pipeline(load_config(str(write_tiny_project(tmp_path))))
    assert calls == []


def test_stage_alone_reads_its_upstream_artifacts(tmp_path, monkeypatch):
    cfg = write_tiny_project(tmp_path)
    pipeline.run_pipeline(load_config(str(_set_stages(cfg, "index,bm25,dense"))))
    calls = _count_read_run(monkeypatch)
    pipeline.run_pipeline(load_config(str(_set_stages(cfg, "fuse"))))
    assert calls == ["bm25.trec", "dense.trec"]


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
