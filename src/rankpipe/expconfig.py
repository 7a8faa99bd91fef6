"""Flat key-value experiment configuration with a schema id.

The format is diffable provenance: ``key = value`` lines, ``#`` comments,
and a mandatory ``schema = rankpipe-exp-1`` entry. Relative paths are
resolved against the config file's directory so experiments stay portable.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .errors import DataError, FormatError
from .validate import data_lines

SCHEMA = "rankpipe-exp-1"

STAGES = ("index", "bm25", "dense", "fuse", "pool", "rerank", "eval")


@dataclass
class ExperimentConfig:
    base_dir: Path
    seed: int
    languages: list[str]
    stages: list[str]
    output_dir: Path
    values: dict[str, str] = field(default_factory=dict)
    path: str | None = None
    lines: dict[str, int] = field(default_factory=dict)  # key -> line it is set on

    def get(
        self,
        key: str,
        default: Any = None,
        parse: Callable[[str], Any] = str,
        choices: tuple = (),
        minimum: float | None = None,
    ) -> Any:
        """The value of ``key`` through ``parse``, ``default`` when unset; a value outside
        ``choices`` (when given), one that ``parse`` rejects with a ValueError, or one below
        ``minimum`` (when given) is a FormatError at its line."""
        raw = self.values.get(key)
        if raw is None:
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

    def require(self, key: str) -> str:
        if key not in self.values:
            raise DataError(f"config is missing required key {key!r}")
        return self.values[key]

    def lang_path(self, key: str, language: str) -> Path:
        return self.base_dir / self.require(f"{key}.{language}")

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
    if values.get("schema") != SCHEMA:
        raise DataError(f"{path}: config schema must be {SCHEMA!r}, got {values.get('schema')!r}")
    for key in ("seed", "languages", "stages", "output_dir"):
        if key not in values:
            raise DataError(f"{path}: config is missing required key {key!r}")
    stages = [s.strip() for s in values["stages"].split(",") if s.strip()]
    for stage in stages:
        if stage not in STAGES:
            raise DataError(f"{path}: unknown stage {stage!r} (known: {', '.join(STAGES)})")
    languages = [lang.strip() for lang in values["languages"].split(",") if lang.strip()]
    if not languages:
        raise DataError(f"{path}: no languages configured")
    if len(set(languages)) != len(languages):  # summary.tsv would macro-average a language twice
        raise FormatError(f"languages {values['languages']!r} repeat a language", path=path, line=lines["languages"])
    base_dir = Path(path).resolve().parent
    try:
        seed = int(values["seed"])
    except ValueError:
        raise DataError(f"{path}: seed must be an integer") from None
    return ExperimentConfig(
        base_dir=base_dir,
        seed=seed,
        languages=languages,
        stages=stages,
        output_dir=base_dir / values["output_dir"],
        values=values,
        path=path,
        lines=lines,
    )
