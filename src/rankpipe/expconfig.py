"""Flat key-value experiment configuration with a schema id.

The format is diffable provenance: ``key = value`` lines, ``#`` comments,
and a mandatory ``schema = rankpipe-exp-1`` entry. Relative paths are
resolved against the config file's directory so experiments stay portable.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

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

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.values.get(key, default)

    def require(self, key: str) -> str:
        if key not in self.values:
            raise DataError(f"config is missing required key {key!r}")
        return self.values[key]

    def get_float(self, key: str, default: float) -> float:
        raw = self.values.get(key)
        return default if raw is None else float(raw)

    def get_int(self, key: str, default: int) -> int:
        raw = self.values.get(key)
        return default if raw is None else int(raw)

    def lang_path(self, key: str, language: str) -> Path:
        return self.base_dir / self.require(f"{key}.{language}")

    def out_path(self, language: str, name: str) -> Path:
        return self.output_dir / language / name


def load_config(path: str) -> ExperimentConfig:
    values: dict[str, str] = {}
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
    )
