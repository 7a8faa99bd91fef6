"""The whole pipeline on the bundled trilingual collection, from one config.

Stages: index -> bm25 -> dense -> fuse -> pool -> rerank -> eval, per
language, all derived from a single seed. The bundled collection plants one
lexical and one semantic relevant per query, so the hybrid run provably
beats both single legs.

Equivalent CLI: rankpipe pipeline --config <copy>/desk.cfg
"""
import shutil
import tempfile
from pathlib import Path

from rankpipe.pipeline import load_config, run_pipeline

DESK = Path(__file__).resolve().parent.parent / "tests" / "data" / "desk"

scratch = Path(tempfile.mkdtemp(prefix="rankpipe-demo-"))
shutil.copytree(DESK, scratch / "desk", ignore=shutil.ignore_patterns("out", "__pycache__"))

config = load_config(scratch / "desk" / "desk.cfg")
print(f"languages: {config.languages}, stages: {config.stages}, seed: {config.seed}")

reports = run_pipeline(config)

print(f"\n{'lang':6} {'run':8} {'metric':10} {'mean':>8}")
for language in config.languages:
    for (run_name, metric, k), report in sorted(reports[language].items()):
        print(f"{language:6} {run_name:8} {metric + '@' + str(k):10} {report.mean:8.4f}")

print(f"\nartifacts: {config.output_dir}")
print((config.output_dir / "summary.tsv").read_text(), end="")
# rerunning with the same config writes byte-identical artifacts
