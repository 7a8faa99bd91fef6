"""The README's CLI tour runs as written, so it cannot keep a flag the parser has dropped,
its Layout block lists exactly the package's modules, and its stage table and config key
lists are the pipeline's."""
import re
import shlex
import shutil
from pathlib import Path

from rankpipe.cli import main
from rankpipe.pipeline import STAGE_TABLE, STRUCTURAL_KEYS, VALUE_KEYS

ROOT = Path(__file__).resolve().parent.parent


def cli_tour() -> list[str]:
    """The ``rankpipe`` command lines of the README's "CLI tour" bash block,
    each with its backslash continuations joined."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## CLI tour\n", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("rankpipe ")]


def test_cli_tour_runs_on_the_desk_collection(tmp_path, monkeypatch):
    desk = tmp_path / "desk"
    shutil.copytree(ROOT / "tests" / "data" / "desk", desk)
    monkeypatch.chdir(desk)  # the tour starts with `cd tests/data/desk`
    commands = cli_tour()
    assert commands[0].startswith("rankpipe index build")
    for line in commands:
        argv = [arg.replace("/tmp/", f"{tmp_path}/") for arg in shlex.split(line)[1:]]
        assert main(argv) == 0, line


def test_layout_lists_every_module():
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Layout\n", 1)[1]
    block = section.split("```\n", 1)[1].split("```", 1)[0]
    listed = {line.split()[0] for line in block.splitlines() if line.startswith("  ") and line.split()[0].endswith(".py")}
    assert listed == {path.name for path in (ROOT / "src" / "rankpipe").glob("*.py")}


def experiment_configs() -> str:
    """The README's "Experiment configs" section, up to the next heading."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Experiment configs\n", 1)[1]
    return section.split("\n## ", 1)[0]


def test_stage_table_lists_every_stage():
    section = experiment_configs()
    rows = [line.split("|")[1:-1] for line in section.splitlines() if line.startswith("| `")]
    listed = [tuple(re.findall(r"`([^`]+)`", cell) for cell in row) for row in rows]
    assert listed == [([stage.name], list(stage.inputs), list(stage.reads), [stage.artifact]) for stage in STAGE_TABLE]


def backticked_list(text: str, lead: str) -> list[str]:
    """The backticked names in the parentheses that follow ``lead`` in ``text``."""
    match = re.search(re.escape(lead) + r" \(([^)]*)\)", " ".join(text.split()))
    assert match, lead
    return re.findall(r"`([^`]+)`", match.group(1))


def test_config_key_lists_are_the_pipeline_keys():
    section = experiment_configs()
    assert backticked_list(section, "not a structural key") == list(STRUCTURAL_KEYS)
    assert backticked_list(section, "a value key that some stage reads") == list(VALUE_KEYS)
