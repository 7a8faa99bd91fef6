"""The README's CLI tour runs as written, so it cannot keep a flag the parser has dropped."""
import shlex
import shutil
from pathlib import Path

from rankpipe.cli import main

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
