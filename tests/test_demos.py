"""The demo scripts run cleanly, and the reference scorer decodes the
scorer protocol's escaping exactly as the package does."""
import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rankpipe.rerank import escape_text, unescape_text

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))

# the protocol's special characters, so escapes and look-alikes meet often
PROTOCOL_TEXT = st.text(alphabet="ab nt\\\t\n") | st.text()


def _load_example_scorer():
    spec = importlib.util.spec_from_file_location("example_scorer", ROOT / "demos" / "example_scorer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


example_scorer = _load_example_scorer()


@pytest.fixture(scope="module")
def demo_root(tmp_path_factory):
    """A copy of demos/ beside the desk collection, which demo 07 reads."""
    root = tmp_path_factory.mktemp("demo-copy")
    shutil.copytree(ROOT / "demos", root / "demos", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests" / "data" / "desk", root / "tests" / "data" / "desk",
                    ignore=shutil.ignore_patterns("out"))
    return root


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo_root, demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(demo_root)  # the demos' scratch directories land in the copy
    result = subprocess.run([sys.executable, demo.name], cwd=demo_root / "demos", env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


@given(PROTOCOL_TEXT)
def test_example_scorer_unescape_round_trips(text):
    escaped = escape_text(text)
    assert "\t" not in escaped and "\n" not in escaped
    assert example_scorer.unescape(escaped) == text == unescape_text(escaped)


@given(PROTOCOL_TEXT)
def test_example_scorer_unescape_matches_package(text):
    assert example_scorer.unescape(text) == unescape_text(text)
