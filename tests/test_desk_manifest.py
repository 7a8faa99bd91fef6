"""The bytes the desk pipeline writes are pinned in ``tests/data/desk/expected.sha256``.

Every file under the desk's ``out/`` is pinned by its sha256, as ``sha256sum``
prints it, except an index: the deflate bytes of its zlib stream depend on the
zlib build, so an index is pinned by two digests instead, that of the bytes
before the stream (``PATH#head``) and that of the stream inflated
(``PATH#payload``). A change that moves an artifact on purpose rewrites the
manifest with ``PYTHONPATH=src python tests/test_desk_manifest.py``, and the
manifest's diff shows which artifacts moved.
"""
from __future__ import annotations

import hashlib
import shutil
import struct
import sys
import tempfile
import zlib
from pathlib import Path

from rankpipe.cli import main

DESK = Path(__file__).resolve().parent / "data" / "desk"
MANIFEST = DESK / "expected.sha256"
INDEX_SUFFIX = ".rpidx"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _index_digests(data: bytes) -> dict[str, str]:
    """The digests of an index's bytes before its zlib stream (the magic, the
    tokenization's name and the payload size) and of the stream inflated."""
    (policy_size,) = struct.unpack_from("<I", data, 8)
    head = 8 + 4 + policy_size + 4
    return {"#head": _sha256(data[:head]), "#payload": _sha256(zlib.decompress(data[head:]))}


def digests(out: Path) -> dict[str, str]:
    """Each file under ``out`` by its path relative to ``out``, an index split in two."""
    pinned: dict[str, str] = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        name, data = path.relative_to(out).as_posix(), path.read_bytes()
        if path.suffix == INDEX_SUFFIX:
            pinned.update({name + part: digest for part, digest in _index_digests(data).items()})
        else:
            pinned[name] = _sha256(data)
    return pinned


def desk_digests(root: Path) -> dict[str, str]:
    """Run the desk pipeline in a copy of the desk under ``root``; the digests of what it wrote."""
    desk = root / "desk"
    shutil.copytree(DESK, desk, ignore=shutil.ignore_patterns("out"))
    assert main(["pipeline", "--config", str(desk / "desk.cfg")]) == 0
    return digests(desk / "out")


def read_manifest(path: Path) -> dict[str, str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def test_desk_artifacts_are_the_pinned_bytes(tmp_path):
    assert desk_digests(tmp_path) == read_manifest(MANIFEST)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        pinned = desk_digests(Path(scratch))
    MANIFEST.write_text("".join(f"{digest}  {name}\n" for name, digest in pinned.items()), encoding="utf-8")
    print(f"pinned {len(pinned)} digests -> {MANIFEST}", file=sys.stderr)
