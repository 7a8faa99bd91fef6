"""Exception types shared across the toolkit."""
from __future__ import annotations


class DataError(Exception):
    """Malformed input data or violated data invariant (CLI exit code 2)."""


class FormatError(DataError):
    """File-format violation, optionally pinned to a path and line number."""

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        self.message = message
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:" if line is None else f"{path}:{line}:"
        elif line is not None:
            prefix = f"line {line}:"
        super().__init__(f"{prefix} {message}" if prefix else message)


class ProtocolError(Exception):
    """External scorer wire-protocol violation (CLI exit code 3)."""
