"""Finding records produced by the invariant linter."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a file location.

    The field order (path, line, col, code) is the sort order of every
    report the engine produces, so output is deterministic whatever the
    filesystem enumeration order.
    """

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        """The one-line ``path:line:col: CODE message`` text form."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form used by ``--format json``."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }
