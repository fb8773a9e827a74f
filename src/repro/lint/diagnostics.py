"""Diagnostic records: what a rule found, where, and its stable identity.

A diagnostic's *fingerprint* deliberately excludes the line number: a
code-scanning backend that deduplicates findings across pushes (the SARIF
output carries it) must see the same finding after unrelated edits shift
the code up or down.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding: ``path:line:col: CODE message``."""

    path: str
    line: int
    col: int
    code: str
    message: str

    @property
    def fingerprint(self) -> str:
        """Stable identity across pushes (line-number independent)."""
        raw = f"{self.code}|{self.path}|{self.message}"
        return hashlib.sha1(raw.encode("utf-8")).hexdigest()[:16]

    def format_text(self) -> str:
        """The classic compiler-style one-liner (clickable in editors)."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_json(self) -> dict[str, Any]:
        """JSON-ready dict (used by ``--format json``)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }
