"""Suppression pragmas and module directives.

Two comment forms are recognized:

* ``# wp-lint: disable=WP101`` (or ``disable=WP101,WP105``) — suppress the
  named codes for findings on that physical line, or anywhere within the
  same (possibly multi-line) statement: a pragma on the closing line of a
  call that spans several lines suppresses a finding anchored at the first.
  A suppression is a visible, reviewable decision at the violation site.
* ``# wp-lint: module=repro.core.whatever`` — within the first few lines of
  a file, override the module name the engine derives from the path.  This
  exists for lint's own test fixtures, which live outside ``src/`` but must
  exercise package-scoped rules.
"""

from __future__ import annotations

import ast
import re
from typing import Sequence

_DISABLE_RE = re.compile(r"#\s*wp-lint:\s*disable=([A-Za-z0-9_,\s]+)")
_MODULE_RE = re.compile(r"#\s*wp-lint:\s*module=([A-Za-z0-9_.]+)")

#: How deep into a file the ``module=`` directive is honored.
MODULE_DIRECTIVE_WINDOW = 10


def scan_pragmas(lines: Sequence[str]) -> dict[int, frozenset[str]]:
    """Map 1-based line numbers to the set of codes disabled on that line."""
    pragmas: dict[int, frozenset[str]] = {}
    for lineno, text in enumerate(lines, start=1):
        if "wp-lint" not in text:
            continue
        match = _DISABLE_RE.search(text)
        if match is None:
            continue
        codes = frozenset(
            part.strip().upper() for part in match.group(1).split(",") if part.strip()
        )
        if codes:
            pragmas[lineno] = codes
    return pragmas


def module_override(lines: Sequence[str]) -> str | None:
    """The ``module=`` directive value, if one appears near the top of file."""
    for text in lines[:MODULE_DIRECTIVE_WINDOW]:
        if "wp-lint" not in text:
            continue
        match = _MODULE_RE.search(text)
        if match is not None:
            return match.group(1)
    return None


def statement_spans(tree: ast.Module) -> list[tuple[int, int]]:
    """(first, last) line ranges of every multi-line logical statement.

    Simple statements span their full source extent; compound statements
    (``if``/``for``/``while``/``with``) span only their *header* expression,
    so a pragma inside a loop body never leaks onto the loop line.  Class
    and function definitions (and ``try``) contribute no span of their own —
    their bodies are covered by the statements inside them.
    """
    spans: list[tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, (ast.If, ast.While)):
            end = node.test.end_lineno
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            end = node.iter.end_lineno
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            end = max(item.context_expr.end_lineno or 0 for item in node.items)
        elif isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Try, ast.Match),
        ):
            continue
        else:
            end = node.end_lineno
        if end is not None and end > node.lineno:
            spans.append((node.lineno, end))
    return spans


def expand_pragmas(
    pragmas: dict[int, frozenset[str]], spans: Sequence[tuple[int, int]]
) -> dict[int, frozenset[str]]:
    """Widen line pragmas so they cover every line of their statement.

    A ``disable=`` pragma on any physical line of a multi-line statement
    suppresses findings anchored at any other line of that statement — in
    particular a pragma on the closing line of a spanning call suppresses a
    finding reported at the opening line.
    """
    if not pragmas:
        return dict(pragmas)
    merged: dict[int, set[str]] = {line: set(codes) for line, codes in pragmas.items()}
    for start, end in spans:
        codes: set[str] = set()
        for line in range(start, end + 1):
            codes |= pragmas.get(line, frozenset())
        if not codes:
            continue
        for line in range(start, end + 1):
            merged.setdefault(line, set()).update(codes)
    return {line: frozenset(codes) for line, codes in merged.items()}


def is_suppressed(code: str, line: int, pragmas: dict[int, frozenset[str]]) -> bool:
    """True iff ``code`` is disabled on ``line`` by a pragma."""
    codes = pragmas.get(line)
    return codes is not None and code.upper() in codes
