"""Command-line entry point: ``python -m repro.lint [paths] --format text|json|sarif``.

Exit codes: 0 — clean (every finding exempted or suppressed);
1 — at least one finding; 2 — usage or I/O error.

Defaults (paths, per-path rule exemptions) are set once in
``pyproject.toml`` so CI, pre-commit hooks, and developers all run the
same invocation::

    [tool.wp-lint]
    paths = ["src", "benchmarks", "examples"]

    [tool.wp-lint.exempt]
    # path prefix -> rule codes that do not apply under it
    "benchmarks/bench_crypto_ops.py" = ["WP103"]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Sequence

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import lint_paths
from repro.lint.registry import get_rules
from repro.lint.sarif import to_sarif

try:  # pragma: no cover - tomllib ships with 3.11+
    import tomllib
except ImportError:  # pragma: no cover
    tomllib = None  # type: ignore[assignment]


def _load_config(start_dir: str) -> dict[str, Any]:
    """``[tool.wp-lint]`` from the nearest pyproject.toml at/above start_dir."""
    if tomllib is None:
        return {}
    current = os.path.abspath(start_dir)
    while True:
        candidate = os.path.join(current, "pyproject.toml")
        if os.path.isfile(candidate):
            try:
                with open(candidate, "rb") as fh:
                    data = tomllib.load(fh)
            except (OSError, tomllib.TOMLDecodeError):
                return {}
            section = data.get("tool", {}).get("wp-lint", {})
            return section if isinstance(section, dict) else {}
        parent = os.path.dirname(current)
        if parent == current:
            return {}
        current = parent


def _exemption_map(config: dict[str, Any]) -> dict[str, frozenset[str]]:
    """Normalized ``[tool.wp-lint.exempt]``: path prefix -> exempt codes."""
    raw = config.get("exempt", {})
    if not isinstance(raw, dict):
        return {}
    exempt: dict[str, frozenset[str]] = {}
    for prefix, codes in raw.items():
        if isinstance(prefix, str) and isinstance(codes, (list, tuple)):
            normal = os.path.normpath(prefix).replace(os.sep, "/")
            exempt[normal] = frozenset(str(code) for code in codes)
    return exempt


def split_exempt(
    findings: Sequence[Diagnostic], exempt: dict[str, frozenset[str]]
) -> tuple[list[Diagnostic], list[Diagnostic]]:
    """Partition findings into (kept, exempted) by the per-path map."""
    if not exempt:
        return list(findings), []
    kept: list[Diagnostic] = []
    dropped: list[Diagnostic] = []
    for diag in findings:
        path = os.path.normpath(diag.path).replace(os.sep, "/")
        hit = any(
            diag.code in codes
            and (path == prefix or path.startswith(prefix.rstrip("/") + "/"))
            for prefix, codes in exempt.items()
        )
        (dropped if hit else kept).append(diag)
    return kept, dropped


def _build_parser() -> argparse.ArgumentParser:
    codes = [rule.code for rule in get_rules()]
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=f"WhoPay invariant checker (rules {codes[0]}-{codes[-1]}).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: [tool.wp-lint] paths, else src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for rule in get_rules():
            print(f"{rule.code}  {rule.name} [{rule.scope}]")
            print(f"       {rule.rationale}")
        return 0

    config = _load_config(os.getcwd())
    paths = list(args.paths) or list(config.get("paths", [])) or ["src"]
    exempt = _exemption_map(config)

    try:
        result = lint_paths(paths)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    findings, exempted = split_exempt(result.findings, exempt)

    if args.format == "json":
        print(
            json.dumps(
                {
                    "version": 1,
                    "checked_files": result.checked_files,
                    "suppressed": result.suppressed,
                    "exempted": [diag.to_json() for diag in exempted],
                    "findings": [diag.to_json() for diag in findings],
                },
                indent=2,
                sort_keys=True,
            )
        )
    elif args.format == "sarif":
        print(json.dumps(to_sarif(findings), indent=2, sort_keys=True))
    else:
        for diag in findings:
            print(diag.format_text())
        summary = (
            f"{len(findings)} finding(s), {result.suppressed} suppressed, "
            f"{len(exempted)} exempted across {result.checked_files} file(s)"
        )
        print(("FAIL: " if findings else "ok: ") + summary)

    return 1 if findings else 0
