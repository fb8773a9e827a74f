"""SARIF 2.1.0 output for code-scanning upload.

Hand-rolled against the spec (no dependency): one run, one driver, the
registered rules as ``reportingDescriptor`` entries, and one ``result``
per finding.  The diagnostic's line-independent fingerprint rides along
as a partial fingerprint so code-scanning backends deduplicate findings
across pushes.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import get_rules

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"

#: Parse errors (WP100) are engine-level, not registry rules — give them a
#: descriptor anyway so every result's ruleId resolves.
_PARSE_RULE = {
    "id": "WP100",
    "name": "parse-error",
    "shortDescription": {"text": "file does not parse"},
    "fullDescription": {
        "text": "A file that does not parse cannot be checked against any invariant."
    },
}


def _rule_descriptors() -> list[dict[str, Any]]:
    descriptors = [_PARSE_RULE]
    for rule in get_rules():
        descriptors.append(
            {
                "id": rule.code,
                "name": rule.name,
                "shortDescription": {"text": rule.name.replace("-", " ")},
                "fullDescription": {"text": rule.rationale},
                "defaultConfiguration": {"level": "error"},
            }
        )
    return descriptors


def _result(diag: Diagnostic) -> dict[str, Any]:
    return {
        "ruleId": diag.code,
        "level": "error",
        "message": {"text": diag.message},
        "locations": [
            {
                "physicalLocation": {
                    # Relative URI: resolved against the repository root by
                    # code-scanning backends.
                    "artifactLocation": {"uri": diag.path.replace("\\", "/")},
                    "region": {
                        "startLine": max(diag.line, 1),
                        # SARIF columns are 1-based; diagnostics are 0-based.
                        "startColumn": diag.col + 1,
                    },
                }
            }
        ],
        "partialFingerprints": {"wpLint/v1": diag.fingerprint},
    }


def to_sarif(findings: Sequence[Diagnostic]) -> dict[str, Any]:
    """A complete SARIF log document for ``findings``."""
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "wp-lint",
                        "rules": _rule_descriptors(),
                    }
                },
                "results": [_result(diag) for diag in findings],
            }
        ],
    }
