"""CLI behavior and the self-check: the committed tree lints clean."""

from __future__ import annotations

import json
import os
import re

import pytest

from repro.lint.cli import main, split_exempt
from repro.lint import lint_sources
from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import get_rules
from repro.lint.sarif import SARIF_VERSION

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
SRC = os.path.join(HERE, "..", "..", "src")
REPO = os.path.abspath(os.path.join(HERE, "..", ".."))

#: The committed tree's reviewed exceptions, pinned: a rule that silently
#: stops firing moves one of these, where "zero findings" would not notice.
PRAGMA_SITES = [
    ("src/repro/dht/kademlia.py", 60, "WP105"),
    ("src/repro/sim/runner.py", 88, "WP102"),
    ("src/repro/sim/runner.py", 92, "WP102"),
    ("src/repro/sim/runner.py", 101, "WP102"),
    ("src/repro/sim/runner.py", 103, "WP102"),
]
EXEMPTED = [
    ("benchmarks/bench_crypto_ops.py", 119, "WP103"),
    ("benchmarks/bench_crypto_ops.py", 197, "WP103"),
    ("benchmarks/bench_crypto_ops.py", 203, "WP103"),
    ("benchmarks/bench_crypto_ops.py", 203, "WP103"),
    ("benchmarks/bench_crypto_ops.py", 228, "WP103"),
    ("benchmarks/bench_crypto_ops.py", 228, "WP103"),
    ("benchmarks/bench_crypto_ops.py", 229, "WP103"),
    ("benchmarks/bench_crypto_ops.py", 229, "WP103"),
    ("benchmarks/bench_crypto_ops.py", 230, "WP103"),
    ("benchmarks/bench_crypto_ops.py", 230, "WP103"),
    ("examples/threshold_judges.py", 30, "WP111"),
    ("examples/threshold_judges.py", 57, "WP111"),
]


def test_self_check_committed_tree_is_clean(capsys):
    """`python -m repro.lint src/` exits 0 with zero findings."""
    code = main([SRC, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["findings"] == []
    assert payload["checked_files"] > 60


def test_committed_tree_is_pinned(monkeypatch, capsys):
    """The configured paths: no finding, and exactly the reviewed exceptions."""
    monkeypatch.chdir(REPO)
    code = main(["--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["findings"] == []
    assert payload["suppressed"] == len(PRAGMA_SITES)
    assert [(d["path"], d["line"], d["code"]) for d in payload["exempted"]] == EXEMPTED


@pytest.mark.parametrize("path,line,code", PRAGMA_SITES)
def test_each_pragma_still_suppresses_a_finding(path, line, code):
    """Without its pragma, a site yields exactly one finding: that code, that line."""
    with open(os.path.join(REPO, path), encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    stripped = re.sub(r"\s*# wp-lint: disable=\w+", "", lines[line - 1])
    assert stripped != lines[line - 1], f"{path}:{line} carries no pragma"
    lines[line - 1] = stripped
    result = lint_sources([(path, "".join(lines))])
    assert [(d.line, d.code) for d in result.findings] == [(line, code)]


def test_bad_fixture_fails_with_exit_1(capsys):
    code = main([os.path.join(FIXTURES, "wp103_bad.py")])
    out = capsys.readouterr().out
    assert code == 1
    assert "WP103" in out
    summary = out.strip().splitlines()[-1]
    assert summary.startswith("FAIL: ") and summary.endswith("across 1 file(s)")


def test_json_format_shape(capsys):
    code = main(
        [
            os.path.join(FIXTURES, "wp104_bad.py"),
            "--format",
            "json",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert set(payload) == {"version", "checked_files", "suppressed", "exempted", "findings"}
    assert {f["code"] for f in payload["findings"]} == {"WP104"}
    for finding in payload["findings"]:
        assert set(finding) == {"path", "line", "col", "code", "message", "fingerprint"}


def test_sarif_format_from_the_cli(capsys):
    code = main(
        [
            os.path.join(FIXTURES, "wp104_bad.py"),
            "--format",
            "sarif",
        ]
    )
    log = json.loads(capsys.readouterr().out)
    assert code == 1
    assert log["version"] == SARIF_VERSION
    results = log["runs"][0]["results"]
    assert results and all(r["ruleId"] == "WP104" for r in results)


def test_undecodable_file_is_a_finding_not_a_traceback(tmp_path, capsys):
    (tmp_path / "latin.py").write_bytes(b"\xff")
    (tmp_path / "fine.py").write_text("x = 1\n", encoding="utf-8")
    code = main([str(tmp_path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["checked_files"] == 2
    [finding] = payload["findings"]
    assert finding["code"] == "WP100" and finding["path"].endswith("latin.py")
    assert "not valid UTF-8" in finding["message"]


def test_missing_path_is_a_usage_error(capsys):
    assert main(["definitely/not/a/path.py"]) == 2
    assert "error" in capsys.readouterr().err


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("WP101", "WP102", "WP103", "WP104", "WP105"):
        assert code in out


def test_description_names_the_registered_range(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    codes = [rule.code for rule in get_rules()]
    assert f"rules {codes[0]}-{codes[-1]}" in capsys.readouterr().out


class TestExemptionMap:
    EXEMPT = {"benchmarks/bench.py": frozenset({"WP103"}), "examples": frozenset({"WP111"})}

    def _diag(self, path, code):
        return Diagnostic(path=path, line=1, col=0, code=code, message="m")

    def test_exact_path_and_code_match_is_dropped(self):
        kept, dropped = split_exempt(
            [self._diag("benchmarks/bench.py", "WP103")], self.EXEMPT
        )
        assert kept == [] and len(dropped) == 1

    def test_other_codes_under_the_same_path_are_kept(self):
        kept, dropped = split_exempt(
            [self._diag("benchmarks/bench.py", "WP104")], self.EXEMPT
        )
        assert len(kept) == 1 and dropped == []

    def test_directory_prefix_covers_children_not_siblings(self):
        kept, dropped = split_exempt(
            [
                self._diag("examples/demo.py", "WP111"),
                self._diag("examples_extra/demo.py", "WP111"),
            ],
            self.EXEMPT,
        )
        assert [d.path for d in dropped] == ["examples/demo.py"]
        assert [d.path for d in kept] == ["examples_extra/demo.py"]
