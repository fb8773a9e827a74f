"""Every script in ``examples/`` runs to completion.

Each runs in a child interpreter, as a reader would run it, with only
``src`` on the path and the reduced-scale defaults (``WHOPAY_FULL`` unset).
A script that imports a module the package no longer has, or whose
narrative an API change broke, fails here rather than in a reader's
terminal.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_the_examples_are_found():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("WHOPAY_FULL", None)
    done = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()
