"""Pytest fixtures for the benchmark suite (helpers live in _common.py)."""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest

from _common import FULL_SCALE

from repro.sim.figures import SCALE_NOTES


@pytest.fixture(scope="session")
def scale_note() -> str:
    """Human-readable scale marker included in emitted tables."""
    return SCALE_NOTES[not FULL_SCALE]
