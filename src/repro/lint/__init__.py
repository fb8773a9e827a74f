"""``repro.lint`` — AST-based invariant checker for the WhoPay codebase.

The reproduction's evaluation (paper Section 6) only means something if
every run is replayable and every protocol exchange is verifiable, so the
codebase carries a handful of load-bearing conventions:

* all internal traffic goes through the typed facades in
  :mod:`repro.core.clients` / the RPC layer, never raw ``transport.request``;
* all randomness comes from seeded ``random.Random`` instances and all
  timing from the virtual :class:`~repro.core.clock.Clock`, so fault
  schedules and sweeps replay bit-identically;
* secret-bearing byte strings are compared in constant time and modular
  exponentiation routes through :mod:`repro.crypto.fastexp`;
* protocol errors are never silently swallowed;
* every message kind a client sends has a registered handler, and vice
  versa, so client/handler drift is caught at lint time instead of as a
  chaos-test timeout.

This package enforces those conventions with a from-scratch static
analyzer built on stdlib :mod:`ast` only: a rule registry with stable
``WPxxx`` codes, per-file and whole-program visitors, ``# wp-lint:
disable=WPxxx`` suppression pragmas, and a CLI::

    python -m repro.lint [paths] --format text|json

See ``docs/LINT.md`` for the rule catalogue and the rationale each rule
traces back to.
"""

from __future__ import annotations

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import (
    LintResult,
    ModuleInfo,
    Program,
    lint_paths,
    lint_sources,
)
from repro.lint.registry import Rule, get_rules

__all__ = [
    "Diagnostic",
    "LintResult",
    "ModuleInfo",
    "Program",
    "Rule",
    "get_rules",
    "lint_paths",
    "lint_sources",
]
