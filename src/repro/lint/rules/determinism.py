"""WP102 — determinism: seeded randomness, virtual time, ordered iteration.

The chaos suite and sweep runner promise bit-identical replays per seed;
that promise dies the moment protocol code reads entropy or time from the
process environment.  Three hazard classes:

* module-level ``random.<fn>()`` calls — hidden global RNG state that no
  seed controls (``random.Random(seed)`` instances are the sanctioned
  form; ``secrets`` is *allowed* because key/nonce material is meant to be
  unpredictable and never feeds replay-checked schedules);
* wall-clock reads (``time.time()``, ``datetime.now()``, …) — all protocol
  timing flows from the virtual :class:`~repro.core.clock.Clock`;
* direct iteration over freshly built sets — ``PYTHONHASHSEED`` varies the
  order run to run, so a set feeding a wire payload, a metrics row, or any
  ordered container is a replay hazard.  ``sorted(...)`` is the fix.

Scope: every package under ``repro`` except offline tooling
(``repro.analysis``, ``repro.cli``, ``repro.lint``), which never touches
wire payloads or replay-checked state.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.asthelpers import guarded
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import ModuleInfo
from repro.lint.registry import Rule, register
from repro.lint.rules.forbidden import TOOLING_PACKAGES, forbidden_calls


def _is_setlike(expr: ast.expr) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id in ("set", "frozenset")
    )


@register
class DeterminismDiscipline(Rule):
    code = "WP102"
    name = "determinism-discipline"
    rationale = (
        "Unseeded randomness, wall-clock reads, and hash-ordered set "
        "iteration break bit-identical replay of fault schedules and sweeps."
    )

    def check(self, module: ModuleInfo) -> Iterable[Diagnostic]:
        # The random.* / time.* / datetime.now families are table rows.
        yield from forbidden_calls(module, self.code)
        if not guarded(module.module, ("repro",), TOOLING_PACKAGES):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.For) and _is_setlike(node.iter):
                yield self._set_iteration(module, node.iter)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                for generator in node.generators:
                    if _is_setlike(generator.iter):
                        yield self._set_iteration(module, generator.iter)
            elif (
                # list(set(...)) / tuple(set(...)) materialize hash order.
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple")
                and node.args
                and _is_setlike(node.args[0])
            ):
                yield self._set_iteration(module, node.args[0])

    def _set_iteration(self, module: ModuleInfo, expr: ast.expr) -> Diagnostic:
        return module.diagnostic(
            expr,
            self.code,
            "iterating a set in hash order — wrap in sorted(...) so wire "
            "payloads and metrics replay bit-identically",
        )
