"""WP104 — exception discipline: no bare except, no swallowed protocol errors.

A bare ``except:`` catches ``KeyboardInterrupt``/``SystemExit`` and every
programming error in the handler's scope — in a payment protocol that can
convert a crash into silent value loss.  Separately, catching
``ProtocolError``/``NetworkError`` (or their structured kin) and doing
*nothing* hides exactly the failures the conservation audits and chaos
suite exist to surface; a handler must recover, degrade, re-raise, or at
minimum record the failure.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.asthelpers import body_is_silent, exception_names
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import ModuleInfo
from repro.lint.registry import Rule, register

#: Protocol-failure classes that must never be caught-and-ignored.
PROTOCOL_ERROR_NAMES = frozenset(
    {"ProtocolError", "NetworkError", "ServiceUnavailable", "VerificationFailed"}
)


@register
class ExceptionDiscipline(Rule):
    code = "WP104"
    name = "exception-discipline"
    rationale = (
        "Bare except masks crashes as protocol outcomes; a silently "
        "swallowed ProtocolError/NetworkError hides the failures the "
        "conservation audits exist to catch."
    )

    def check(self, module: ModuleInfo) -> Iterable[Diagnostic]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield module.diagnostic(
                    node,
                    self.code,
                    "bare 'except:' — name the exceptions this handler "
                    "can actually recover from",
                )
                continue
            caught = exception_names(node.type) & PROTOCOL_ERROR_NAMES
            if caught and body_is_silent(node.body):
                yield module.diagnostic(
                    node,
                    self.code,
                    f"silently swallowed {'/'.join(sorted(caught))} — "
                    "recover, degrade, re-raise, or record the failure",
                )
