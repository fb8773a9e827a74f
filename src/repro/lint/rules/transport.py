"""WP101 — typed-facade discipline for outbound traffic.

Everything outside :mod:`repro.net` must send through the typed facades in
:mod:`repro.core.clients` (or a node's ``request``/``rpc``), never raw
``transport.request(...)`` or ``send_raw(...)``.  The facades are where
idempotency keys, retry policies, and the exhaustion →
``ServiceUnavailable`` mapping live; a raw call site silently opts out of
all three and breaks the chaos suite's exactly-once guarantees.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.asthelpers import receiver_attr
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import ModuleInfo
from repro.lint.registry import Rule, register

#: The transport layer itself is the one place raw sends are legitimate.
EXEMPT_PACKAGE = "repro.net"

_TRANSPORT_RECEIVERS = {"transport", "_transport"}


@register
class TransportDiscipline(Rule):
    code = "WP101"
    name = "typed-facade-discipline"
    rationale = (
        "Raw transport.request/send_raw call sites bypass idempotency keys, "
        "retry policies, and ServiceUnavailable mapping (PR 2 invariant)."
    )

    def check(self, module: ModuleInfo) -> Iterable[Diagnostic]:
        if module.module == EXEMPT_PACKAGE or module.module.startswith(EXEMPT_PACKAGE + "."):
            return
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            func = node.func
            if func.attr == "request" and receiver_attr(func.value) in _TRANSPORT_RECEIVERS:
                yield module.diagnostic(
                    node,
                    self.code,
                    "raw transport.request(...) outside repro.net — send "
                    "through the typed facades in repro.core.clients or "
                    "Node.request",
                )
            elif func.attr == "send_raw":
                yield module.diagnostic(
                    node,
                    self.code,
                    "direct send_raw(...) outside repro.net — send_raw is "
                    "the RPC layer's transport touchpoint, not an API; "
                    "use Node.request or a typed facade",
                )
