"""WP114 — liveness discipline: every RPC bounded, no real-time sleeps.

PR 9 gives :meth:`~repro.net.rpc.RpcClient.call` a ``deadline`` — a total
virtual-time budget covering latency, fault jitter, and retry backoff.  An
unbounded call is a liveness hazard: one jittered hop can stall a payment,
a heartbeat, or a handoff indefinitely, and the failure detector cannot
bound detection latency for work it cannot bound.  Two hazard classes:

* RPC-client ``.call`` sites (receivers ``rpc`` / ``_rpc`` /
  ``_shard_rpc``) that pass no ``deadline=`` keyword — protocol code must
  always state its budget, even a generous one;
* real-time sleeps (``time.sleep(...)`` or a ``from time import sleep``)
  anywhere in protocol code — all waiting flows from the virtual
  :class:`~repro.core.clock.Clock`, and backoff delays are *accounted*
  (added to ``virtual_latency_accrued``), never slept.

Scope: every package under ``repro`` except ``repro.net`` itself (the
transport/RPC layer implements the budget machinery, and its seeded-backoff
helpers are the sanctioned accounting form) and the offline tooling
packages (``repro.analysis``, ``repro.cli``, ``repro.lint``).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.asthelpers import guarded, is_rpc_call
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import ModuleInfo
from repro.lint.registry import Rule, register
from repro.lint.rules.forbidden import LIVENESS_EXEMPT, forbidden_calls


@register
class LivenessDiscipline(Rule):
    code = "WP114"
    name = "liveness-discipline"
    rationale = (
        "An RPC without a deadline or a real-time sleep in protocol code "
        "is an unbounded wait the failure detector cannot reason about."
    )

    def check(self, module: ModuleInfo) -> Iterable[Diagnostic]:
        # ``time.sleep`` (called or from-imported) is a table row.
        yield from forbidden_calls(module, self.code)
        if not guarded(module.module, ("repro",), LIVENESS_EXEMPT):
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and is_rpc_call(node.func)
                and not any(kw.arg == "deadline" for kw in node.keywords)
            ):
                yield module.diagnostic(
                    node,
                    self.code,
                    "RpcClient.call without a deadline= budget — an "
                    "unbounded RPC stalls liveness; state the virtual-time "
                    "budget (a module constant) even if generous",
                )
