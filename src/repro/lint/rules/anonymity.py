"""WP110 — anonymity taint (whole-program).

WhoPay's headline property: the broker (and any wire observer) must not be
able to link a coin to the peer holding it.  Holder-side messages travel
in the dual-signed envelope ``{{M}_skC}_gk`` — coin key plus group
signature, never the identity key — so a peer-identifying value
(``self.address``, ``self.identity``) flowing into the *anonymous channel*
(``group_seal`` payloads, ``HolderOperation`` fields,
``Peer._holder_envelope`` arguments) breaks the guarantee the paper is
named for.

Sanctioned declassification points: the pseudonym/voucher constructors
in ``repro.anonymity`` — flows through those are deliberate, reviewed
linkage (e.g. a funding voucher that names the debited account *inside*
an identity-signed blob the broker must verify anyway).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.dataflow.callgraph import FunctionInfo
from repro.lint.dataflow.taint import TaintAnalysis, TaintSpec
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import Program
from repro.lint.registry import Rule, register

_SCOPE = ("repro.core.peer", "repro.core.anonymous_owner", "repro.core.coinshop")
_SANCTIONED = frozenset({"funding_voucher", "pseudonym"})
_IDENTIFYING_ATTRS = frozenset({"address", "identity"})


class AnonymityTaintSpec(TaintSpec):
    code = "WP110"

    def in_source_scope(self, module: str) -> bool:
        return module in _SCOPE

    def is_barrier_module(self, module: str) -> bool:
        return module.startswith("repro.crypto") or module.startswith("repro.anonymity")

    def is_source(self, expr: ast.expr) -> bool:
        return (
            isinstance(expr, ast.Attribute)
            and expr.attr in _IDENTIFYING_ATTRS
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        )

    def sanitizer_call(self, name: str | None) -> bool:
        return name is not None and name in _SANCTIONED

    def sink_args(
        self, call: ast.Call, fn: FunctionInfo
    ) -> list[tuple[ast.expr, str]]:
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        sinks: list[tuple[ast.expr, str]] = []
        if name == "group_seal":
            for index, arg in enumerate(call.args):
                if index >= 3:
                    sinks.append((arg, "group_seal payload"))
            for kw in call.keywords:
                if kw.arg == "payload":
                    sinks.append((kw.value, "group_seal payload"))
        elif name == "_holder_envelope":
            for arg in call.args[2:]:
                sinks.append((arg, "holder-envelope field"))
            for kw in call.keywords:
                sinks.append((kw.value, f"holder-envelope field {kw.arg or '**'}"))
        elif name == "HolderOperation":
            for arg in call.args:
                sinks.append((arg, "HolderOperation field"))
            for kw in call.keywords:
                sinks.append((kw.value, f"HolderOperation field {kw.arg or '**'}"))
        return sinks

    def message(self, sink_description: str) -> str:
        return (
            f"peer-identifying value flows into the anonymous channel "
            f"({sink_description}) — route it through a repro.anonymity "
            "pseudonym/voucher constructor"
        )


@register
class AnonymityTaint(Rule):
    code = "WP110"
    name = "anonymity-taint"
    scope = "program"
    rationale = (
        "The holder envelope is the anonymous channel: a peer id, account "
        "address, or identity key flowing into it in the clear lets the broker "
        "link coins to peers — the exact linkage the paper's anonymity "
        "guarantee forbids."
    )

    def check(self, program: Program) -> Iterable[Diagnostic]:
        return TaintAnalysis(program, AnonymityTaintSpec()).run()
