"""WP111 — secret egress (whole-program).

Private exponents (``keypair.x``), group member secrets, DSA nonces, and
Shamir shares must never reach an observable surface: log strings,
exception messages, handler reply payloads, or journal records.  Journal
records matter because the WAL outlives the process and is the first thing
an attacker with disk access reads; the sanctioned path is the serializer
layer in ``repro.store`` (optionally sealed with
``repro.anonymity.cipher``), never an ad-hoc dict with a raw ``.x`` in it.

Calls into the crypto/anonymity primitive modules are taint *barriers*: a
signature or ciphertext does not reveal its key, so ``dsa_sign(...,
keypair.x, ...)`` is clean while ``{"signing_x": keypair.x}`` is not.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.asthelpers import chain_parts
from repro.lint.dataflow.callgraph import FunctionInfo, get_index
from repro.lint.dataflow.taint import TaintAnalysis, TaintSpec
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import Program
from repro.lint.registry import Rule, register

#: Modules allowed to handle raw secrets: the crypto/anonymity primitives
#: themselves, the serializer/recovery layer (at-rest custody is its job),
#: persistence export (optional encryption handled there), and lint.
_EXEMPT_PREFIXES = (
    "repro.crypto",
    "repro.messages",
    "repro.store",
    "repro.anonymity",
    "repro.indirection",
    "repro.core.persistence",
    "repro.baselines",
    "repro.lint",
)

#: Barriers: calls into these return clean (one-way/encrypted outputs).
_BARRIER_PREFIXES = ("repro.crypto", "repro.anonymity", "repro.store")

_SECRET_ATTRS = frozenset({"x"})
_SECRET_CALLS = frozenset({"split_secret", "export_opening_shares"})
_LOG_METHODS = frozenset(
    {"debug", "info", "warning", "warn", "error", "exception", "critical"}
)
_JOURNAL_SELF_METHODS = frozenset({"_wal", "_stage", "_commit_local"})


class SecretEgressSpec(TaintSpec):
    code = "WP111"

    def __init__(self, handler_fn_names: frozenset[str]) -> None:
        self._handlers = handler_fn_names

    def in_source_scope(self, module: str) -> bool:
        return not module.startswith(_EXEMPT_PREFIXES)

    def is_barrier_module(self, module: str) -> bool:
        return module.startswith(_BARRIER_PREFIXES)

    def is_source(self, expr: ast.expr) -> bool:
        return isinstance(expr, ast.Attribute) and expr.attr in _SECRET_ATTRS

    def source_call(self, name: str | None) -> bool:
        return name is not None and name in _SECRET_CALLS

    def sink_args(
        self, call: ast.Call, fn: FunctionInfo
    ) -> list[tuple[ast.expr, str]]:
        func = call.func
        sinks: list[tuple[ast.expr, str]] = []
        if isinstance(func, ast.Attribute):
            chain = chain_parts(func.value)
            if func.attr in _JOURNAL_SELF_METHODS and chain[:1] == ["self"]:
                sinks.extend((arg, "a journal record") for arg in call.args)
            elif func.attr in ("append", "append_many") and chain and chain[-1] == "store":
                sinks.extend((arg, "a journal record") for arg in call.args)
            elif func.attr == "stage" and any("committer" in p for p in chain):
                sinks.extend((arg, "a journal record") for arg in call.args)
            elif func.attr in _LOG_METHODS and chain[:1] in (["log"], ["logger"], ["logging"]):
                sinks.extend((arg, "a log message") for arg in call.args)
        elif isinstance(func, ast.Name) and func.id == "print":
            sinks.extend((arg, "printed output") for arg in call.args)
        return sinks

    def raise_is_sink(self, fn: FunctionInfo) -> str | None:
        return "an exception message"

    def return_is_sink(self, fn: FunctionInfo) -> str | None:
        if fn.name in self._handlers:
            return "a handler reply payload"
        return None

    def message(self, sink_description: str) -> str:
        return (
            f"secret key material flows into {sink_description} — only the "
            "repro.store serializers (optionally sealed via "
            "repro.anonymity.cipher) may persist or expose secrets"
        )


@register
class SecretEgress(Rule):
    code = "WP111"
    name = "secret-egress"
    scope = "program"
    rationale = (
        "A private key, DSA nonce, or Shamir share in a log line, exception, "
        "reply, or journal record is a key-compromise primitive: the WAL and "
        "logs outlive the process and are world-readable surfaces."
    )

    def check(self, program: Program) -> Iterable[Diagnostic]:
        spec = SecretEgressSpec(get_index(program).handlers)
        return TaintAnalysis(program, spec).run()
