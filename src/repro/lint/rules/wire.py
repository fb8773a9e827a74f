"""WP105 — wire-schema consistency (whole-program).

Every message kind a client or facade sends must have a Node somewhere
registering a handler for it, and every registered handler must have a
sender — otherwise client/handler drift ships silently and surfaces later
as a chaos-test timeout ("no handler for message kind ...") or as dead
protocol surface nobody exercises.

Send sites recognized:

* ``<facade>._call(dst, KIND, ...)`` — the typed-facade plumbing;
* ``<x>.rpc.call(dst, KIND, ...)`` / ``<x>._rpc.call(...)`` /
  ``<x>._shard_rpc.call(...)`` — RPC clients (the last is the broker's
  federation-internal shard-to-shard sender);
* ``<node>.request(dst, KIND, ...)`` — a node's convenience sender, from
  inside the node (``self.request``) or from an external driver script;
* ``HolderOpRow(OWNER_KIND, BROKER_KIND, ...)`` — a row of
  ``protocol.HOLDER_OPS``.  ``PeerClient.holder_request`` and
  ``BrokerClient.holder_op`` send the kind their caller looked up in that
  table, so the ``_call`` itself is dynamic and the row is where the send
  is provable.

Handler sites: ``<node>.on(KIND, handler)``.

Kinds are resolved across the analyzed file set through
:class:`~repro.lint.resolve.ConstantResolver` (string literals, module
constants, ``protocol.X`` attributes, ``from m import NAME``).  Kind
expressions that are genuinely dynamic — a kind forwarded out of a payload
dict, as the i3 and onion relays do — resolve to ``None`` and are skipped:
the rule reports only what it can prove.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable

from repro.lint.asthelpers import is_rpc_call
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import ModuleInfo, Program
from repro.lint.registry import Rule, register
from repro.lint.resolve import ConstantResolver


@dataclass(frozen=True)
class _Site:
    path: str
    line: int
    col: int


def _kind_exprs(node: ast.Call) -> list[ast.expr]:
    """The kind-expression arguments of a send/handler call (empty: not one)."""
    func = node.func
    if isinstance(func, ast.Name) and func.id == "HolderOpRow":
        return node.args[:2]
    if not isinstance(func, ast.Attribute):
        return []
    if func.attr == "on" and len(node.args) >= 2:
        return node.args[:1]
    if func.attr == "_call" and len(node.args) >= 2:
        return node.args[1:2]
    if is_rpc_call(func) and len(node.args) >= 2:
        return node.args[1:2]
    if (
        func.attr == "request"
        and len(node.args) >= 2
        and isinstance(func.value, ast.Name)
        and func.value.id != "transport"
    ):
        # self.request(dst, KIND, ...) inside a node, or an external driver
        # (example/bench script) calling <node>.request(dst, KIND, ...).
        # Transport.request has a different shape (src, dst, kind, payload),
        # so a bare ``transport`` receiver is excluded.
        return node.args[1:2]
    return []


@register
class WireSchemaConsistency(Rule):
    code = "WP105"
    name = "wire-schema-consistency"
    scope = "program"
    rationale = (
        "A kind sent with no handler (or handled with no sender) is "
        "client/server drift that otherwise surfaces as a runtime "
        "'no handler for message kind' failure or dead protocol surface."
    )

    def check(self, program: Program) -> Iterable[Diagnostic]:
        resolver = ConstantResolver(program)
        sent: dict[str, list[_Site]] = {}
        handled: dict[str, list[_Site]] = {}
        for module in program.modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                for expr in _kind_exprs(node):
                    kind = resolver.resolve(expr, module)
                    if kind is None:
                        continue  # dynamic kind (or a row's ``None``) — nothing provable
                    table = handled if getattr(node.func, "attr", None) == "on" else sent
                    table.setdefault(kind, []).append(
                        _Site(module.path, node.lineno, node.col_offset)
                    )
        for kind in sorted(set(sent) - set(handled)):
            for site in sent[kind]:
                yield Diagnostic(
                    path=site.path,
                    line=site.line,
                    col=site.col,
                    code=self.code,
                    message=(
                        f"message kind {kind!r} is sent but no Node registers "
                        "a handler for it"
                    ),
                )
        for kind in sorted(set(handled) - set(sent)):
            for site in handled[kind]:
                yield Diagnostic(
                    path=site.path,
                    line=site.line,
                    col=site.col,
                    code=self.code,
                    message=(
                        f"handler registered for message kind {kind!r} but no "
                        "client or facade ever sends it"
                    ),
                )
