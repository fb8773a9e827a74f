"""Small AST utilities shared by the rule implementations."""

from __future__ import annotations

import ast


#: Container methods that mutate their receiver in place (a write when the
#: receiver is a durable field: WP106, WP112, WP113).
MUTATOR_METHODS = frozenset(
    {"append", "pop", "setdefault", "update", "clear", "remove", "add",
     "insert", "extend", "popitem", "discard"}
)

#: RPC-client receivers: ``<x>.rpc.call(dst, KIND, ..., deadline=...)``.
_RPC_RECEIVERS = frozenset({"rpc", "_rpc", "_shard_rpc"})


def dotted_prefix(expr: ast.AST) -> str | None:
    """``"a.b.c"`` for a pure Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def chain_parts(expr: ast.AST) -> list[str]:
    """``["a", "b", "c"]`` for ``a.b.c``; empty for anything but a pure chain."""
    name = dotted_prefix(expr)
    return name.split(".") if name else []


def receiver_attr(node: ast.AST) -> str | None:
    """The last identifier of a call receiver: ``self.rpc`` → ``"rpc"``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def is_rpc_call(func: ast.Attribute) -> bool:
    """``<rpc client>.call`` — the send WP105 resolves and WP114 budgets."""
    return func.attr == "call" and receiver_attr(func.value) in _RPC_RECEIVERS


def identifier_parts(identifier: str) -> set[str]:
    """Snake-case parts of an identifier, lowercased (``sig_r`` → {sig, r})."""
    return {part for part in identifier.lower().split("_") if part}


def in_package(module: str, prefixes: tuple[str, ...]) -> bool:
    """True iff dotted ``module`` is any of ``prefixes`` or inside one."""
    return any(
        module == prefix or module.startswith(prefix + ".") for prefix in prefixes
    )


def guarded(module: str, scope: tuple[str, ...], exempt: tuple[str, ...]) -> bool:
    """True iff ``module`` is under ``scope`` (empty: anywhere) and not ``exempt``."""
    return (not scope or in_package(module, scope)) and not in_package(module, exempt)


def exception_names(type_node: ast.expr | None) -> set[str]:
    """Class names an ``except`` clause catches (empty for bare except)."""
    if type_node is None:
        return set()
    nodes = type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
    names: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return names


def body_is_silent(body: list[ast.stmt]) -> bool:
    """True iff a block does nothing: only ``pass`` / bare constants."""
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or `...`
        return False
    return True
