"""WP106 — durable broker state must flow through the journal API.

The broker's durable fields (``accounts``, ``valid_coins``, ``deposited``,
``downtime_bindings``, ``owner_coins``, ``pending_sync``, and the
federation pair ``pending_handoffs``/``handoffs_seen``)
are crash-consistent only because every mutation is described by a record
and applied via :mod:`repro.store.apply` *after* being staged for the
write-ahead journal.  A direct assignment — ``self.deposited[y] = data``
in a handler — would change in-memory state without a journal record, so
a crash and recovery silently forgets it: the exact torn-state bug the
durability layer exists to prevent.

Only the mutation layer itself (:mod:`repro.store`) may touch these fields
directly.  Snapshots are no exception: a snapshot is a compacted journal,
rebuilt through the same appliers.  Reads are always fine; so is
constructing the fields in ``__init__``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.asthelpers import MUTATOR_METHODS, in_package
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import ModuleInfo
from repro.lint.registry import Rule, register

EXEMPT_PACKAGES = ("repro.store",)

#: The broker fields the write-ahead journal makes crash-consistent.
DURABLE_FIELDS = frozenset(
    {
        "accounts",
        "valid_coins",
        "deposited",
        "downtime_bindings",
        "owner_coins",
        "pending_sync",
        # Federation (PR 7): exactly-once cross-shard handoff state.
        "pending_handoffs",
        "handoffs_seen",
    }
)

def _durable_field_in_chain(node: ast.AST) -> str | None:
    """The durable field a receiver chain dereferences, if any.

    Walks ``x.pending_sync.setdefault(...).add`` style chains through
    attributes, calls, and subscripts down to the root.
    """
    while True:
        if isinstance(node, ast.Attribute):
            if node.attr in DURABLE_FIELDS:
                return node.attr
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Subscript):
            node = node.value
        else:
            return None


def _init_node_ids(tree: ast.AST) -> set[int]:
    """ids of every node inside an ``__init__`` body (construction is fine)."""
    ids: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            for child in ast.walk(node):
                ids.add(id(child))
    return ids


@register
class DurableFieldDiscipline(Rule):
    code = "WP106"
    name = "journal-api-discipline"
    rationale = (
        "Direct mutation of durable broker fields bypasses the write-ahead "
        "journal; the change evaporates on crash recovery (PR 4 invariant)."
    )

    def check(self, module: ModuleInfo) -> Iterable[Diagnostic]:
        if in_package(module.module, EXEMPT_PACKAGES):
            return
        init_ids = _init_node_ids(module.tree)
        seen: set[tuple[int, str]] = set()

        def diag(node: ast.AST, field: str, what: str) -> Diagnostic | None:
            if (node.lineno, field) in seen:
                return None
            seen.add((node.lineno, field))
            return module.diagnostic(
                node,
                self.code,
                f"{what} of durable field {field!r} outside repro.store — "
                "stage a mutation record through the journal API "
                "(Broker._stage / repro.store.apply) instead",
            )

        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        field = _durable_field_in_chain(target.value)
                        if field is not None:
                            found = diag(node, field, "item assignment/deletion")
                            if found:
                                yield found
                    elif (
                        isinstance(target, ast.Attribute)
                        and target.attr in DURABLE_FIELDS
                        and id(node) not in init_ids
                    ):
                        found = diag(node, target.attr, "rebinding")
                        if found:
                            yield found
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr not in MUTATOR_METHODS:
                    continue
                field = _durable_field_in_chain(node.func.value)
                if field is not None:
                    found = diag(node, field, f"in-place {node.func.attr}()")
                    if found:
                        yield found
