"""Name resolution: what a dotted expression in one file actually names.

Every rule that asks "is this ``time.time``?" or "which string is
``protocol.PURCHASE``?" asks it here.  :func:`collect_symbols` reads a
module once — its top-level string constants and *every* ``import`` /
``from … import`` in the file, function-level ones included — and the
resulting :class:`ModuleSymbols` answers :meth:`~ModuleSymbols.qualify`:
the fully qualified name behind ``import a as b``, ``from a import b as c``
and ``import a.b`` spellings.  The forbidden-call table, the call graph and
:class:`ConstantResolver` all read that one answer.

Within this codebase message kinds are always module-level string constants
referenced directly, via ``from pkg import mod`` aliases, via ``from mod
import NAME`` (possibly re-exported through a package ``__init__``), or via
dotted module paths (``pkg.mod.NAME``) — so a small, honest resolver over
the analyzed file set covers every real call site.  Anything dynamic (a kind
pulled out of a payload dict, a name rebound by assignment, ``getattr``,
``importlib``, a star import) resolves to ``None`` or to itself and is
skipped rather than guessed at.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.lint.asthelpers import dotted_prefix

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.engine import ModuleInfo, Program


@dataclass
class ModuleSymbols:
    """What one module contributes to / imports from the constant namespace."""

    #: module-level ``NAME = "literal"`` string assignments
    constants: dict[str, str] = field(default_factory=dict)
    #: local alias → dotted module it refers to (``from a.b import c`` → c=a.b.c)
    module_aliases: dict[str, str] = field(default_factory=dict)
    #: local name → (defining module, original name) from ``from m import N``
    imported_names: dict[str, tuple[str, str]] = field(default_factory=dict)

    def qualify(self, expr: ast.AST) -> str | None:
        """The qualified name a Name/Attribute chain denotes in this module.

        ``t.time`` under ``import time as t`` is ``"time.time"``; ``RS`` under
        ``from numpy.random import RandomState as RS`` is
        ``"numpy.random.RandomState"``.  A chain whose head no import binds —
        a plain ``import a.b`` root, a builtin, a parameter — is already
        spelled out and comes back as written; anything that is not a pure
        chain (``f().x``, ``a[0].x``) is ``None``.  Imports are one flat
        namespace per file: a function-level import counts everywhere in it.
        """
        spelled = dotted_prefix(expr)
        if spelled is None:
            return None
        head, _, rest = spelled.partition(".")
        target = self.module_aliases.get(head)
        if target is None:
            return spelled
        return f"{target}.{rest}" if rest else target


def collect_symbols(tree: ast.Module) -> ModuleSymbols:
    """Scan one module for top-level constants and every import binding."""
    symbols = ModuleSymbols()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            if isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        symbols.constants[target.id] = stmt.value.value
        elif isinstance(stmt, ast.AnnAssign):
            if (
                isinstance(stmt.target, ast.Name)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)
            ):
                symbols.constants[stmt.target.id] = stmt.value.value
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                # ``import a.b.c as x`` binds x to a.b.c; a plain ``import
                # a.b`` binds only ``a``, and ``a.b.NAME`` is spelled out.
                if alias.asname is not None:
                    symbols.module_aliases[alias.asname] = alias.name
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.module is None or stmt.level:
                continue  # relative imports are not used in this codebase
            for alias in stmt.names:
                local = alias.asname or alias.name
                # ``from a.b import c`` may bind a submodule *or* a name;
                # record both readings and let lookup pick whichever exists.
                symbols.module_aliases[local] = f"{stmt.module}.{alias.name}"
                symbols.imported_names[local] = (stmt.module, alias.name)
    return symbols


class ConstantResolver:
    """Resolves kind expressions to strings across the analyzed file set."""

    def __init__(self, program: "Program") -> None:
        self._symbols: dict[str, ModuleSymbols] = {
            info.module: info.symbols for info in program.modules
        }

    def _constant_in(
        self, module: str, name: str, _seen: set[tuple[str, str]] | None = None
    ) -> str | None:
        """Look up ``name`` in ``module``, following re-export chains.

        ``from a import K`` in module ``c`` makes ``c.K`` resolve through to
        ``a.K`` (transitively, with a cycle guard) — package ``__init__``
        re-exports are how most protocol constants are actually reached.
        """
        symbols = self._symbols.get(module)
        if symbols is None:
            return None
        value = symbols.constants.get(name)
        if value is not None:
            return value
        origin = symbols.imported_names.get(name)
        if origin is None:
            return None
        key = (module, name)
        seen = _seen if _seen is not None else set()
        if key in seen:
            return None
        seen.add(key)
        return self._constant_in(origin[0], origin[1], seen)

    def resolve(self, expr: ast.expr, module: "ModuleInfo") -> str | None:
        """The string ``expr`` evaluates to, or ``None`` if not static."""
        if isinstance(expr, ast.Constant):
            return expr.value if isinstance(expr.value, str) else None
        name = module.symbols.qualify(expr)
        if name is None:
            return None
        owner, _, attr = name.rpartition(".")
        return self._constant_in(owner or module.module, attr)
