"""Module-level call graph over an analyzed :class:`Program`.

Resolution is deliberately honest rather than complete: a call site
resolves to the functions it *provably* names — same-module functions,
imports resolved through :mod:`repro.lint.resolve` bindings,
``self.method`` through a name-based class hierarchy, and methods whose
name is defined exactly once program-wide.  Anything else resolves to the
empty list and callers treat it conservatively.  That mirrors how the
wire-schema rule treats dynamic message kinds: report only what you can
prove.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.engine import ModuleInfo, Program

_MAX_ROUNDS = 6

#: Method names too generic to resolve by uniqueness — they collide with
#: builtin container/str/bytes methods, so a lone program definition of
#: e.g. ``get`` must not capture every ``d.get(...)`` in the codebase.
_BUILTIN_METHOD_NAMES = frozenset(
    {
        "append", "extend", "insert", "pop", "remove", "discard", "clear",
        "get", "setdefault", "update", "items", "keys", "values", "copy",
        "add", "join", "split", "strip", "format", "encode", "decode",
        "read", "write", "close", "sort", "index", "count", "hexdigest",
        "digest", "popitem",
    }
)


@dataclass
class FunctionInfo:
    """One module-level function or method definition."""

    module: "ModuleInfo"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: str | None

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def qualname(self) -> str:
        local = f"{self.cls}.{self.name}" if self.cls else self.name
        return f"{self.module.module}:{local}"

    def param_names(self) -> list[str]:
        a = self.node.args
        names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        if a.vararg:
            names.append(a.vararg.arg)
        if a.kwarg:
            names.append(a.kwarg.arg)
        return names


class _Hierarchy:
    """Union-find over class *names*: a class and its bases share a group.

    Name-based (no MRO computation): good enough to link ``Peer`` /
    ``AnonymousOwnerPeer`` / ``CoinShop`` so ``self.method`` resolution sees
    both the inherited definition and any overrides.
    """

    def __init__(self) -> None:
        self._parent: dict[str, str] = {}

    def _find(self, name: str) -> str:
        root = name
        while self._parent.get(root, root) != root:
            root = self._parent[root]
        while self._parent.get(name, name) != name:
            self._parent[name], name = root, self._parent[name]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            self._parent[ra] = rb

    def related(self, a: str, b: str) -> bool:
        return self._find(a) == self._find(b)


class FunctionIndex:
    """All function definitions in a program, with call-site resolution."""

    def __init__(self, program: "Program") -> None:
        self.functions: list[FunctionInfo] = []
        self._toplevel: dict[tuple[str, str], FunctionInfo] = {}
        self._methods: dict[str, list[FunctionInfo]] = {}
        self._hierarchy = _Hierarchy()
        for info in program.modules:
            for stmt in info.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    fn = FunctionInfo(info, stmt, None)
                    self.functions.append(fn)
                    self._toplevel[(info.module, stmt.name)] = fn
                elif isinstance(stmt, ast.ClassDef):
                    for base in stmt.bases:
                        base_name = (
                            base.id
                            if isinstance(base, ast.Name)
                            else base.attr if isinstance(base, ast.Attribute) else None
                        )
                        if base_name is not None:
                            self._hierarchy.union(stmt.name, base_name)
                    for sub in stmt.body:
                        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            fn = FunctionInfo(info, sub, stmt.name)
                            self.functions.append(fn)
                            self._methods.setdefault(sub.name, []).append(fn)
        self.by_qualname: dict[str, FunctionInfo] = {
            fn.qualname: fn for fn in self.functions
        }
        #: method names registered as message handlers via ``node.on(KIND, h)``
        self.handlers = frozenset(self._handler_names())

    def _handler_names(self) -> Iterator[str]:
        for fn in self.functions:
            for node in ast.walk(fn.node):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "on"
                    and len(node.args) >= 2
                ):
                    target = node.args[1]
                    if isinstance(target, ast.Attribute):
                        yield target.attr
                    elif isinstance(target, ast.Name):
                        yield target.id

    def callee_name(self, call: ast.Call) -> str | None:
        """The attribute/function name a call invokes, if syntactically plain."""
        func = call.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return None

    def resolve_call(self, call: ast.Call, caller: FunctionInfo) -> list[FunctionInfo]:
        """Candidate definitions a call site may invoke (possibly empty)."""
        func = call.func
        # A plain or module-qualified function: ``helper()``, ``mod.helper()``
        # — local definitions and imports alike, through the file's bindings.
        qualified = caller.module.symbols.qualify(func)
        if qualified is not None:
            owner, _, name = qualified.rpartition(".")
            fn = self._toplevel.get((owner or caller.module.module, name))
            if fn is not None:
                return [fn]
        if not isinstance(func, ast.Attribute):
            return []
        name = func.attr
        # super().method — hierarchy definitions excluding the caller's own
        # class (a super call never re-enters the subclass override).
        if (
            isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
            and caller.cls is not None
        ):
            related = [
                fn
                for fn in self._methods.get(name, [])
                if fn.cls is not None
                and fn.cls != caller.cls
                and self._hierarchy.related(fn.cls, caller.cls)
            ]
            if related:
                return related
        # self.method — every definition in the caller's class hierarchy
        # (covers inherited definitions and subclass overrides alike).
        if (
            isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and caller.cls is not None
        ):
            related = [
                fn
                for fn in self._methods.get(name, [])
                if fn.cls is not None and self._hierarchy.related(fn.cls, caller.cls)
            ]
            if related:
                return related
        # x.method where the method name is unambiguous program-wide.
        if name not in _BUILTIN_METHOD_NAMES:
            methods = self._methods.get(name, [])
            if len(methods) == 1:
                return methods
        return []


def get_index(program: "Program") -> FunctionIndex:
    """The program's :class:`FunctionIndex`, built once and memoized."""
    cache = getattr(program, "_dataflow_index", None)
    if cache is None:
        cache = FunctionIndex(program)
        program._dataflow_index = cache  # type: ignore[attr-defined]
    return cache


def settle_summaries(
    functions: Sequence[FunctionInfo],
    analyze: Callable[[FunctionInfo], object],
    summaries: dict[str, object],
) -> None:
    """Re-analyze ``functions`` until no summary changes (bounded rounds).

    A summary is what a function looks like from its call sites, so a change
    in one can change its callers'; recursion and long chains stop at
    ``_MAX_ROUNDS``.
    """
    for _ in range(_MAX_ROUNDS):
        changed = False
        for fn in functions:
            summary = analyze(fn)
            if summary != summaries.get(fn.qualname):
                summaries[fn.qualname] = summary
                changed = True
        if not changed:
            break
