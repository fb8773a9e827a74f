"""Forward may-taint with interprocedural function summaries.

The lattice is small and label-based: an expression carries a set of
labels, where ``SRC`` means "a source value reaches here" and a bare name
means "whatever the caller passes for that parameter reaches here".
Summaries (labels that flow to the return value; parameters that flow into
a sink inside the callee) are iterated to a fixpoint, so taint crosses
function and module boundaries without inlining.

Specs (one per rule) decide what is a source, what sanitizes, which call
arguments are sinks, and in which modules sources/sinks are live.  Two
deliberate approximations, documented in ``docs/LINT.md``:

* calls into *barrier* modules (crypto primitives, encryption serializers)
  return clean — a signature or ciphertext does not reveal its key, so the
  sanctioned constructors are exactly the module boundary;
* unresolved calls propagate: the result of ``dict(x)`` / ``x.encode()``
  is as tainted as its arguments, because most unknown calls are
  structural (constructors, codecs) rather than declassifying.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.lint.dataflow.callgraph import FunctionInfo, get_index, settle_summaries
from repro.lint.diagnostics import Diagnostic

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.engine import Program

SRC = "SRC"

_LOOP_PASSES = 3

Labels = frozenset[str]
_EMPTY: Labels = frozenset()


@dataclass
class Summary:
    """What a function does with taint, from the caller's point of view."""

    returns: frozenset[str] = _EMPTY
    sink_params: dict[str, str] = field(default_factory=dict)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Summary)
            and self.returns == other.returns
            and self.sink_params == other.sink_params
        )


class TaintSpec:
    """What one rule considers a source, sanitizer, and sink."""

    code = "WP1xx"

    def in_source_scope(self, module: str) -> bool:
        raise NotImplementedError

    def in_sink_scope(self, module: str) -> bool:
        return self.in_source_scope(module)

    def is_barrier_module(self, module: str) -> bool:
        return False

    def is_source(self, expr: ast.expr) -> bool:
        return False

    def source_call(self, name: str | None) -> bool:
        return False

    def sanitizer_call(self, name: str | None) -> bool:
        return False

    def sink_args(
        self, call: ast.Call, fn: FunctionInfo
    ) -> list[tuple[ast.expr, str]]:
        """(argument expression, sink description) pairs for a call site."""
        return []

    def raise_is_sink(self, fn: FunctionInfo) -> str | None:
        """Sink description if exception arguments are sinks, else None."""
        return None

    def return_is_sink(self, fn: FunctionInfo) -> str | None:
        """Sink description if this function's return value is a sink."""
        return None

    def message(self, sink_description: str) -> str:
        raise NotImplementedError


class TaintAnalysis:
    """Runs one spec over a whole program; yields findings at sink hits."""

    def __init__(self, program: "Program", spec: TaintSpec) -> None:
        self.spec = spec
        self.index = get_index(program)
        self.summaries: dict[str, Summary] = {}
        self._findings: list[Diagnostic] = []
        self._collect = False

    # -- public ----------------------------------------------------------

    def run(self) -> list[Diagnostic]:
        settle_summaries(self.index.functions, self._analyze, self.summaries)
        self._collect = True
        self._findings = []
        for fn in self.index.functions:
            self._analyze(fn)
        return self._findings

    # -- per-function analysis -------------------------------------------

    def _analyze(self, fn: FunctionInfo) -> Summary:
        env: dict[str, Labels] = {}
        params = fn.param_names()
        for name in params:
            env[name] = frozenset({name})
        self._fn = fn
        self._summary = Summary(returns=_EMPTY, sink_params={})
        self._exec_block(fn.node.body, env)
        return self._summary

    def _report(self, node: ast.AST, description: str) -> None:
        if self._collect and self.spec.in_sink_scope(self._fn.module.module):
            self._findings.append(
                Diagnostic(
                    path=self._fn.module.path,
                    line=getattr(node, "lineno", 1),
                    col=getattr(node, "col_offset", 0),
                    code=self.spec.code,
                    message=self.spec.message(description),
                )
            )

    def _hit_sink(self, node: ast.AST, labels: Labels, description: str) -> None:
        """A labeled value reached a sink: finding for SRC, summary for params."""
        if SRC in labels:
            self._report(node, description)
        for label in labels:
            if label != SRC:
                self._summary.sink_params.setdefault(label, description)

    # -- statements ------------------------------------------------------

    def _exec_block(self, stmts: Iterable[ast.stmt], env: dict[str, Labels]) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt, env)

    def _exec_stmt(self, stmt: ast.stmt, env: dict[str, Labels]) -> None:
        if isinstance(stmt, ast.Assign):
            labels = self._labels(stmt.value, env)
            for target in stmt.targets:
                self._assign(target, labels, env)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, self._labels(stmt.value, env), env)
        elif isinstance(stmt, ast.AugAssign):
            labels = self._labels(stmt.value, env)
            if isinstance(stmt.target, ast.Name):
                env[stmt.target.id] = env.get(stmt.target.id, _EMPTY) | labels
        elif isinstance(stmt, ast.Return):
            labels = self._labels(stmt.value, env) if stmt.value else _EMPTY
            self._summary.returns |= labels
            description = self.spec.return_is_sink(self._fn)
            if description is not None and stmt.value is not None:
                self._hit_sink(stmt, labels, description)
        elif isinstance(stmt, ast.Raise):
            description = self.spec.raise_is_sink(self._fn)
            if stmt.exc is not None:
                labels = self._labels(stmt.exc, env)
                if description is not None:
                    self._hit_sink(stmt, labels, description)
        elif isinstance(stmt, ast.Expr):
            self._labels(stmt.value, env)
        elif isinstance(stmt, ast.If):
            self._labels(stmt.test, env)
            then_env, else_env = dict(env), dict(env)
            self._exec_block(stmt.body, then_env)
            self._exec_block(stmt.orelse, else_env)
            self._merge(env, then_env, else_env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_labels = self._labels(stmt.iter, env)
            body_env = dict(env)
            self._assign(stmt.target, iter_labels, body_env)
            for _ in range(_LOOP_PASSES):
                before = dict(body_env)
                self._exec_block(stmt.body, body_env)
                if body_env == before:
                    break
            self._exec_block(stmt.orelse, body_env)
            self._merge(env, body_env, env)
        elif isinstance(stmt, ast.While):
            body_env = dict(env)
            for _ in range(_LOOP_PASSES):
                before = dict(body_env)
                self._labels(stmt.test, body_env)
                self._exec_block(stmt.body, body_env)
                if body_env == before:
                    break
            self._exec_block(stmt.orelse, body_env)
            self._merge(env, body_env, env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                labels = self._labels(item.context_expr, env)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, labels, env)
            self._exec_block(stmt.body, env)
        elif isinstance(stmt, ast.Try):
            body_env = dict(env)
            self._exec_block(stmt.body, body_env)
            merged = dict(env)
            self._merge(merged, body_env, env)
            for handler in stmt.handlers:
                handler_env = dict(merged)
                if handler.name:
                    handler_env[handler.name] = _EMPTY
                self._exec_block(handler.body, handler_env)
                self._merge(merged, handler_env, merged)
            self._exec_block(stmt.orelse, merged)
            self._exec_block(stmt.finalbody, merged)
            env.clear()
            env.update(merged)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pass  # nested definitions are not analyzed
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._labels(child, env)

    def _assign(self, target: ast.expr, labels: Labels, env: dict[str, Labels]) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = labels
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, labels, env)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, labels, env)
        # attribute/subscript targets: no field sensitivity (documented)

    @staticmethod
    def _merge(
        into: dict[str, Labels], a: dict[str, Labels], b: dict[str, Labels]
    ) -> None:
        into.clear()
        for key in set(a) | set(b):
            into[key] = a.get(key, _EMPTY) | b.get(key, _EMPTY)

    # -- expressions -----------------------------------------------------

    def _labels(self, expr: ast.expr | None, env: dict[str, Labels]) -> Labels:
        if expr is None:
            return _EMPTY
        out: Labels
        if isinstance(expr, ast.Constant):
            out = _EMPTY
        elif isinstance(expr, ast.Name):
            out = env.get(expr.id, _EMPTY)
        elif isinstance(expr, ast.Attribute):
            out = self._labels(expr.value, env)
        elif isinstance(expr, ast.Call):
            out = self._call_labels(expr, env)
        elif isinstance(expr, ast.Compare):
            self._labels(expr.left, env)
            for comp in expr.comparators:
                self._labels(comp, env)
            out = _EMPTY  # comparison results are booleans, not the operands
        elif isinstance(expr, ast.Lambda):
            out = _EMPTY
        else:
            collected: Labels = _EMPTY
            for child in ast.iter_child_nodes(expr):
                if isinstance(child, ast.expr):
                    collected |= self._labels(child, env)
                elif isinstance(child, ast.comprehension):
                    collected |= self._labels(child.iter, env)
            out = collected
        if self.spec.is_source(expr) and self.spec.in_source_scope(
            self._fn.module.module
        ):
            out = out | frozenset({SRC})
        return out

    def _call_labels(self, call: ast.Call, env: dict[str, Labels]) -> Labels:
        arg_labels = [self._labels(arg, env) for arg in call.args]
        kw_labels = {
            kw.arg: self._labels(kw.value, env) for kw in call.keywords
        }  # kw.arg None (a ** splat) keys one entry; fine for a label union
        receiver = (
            self._labels(call.func.value, env)
            if isinstance(call.func, ast.Attribute)
            else _EMPTY
        )
        name = self.index.callee_name(call)

        # sink check at this call site
        for expr, description in self.spec.sink_args(call, self._fn):
            self._hit_sink(call, self._labels(expr, env), description)

        if self.spec.sanitizer_call(name):
            return _EMPTY
        resolved = self.index.resolve_call(call, self._fn)
        everything = receiver
        for labels in arg_labels:
            everything |= labels
        for labels in kw_labels.values():
            everything |= labels

        if self.spec.source_call(name) and self.spec.in_source_scope(
            self._fn.module.module
        ):
            return everything | frozenset({SRC})
        if not resolved:
            return everything

        out: Labels = _EMPTY
        for callee in resolved:
            if self.spec.is_barrier_module(callee.module.module):
                continue
            summary = self.summaries.get(callee.qualname)
            if summary is None:
                continue
            bound = self._bind(call, callee, arg_labels, kw_labels, receiver)
            for label in summary.returns:
                if label == SRC:
                    out |= frozenset({SRC})
                else:
                    out |= bound.get(label, _EMPTY)
            for param, description in summary.sink_params.items():
                self._hit_sink(call, bound.get(param, _EMPTY), description)
        return out

    @staticmethod
    def _bind(
        call: ast.Call,
        callee: FunctionInfo,
        arg_labels: list[Labels],
        kw_labels: dict[str | None, Labels],
        receiver: Labels,
    ) -> dict[str, Labels]:
        """Map call-site label sets onto the callee's parameter names."""
        args = callee.node.args
        positional = [p.arg for p in args.posonlyargs + args.args]
        bound: dict[str, Labels] = {}
        index = 0
        if (
            callee.cls is not None
            and positional
            and isinstance(call.func, ast.Attribute)
        ):
            bound[positional[0]] = receiver
            positional = positional[1:]
        for labels in arg_labels:
            if index < len(positional):
                bound[positional[index]] = (
                    bound.get(positional[index], _EMPTY) | labels
                )
            elif args.vararg is not None:
                bound[args.vararg.arg] = bound.get(args.vararg.arg, _EMPTY) | labels
            index += 1
        named = set(positional) | {p.arg for p in args.kwonlyargs}
        for key, labels in kw_labels.items():
            if key is not None and key in named:
                bound[key] = bound.get(key, _EMPTY) | labels
            elif args.kwarg is not None:
                bound[args.kwarg.arg] = bound.get(args.kwarg.arg, _EMPTY) | labels
            elif key is None:
                # ``**splat`` into a function without **kwargs: smear over all
                for param in named:
                    bound[param] = bound.get(param, _EMPTY) | labels
        return bound
