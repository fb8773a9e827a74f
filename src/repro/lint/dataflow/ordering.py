"""Path-sensitive happens-before checks over handler bodies.

Both analyses here interpret a function's statement list abstractly, and
with the same interpreter (:class:`_PathAnalysis`): each branch forks the
path-state set, loops iterate to a (bounded) fixpoint, ``raise`` kills a
path — a crash before the reply escapes is safe, the journal replays or the
operation never happened — and ``return`` is an *exit event* the analysis
inspects.  An analysis supplies the two things that differ: which events a
statement raises, and how an event moves a path state.

* :class:`ObligationAnalysis` (WP112): a durable-state mutation creates an
  obligation that must be discharged by a covering journal write
  (``self._wal*`` / ``self._stage`` / ``store.append`` /
  ``committer.stage``) before any ``return`` on every path, and before any
  *egress* — an outbound RPC or a DHT publish, which lets signed state
  leave the process as surely as a reply does.  A *staging* write
  (``self._stage``) covers the reply only: the request's record becomes
  durable after the handler returns, so an egress after a staging write in
  the same request is a finding too.  Obligations
  propagate interprocedurally: a helper that mutates and returns without
  journaling passes its pending sites to the caller, and only *root*
  functions (message handlers and public methods) report what is still
  pending at their exits.  A journal/mutation statement made unreachable
  by an earlier ``return`` — the classic "reply moved above the append"
  regression — is reported too.

* :class:`TrustAnalysis` (WP113): once a function touches untrusted input
  (an envelope decode, or a raw read of a handler's payload parameter), a
  signature/validation call must dominate any durable-state mutation or
  journal write on that path.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.lint.asthelpers import MUTATOR_METHODS, chain_parts, is_journal_call
from repro.lint.dataflow.callgraph import (
    FunctionIndex,
    FunctionInfo,
    get_index,
    settle_summaries,
)
from repro.lint.diagnostics import Diagnostic

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.engine import Program

_LOOP_PASSES = 3


def _header_nodes(stmt: ast.stmt) -> list[ast.AST]:
    """The parts of a statement evaluated *at* it, excluding nested bodies.

    For compound statements only the header expression executes when control
    reaches the statement — branch/loop bodies are walked as separate
    statements, so scanning the whole subtree here would smear one branch's
    events (a ``verify`` in the mint arm, a journal call under an ``if``)
    across every path.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Try):
        return []
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    return [stmt]


def _calls_in_order(stmt: ast.stmt) -> list[ast.Call]:
    """Call nodes evaluated at one statement, in (approximate) order."""
    calls: list[ast.Call] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.stmt),
            ):
                continue
            visit(child)
        if isinstance(node, ast.Call):
            calls.append(node)

    for node in _header_nodes(stmt):
        visit(node)
    return calls


def _assigned_targets(stmt: ast.stmt) -> list[ast.expr]:
    """What a statement assigns to or deletes."""
    if isinstance(stmt, (ast.Assign, ast.Delete)):
        return list(stmt.targets)
    if isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        return [stmt.target]
    return []


@dataclass(frozen=True)
class Site:
    path: str
    line: int
    col: int
    description: str
    #: a staging write: journaled for the reply, not yet durable
    staged: bool = False


@dataclass(frozen=True)
class OrderingConfig:
    """What counts as a durable mutation and as its covering journal write."""

    scope_modules: tuple[str, ...]
    durable_fields: frozenset[str]
    durable_attrs: frozenset[str]
    journal_methods: frozenset[str]
    exempt_functions: frozenset[str]


class _PathAnalysis:
    """The path walker and fixpoint driver WP112 and WP113 instantiate.

    A subclass names its event alphabet in :meth:`_events` (what one
    statement does, in order), moves a path state over those events in
    :meth:`_apply`, and folds a function's exit states into a summary its
    callers' events read in :meth:`_analyze`.
    """

    code: str

    def __init__(self, program: "Program", config: OrderingConfig) -> None:
        self.config = config
        self.index: FunctionIndex = get_index(program)
        self.summaries: dict[str, object] = {}
        self.in_scope = [
            fn
            for fn in self.index.functions
            if fn.module.module in config.scope_modules
            and fn.name not in config.exempt_functions
        ]

    # -- the durable-write vocabulary both alphabets share ----------------

    def _durable_field(self, receiver: ast.expr) -> str | None:
        fields = self.config.durable_fields
        return next((p for p in chain_parts(receiver) if p in fields), None)

    def _mutating_call(self, call: ast.Call, fn: FunctionInfo) -> Site | None:
        func = call.func
        if not isinstance(func, ast.Attribute) or func.attr not in MUTATOR_METHODS:
            return None
        hit = self._durable_field(func.value)
        if hit is None:
            return None
        return Site(fn.module.path, call.lineno, call.col_offset, f"{hit}.{func.attr}(...)")

    def _target_mutations(self, stmt: ast.stmt, fn: FunctionInfo) -> list[Site]:
        sites: list[Site] = []
        for target in _assigned_targets(stmt):
            description = None
            if isinstance(target, ast.Subscript):
                hit = self._durable_field(target.value)
                if hit is not None:
                    description = f"{hit}[...]"
            elif (
                isinstance(target, ast.Attribute)
                and target.attr in self.config.durable_attrs
                and chain_parts(target.value)[:1] != ["self"]
            ):
                description = f".{target.attr} ="
            if description is not None:
                sites.append(
                    Site(fn.module.path, target.lineno, target.col_offset, description)
                )
        return sites

    # -- hooks -------------------------------------------------------------

    def _events(self, stmt: ast.stmt, fn: FunctionInfo) -> list[tuple[str, object]]:
        raise NotImplementedError

    def _apply(self, events: list[tuple[str, object]], state):
        raise NotImplementedError

    def _analyze(self, fn: FunctionInfo) -> object:
        raise NotImplementedError

    # -- path interpretation -----------------------------------------------

    def _walk(self, fn: FunctionInfo, initial) -> list:
        """Every path of ``fn`` from ``initial``: the states at its exits."""
        self._fn = fn
        self._visited: set[int] = set()
        self._exit_states: list = []
        # falling off the end is an implicit return
        self._exit_states.extend(self._exec_block(fn.node.body, {initial}))
        return self._exit_states

    def _exec_block(self, stmts, states):
        for stmt in stmts:
            if not states:
                return states
            states = self._exec_stmt(stmt, states)
        return states

    def _exec_stmt(self, stmt, states):
        self._visited.add(stmt.lineno)
        events = self._events(stmt, self._fn)
        states = {self._apply(events, s) for s in states}
        if isinstance(stmt, ast.Return):
            self._exit_states.extend(states)
            return set()
        if isinstance(stmt, ast.Raise):
            return set()
        if isinstance(stmt, ast.If):
            return self._exec_block(stmt.body, set(states)) | self._exec_block(
                stmt.orelse, set(states)
            )
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            out = set(states)
            body_states = set(states)
            for _ in range(_LOOP_PASSES):
                body_states = self._exec_block(stmt.body, body_states)
                if body_states <= out:
                    break
                out |= body_states
            return self._exec_block(stmt.orelse, out) if stmt.orelse else out
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._exec_block(stmt.body, states)
        if isinstance(stmt, ast.Try):
            after_body = self._exec_block(stmt.body, set(states))
            merged = set(after_body)
            for handler in stmt.handlers:
                merged |= self._exec_block(handler.body, states | after_body)
            if stmt.orelse:
                merged = self._exec_block(stmt.orelse, after_body) | (
                    merged - after_body
                )
            if stmt.finalbody:
                merged = self._exec_block(stmt.finalbody, merged)
            return merged
        if isinstance(stmt, ast.Match):
            out = set()
            for case in stmt.cases:
                out |= self._exec_block(case.body, set(states))
            return out | states  # no case may match
        if isinstance(stmt, (ast.Break, ast.Continue)):
            # approximation: loop-exit states already unioned per pass
            return set()
        return states


# ---------------------------------------------------------------------------
# WP112 — journal-before-reply obligations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObligationConfig(OrderingConfig):
    #: Calls that send out of the process: a receiver (``peer_client``: any
    #: of its methods) or a ``receiver.method`` (``detection.publish``).
    egress: frozenset[str]
    #: ``self.<method>`` journal writes that only stage the request's
    #: record: they discharge a reply's obligation, not an egress's.
    staging_methods: frozenset[str]


@dataclass
class _ObligationSummary:
    leaks: frozenset[Site] = frozenset()
    always_journals: bool = False
    #: staging writes some path leaves for the caller's egresses
    staged: frozenset[Site] = frozenset()


class ObligationAnalysis(_PathAnalysis):
    """WP112: every path from a durable mutation to a reply passes a journal."""

    code = "WP112"

    def _is_root(self, fn: FunctionInfo) -> bool:
        if fn.name in self.index.handlers:
            return True
        return not fn.name.startswith("_")

    def _egress_call(self, call: ast.Call) -> bool:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return False
        chain = chain_parts(func.value)
        egress = self.config.egress
        return bool(chain) and (chain[-1] in egress or f"{chain[-1]}.{func.attr}" in egress)

    def _events(self, stmt: ast.stmt, fn: FunctionInfo) -> list[tuple[str, object]]:
        """Ordered (kind, payload) events: ``("M", Site) | ("J", None) |
        ("S", Site)`` for a staging write | ``("E", line)`` for an egress |
        ``("INHERIT", sites)`` / ``("STAGED", sites)`` for resolvable
        non-primitive callees."""
        events: list[tuple[str, object]] = []
        for call in _calls_in_order(stmt):
            if is_journal_call(call, self.config.journal_methods):
                events.append(("J", None))
                name = call.func.attr  # type: ignore[attr-defined]  # journal calls are attribute calls
                if name in self.config.staging_methods:
                    site = Site(fn.module.path, call.lineno, call.col_offset, f"{name}(...)", True)
                    events.append(("S", site))
                continue
            if self._egress_call(call):
                events.append(("E", call.lineno))
                continue
            mutation = self._mutating_call(call, fn)
            if mutation is not None:
                events.append(("M", mutation))
                continue
            for callee in self.index.resolve_call(call, fn):
                summary = self.summaries.get(callee.qualname)
                if summary is None:
                    continue
                # J before INHERIT: a callee that journals early and then
                # leaves new mutations pending must not have its own journal
                # write discharge the sites it leaks to us.
                if summary.always_journals:
                    events.append(("J", None))
                if summary.leaks:
                    events.append(("INHERIT", summary.leaks))
                if summary.staged:
                    events.append(("STAGED", summary.staged))
        events.extend(("M", site) for site in self._target_mutations(stmt, fn))
        return events

    def _apply(self, events, state):
        pending, journaled, staged = state
        for kind, payload in events:
            if kind == "J":
                pending, journaled = frozenset(), True
            elif kind == "M":
                pending = pending | {payload}
            elif kind == "INHERIT":
                pending = pending | payload
            elif kind == "S":
                staged = staged | {payload}
            elif kind == "STAGED":
                staged = staged | payload
            elif kind == "E":
                self._sent[self._fn.qualname] |= {(site, payload) for site in pending | staged}
        return pending, journaled, staged

    def _analyze(self, fn: FunctionInfo) -> _ObligationSummary:
        self._sent[fn.qualname] = set()
        exits = self._walk(fn, (frozenset(), False, frozenset()))  # (pending, journaled, staged)
        self._reached[fn.qualname] = self._visited
        return _ObligationSummary(
            leaks=frozenset().union(*(pending for pending, _, _ in exits)),
            always_journals=bool(exits) and all(journaled for _, journaled, _ in exits),
            staged=frozenset().union(*(staged for _, _, staged in exits)),
        )

    def run(self) -> list[Diagnostic]:
        self._reached: dict[str, set[int]] = {}
        #: (mutation, egress line) pairs: state that left before it was journaled
        self._sent: dict[str, set[tuple[Site, int]]] = {}
        settle_summaries(self.in_scope, self._analyze, self.summaries)
        findings: list[Diagnostic] = []
        for fn in self.in_scope:
            for site, egress in sorted(
                self._sent[fn.qualname], key=lambda pair: (pair[1], pair[0].line, pair[0].col)
            ):
                covered = (
                    "its request's journal record is durable (staging covers the "
                    "reply, not an egress)"
                    if site.staged
                    else "a covering journal write"
                )
                findings.append(
                    Diagnostic(
                        site.path,
                        site.line,
                        site.col,
                        self.code,
                        f"durable mutation {site.description} can leave the process "
                        f"at line {egress} of {fn.name}() (an outbound RPC or "
                        f"publish) before {covered}",
                    )
                )
            if self._is_root(fn):
                for site in self.summaries[fn.qualname].leaks:
                    findings.append(
                        Diagnostic(
                            site.path,
                            site.line,
                            site.col,
                            self.code,
                            f"durable mutation {site.description} can reach a "
                            f"reply in {fn.name}() without a covering journal "
                            "write (DurableStore append / GroupCommitter.stage) "
                            "on every path",
                        )
                    )
            # statements with journal/mutation anchors that no path reaches:
            # the "reply moved above the append" regression.
            reached = self._reached[fn.qualname]
            for stmt in ast.walk(fn.node):
                if (
                    isinstance(stmt, (ast.Assign, ast.AugAssign, ast.Delete, ast.Expr))
                    and stmt.lineno not in reached
                    and any(kind in ("M", "J") for kind, _ in self._events(stmt, fn))
                ):
                    findings.append(
                        Diagnostic(
                            fn.module.path,
                            stmt.lineno,
                            stmt.col_offset,
                            self.code,
                            f"journal/mutation statement in {fn.name}() is "
                            "unreachable — a reply returns before the covering "
                            "journal write",
                        )
                    )
        return findings


# ---------------------------------------------------------------------------
# WP113 — verify-before-trust
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrustConfig(OrderingConfig):
    decode_calls: frozenset[str]
    verify_calls: frozenset[str]


@dataclass
class _TrustSummary:
    #: some exit state carries decoded-but-unverified envelope data
    leaks_decode: bool = False
    must_verify: bool = False
    mutates: bool = False


class TrustAnalysis(_PathAnalysis):
    """WP113: untrusted envelope data must be verified before it is trusted."""

    code = "WP113"
    #: ``None`` while summaries settle; a list on the reporting pass after it
    _findings: list[Diagnostic] | None = None

    def _is_verify(self, name: str | None) -> bool:
        if name is None:
            return False
        return "verify" in name or name in self.config.verify_calls

    def _untrusted_params(self, fn: FunctionInfo) -> frozenset[str]:
        if fn.name not in self.index.handlers:
            return frozenset()
        params = fn.param_names()
        return frozenset(params[2:])  # (self, src, payload...) by convention

    def _events(self, stmt: ast.stmt, fn: FunctionInfo) -> list[tuple[str, object]]:
        """Ordered events: U (untrusted read), V (verification), M (trust sink)."""
        untrusted = self._untrusted
        events: list[tuple[str, object]] = []
        for header in _header_nodes(stmt):
            for node in ast.walk(header):
                if isinstance(node, ast.Subscript) and isinstance(
                    node.value, ast.Name
                ):
                    if node.value.id in untrusted:
                        events.append(("U", None))
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in untrusted
                ):
                    events.append(("U", None))
        for call in _calls_in_order(stmt):
            where = (fn.module.path, call.lineno, call.col_offset)
            name = self.index.callee_name(call)
            if name in self.config.decode_calls:
                events.append(("U", None))
            elif self._is_verify(name):
                events.append(("V", None))
            elif (
                isinstance(call.func, ast.Attribute)
                and call.func.attr in self.config.journal_methods
                and chain_parts(call.func.value)[:1] == ["self"]
            ):
                events.append(("M", Site(*where, f"self.{call.func.attr}(...)")))
            elif (mutation := self._mutating_call(call, fn)) is not None:
                events.append(("M", mutation))
            else:
                for callee in self.index.resolve_call(call, fn):
                    summary = self.summaries.get(callee.qualname)
                    if summary is None:
                        continue
                    # U, V, M: a callee counts as an untrusted read only
                    # when some path returns decoded-but-unverified data —
                    # a callee that verifies at its own trust boundary
                    # launders the decode (its body is checked separately).
                    if summary.leaks_decode:
                        events.append(("U", None))
                    if summary.must_verify:
                        events.append(("V", None))
                    if summary.mutates:
                        events.append(("M", Site(*where, f"{callee.name}(...)")))
        events.extend(("M", site) for site in self._target_mutations(stmt, fn))
        return events

    def _apply(self, events, state):
        decoded, verified = state
        for kind, site in events:
            if kind == "U":
                decoded = True
            elif kind == "V":
                verified = True
            elif decoded and not verified and self._findings is not None:
                self._findings.append(
                    Diagnostic(
                        site.path,
                        site.line,
                        site.col,
                        self.code,
                        f"state mutation {site.description} in {self._fn.name}() "
                        "uses envelope data with no dominating "
                        "signature/validation check on this path",
                    )
                )
        return decoded, verified

    def _analyze(self, fn: FunctionInfo) -> _TrustSummary:
        self._untrusted = self._untrusted_params(fn)
        exits = self._walk(fn, (False, False))  # (decoded, verified)
        return _TrustSummary(
            leaks_decode=any(decoded and not verified for decoded, verified in exits),
            must_verify=bool(exits) and all(verified for _, verified in exits),
            mutates=any(
                self._target_mutations(stmt, fn)
                for stmt in ast.walk(fn.node)
                if isinstance(stmt, ast.stmt)
            ),
        )

    def run(self) -> list[Diagnostic]:
        settle_summaries(self.in_scope, self._analyze, self.summaries)
        self._findings = []
        for fn in self.in_scope:
            self._analyze(fn)
        return self._findings
