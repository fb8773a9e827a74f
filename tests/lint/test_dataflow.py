"""Dataflow layer: call-graph resolution, taint summaries, ordering checks.

The capstone here is the seeded-mutation test: take the *real* broker
source, move a reply ahead of its covering journal write inside a real
handler, and show WP112 catches exactly that — while the pristine source
stays clean.
"""

from __future__ import annotations

import ast
import os

from repro.lint.dataflow.callgraph import get_index
from repro.lint.engine import Program, load_source, lint_sources

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.abspath(os.path.join(HERE, "..", ".."))


def build_program(*entries: tuple[str, str, str]) -> Program:
    program = Program()
    for path, source, module in entries:
        program.modules.append(load_source(path, source, module))
    return program


def wp112(result):
    return [d for d in result.findings if d.code == "WP112"]


class TestCallGraph:
    def test_same_module_and_imported_functions_resolve(self):
        program = build_program(
            (
                "a.py",
                "from repro.b import helper\n"
                "def local():\n    return 1\n"
                "def caller():\n    return local() + helper()\n",
                "repro.a",
            ),
            ("b.py", "def helper():\n    return 2\n", "repro.b"),
        )
        index = get_index(program)
        caller = index.by_qualname["repro.a:caller"]
        calls = [
            node
            for node in ast.walk(caller.node)
            if isinstance(node, ast.Call)
        ]
        resolved = {
            fn.qualname for call in calls for fn in index.resolve_call(call, caller)
        }
        assert resolved == {"repro.a:local", "repro.b:helper"}

    def test_self_method_resolves_across_the_class_hierarchy(self):
        program = build_program(
            (
                "a.py",
                "class Base:\n"
                "    def step(self):\n        return 1\n"
                "    def run(self):\n        return self.step()\n"
                "class Sub(Base):\n"
                "    def step(self):\n        return 2\n",
                "repro.a",
            ),
        )
        index = get_index(program)
        run = index.by_qualname["repro.a:Base.run"]
        call = next(n for n in ast.walk(run.node) if isinstance(n, ast.Call))
        resolved = {fn.qualname for fn in index.resolve_call(call, run)}
        assert resolved == {"repro.a:Base.step", "repro.a:Sub.step"}

    def test_super_call_excludes_the_calling_class_override(self):
        program = build_program(
            (
                "a.py",
                "class Base:\n"
                "    def step(self):\n        return 1\n"
                "class Sub(Base):\n"
                "    def step(self):\n        return super().step()\n",
                "repro.a",
            ),
        )
        index = get_index(program)
        sub_step = index.by_qualname["repro.a:Sub.step"]
        call = next(
            n
            for n in ast.walk(sub_step.node)
            if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr == "step"
        )
        resolved = {fn.qualname for fn in index.resolve_call(call, sub_step)}
        assert resolved == {"repro.a:Base.step"}

    def test_builtin_method_names_never_resolve_by_uniqueness(self):
        program = build_program(
            (
                "a.py",
                "class Registry:\n"
                "    def get(self, k):\n        return k\n"
                "def caller(d):\n    return d.get('x')\n",
                "repro.a",
            ),
        )
        index = get_index(program)
        caller = index.by_qualname["repro.a:caller"]
        call = next(n for n in ast.walk(caller.node) if isinstance(n, ast.Call))
        assert index.resolve_call(call, caller) == []


class TestInterproceduralTaint:
    def test_taint_crosses_two_call_hops(self):
        result = lint_sources(
            [
                (
                    "peer.py",
                    "class P:\n"
                    "    def entry(self, held):\n"
                    "        return self._mid(held, self.address)\n"
                    "    def _mid(self, held, who):\n"
                    "        return self._low(held, who)\n"
                    "    def _low(self, held, blob):\n"
                    "        return self._holder_envelope(held, 'op', field=blob)\n",
                    "repro.core.peer",
                )
            ]
        )
        found = [d for d in result.findings if d.code == "WP110"]
        assert len(found) == 1
        assert found[0].line == 3  # reported where SRC enters the flow

    def test_barrier_module_call_returns_clean(self):
        result = lint_sources(
            [
                (
                    "peer.py",
                    "from repro.crypto.elgamal import seal_value\n"
                    "class P:\n"
                    "    def entry(self, held):\n"
                    "        token = seal_value(self.address)\n"
                    "        return self._holder_envelope(held, 'op', field=token)\n",
                    "repro.core.peer",
                ),
                (
                    "elgamal.py",
                    "def seal_value(x):\n    return x\n",
                    "repro.crypto.elgamal",
                ),
            ]
        )
        assert [d for d in result.findings if d.code == "WP110"] == []


class TestOrderingAnalysis:
    def test_obligation_inherited_from_a_private_helper(self):
        # The helper mutates without journaling; only the public root reports.
        result = lint_sources(
            [
                (
                    "peer.py",
                    "class P:\n"
                    "    def entry(self, coin):\n"
                    "        self._put(coin)\n"
                    "        return coin\n"
                    "    def _put(self, coin):\n"
                    "        self.owned[coin.y] = coin\n",
                    "repro.core.peer",
                )
            ]
        )
        found = wp112(result)
        assert len(found) == 1
        assert "entry()" in found[0].message

    def test_callee_journal_discharges_the_obligation(self):
        result = lint_sources(
            [
                (
                    "peer.py",
                    "class P:\n"
                    "    def entry(self, coin):\n"
                    "        self.owned[coin.y] = coin\n"
                    "        self._record(coin)\n"
                    "        return coin\n"
                    "    def _record(self, coin):\n"
                    "        self._wal_owned(coin)\n",
                    "repro.core.peer",
                )
            ]
        )
        assert wp112(result) == []


class TestSeededMutation:
    """WP112 catches a reply moved ahead of its journal append for real."""

    BROKER = os.path.join(REPO, "src", "repro", "core", "broker.py")

    def _load(self):
        with open(self.BROKER, "r", encoding="utf-8") as fh:
            return fh.read()

    def _swap_stage_and_return(self, tree: ast.Module) -> bool:
        """In _move_value's all-local branch, move the reply above its
        ``self._stage`` (every value-moving handler replies through it)."""
        for node in ast.walk(tree):
            if not (isinstance(node, ast.FunctionDef) and node.name == "_move_value"):
                continue
            for stmt in ast.walk(node):
                if not (isinstance(stmt, ast.If) and len(stmt.body) >= 2):
                    continue
                first, second = stmt.body[-2:]
                if (
                    isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Call)
                    and isinstance(first.value.func, ast.Attribute)
                    and first.value.func.attr == "_stage"
                    and isinstance(second, ast.Return)
                ):
                    stmt.body[-2:] = [second, first]
                    return True
        return False

    def test_pristine_broker_handler_is_clean(self):
        source = ast.unparse(ast.parse(self._load()))
        result = lint_sources([("broker.py", source, "repro.core.broker")])
        assert wp112(result) == []

    def test_mutated_broker_handler_is_caught(self):
        tree = ast.parse(self._load())
        assert self._swap_stage_and_return(tree), "broker.py lost the seeded shape"
        mutated = ast.unparse(tree)
        result = lint_sources([("broker.py", mutated, "repro.core.broker")])
        found = wp112(result)
        assert found, "WP112 missed the reply moved ahead of its journal append"
        assert any("_move_value" in d.message for d in found)


class TestSeededEgressMutation:
    """WP112 catches an owner that lets a binding out before its floor is durable."""

    PEER = os.path.join(REPO, "src", "repro", "core", "peer.py")

    def _lint(self, tree: ast.Module):
        return wp112(lint_sources([("peer.py", ast.unparse(tree), "repro.core.peer")]))

    def test_pristine_peer_is_clean(self):
        with open(self.PEER, "r", encoding="utf-8") as fh:
            assert self._lint(ast.parse(fh.read())) == []

    def test_dropping_the_floor_journal_is_caught(self):
        with open(self.PEER, "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        (bind,) = [
            node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "_bind"
        ]
        (reserve,) = [
            stmt for stmt in ast.walk(bind) if isinstance(stmt, ast.If) and "SEQ_RESERVATION" in ast.unparse(stmt)
        ]
        reserve.body = [stmt for stmt in reserve.body if "_wal" not in ast.unparse(stmt)]
        found = self._lint(tree)
        assert found, "WP112 missed a binding sent before its seq floor was journaled"
        assert all(".seq_floor" in d.message and "_bind()" in d.message for d in found)


class TestSeededStagedEgressMutation:
    """WP112 catches a broker that publishes a downtime binding after staging
    it, the order that let a refused publish leave unjournaled state."""

    BROKER = os.path.join(REPO, "src", "repro", "core", "broker.py")

    def _lint(self, tree: ast.Module):
        return wp112(lint_sources([("broker.py", ast.unparse(tree), "repro.core.broker")]))

    def test_staging_before_the_publish_is_caught(self):
        with open(self.BROKER, "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        (record,) = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_record_downtime_binding"
        ]
        publish, stage = record.body[-3:-1]  # between the docstring and the return
        assert "detection.publish" in ast.unparse(publish) and "_stage" in ast.unparse(stage)
        record.body[-3:-1] = [stage, publish]
        found = self._lint(tree)
        assert [d.message.split(" of ")[1].split("()")[0] for d in found] == ["_record_downtime_binding"]
        assert "staging covers the reply" in found[0].message

