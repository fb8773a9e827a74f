"""Resolver edge cases: aliases, dotted chains, re-exports, cycles."""

from __future__ import annotations

import ast

from repro.lint.engine import Program, load_source
from repro.lint.resolve import ConstantResolver, collect_symbols, dotted_prefix


def program_of(*entries: tuple[str, str, str]) -> Program:
    program = Program()
    for path, source, module in entries:
        program.modules.append(load_source(path, source, module))
    return program


def resolve_in(program: Program, module_name: str, expr_source: str):
    info = next(m for m in program.modules if m.module == module_name)
    expr = ast.parse(expr_source, mode="eval").body
    return ConstantResolver(program).resolve(expr, info)


class TestCollectSymbols:
    def test_plain_import_records_only_the_root(self):
        symbols = collect_symbols(ast.parse("import repro.core.protocol\n"))
        assert symbols.module_aliases == {}

    def test_import_as_records_the_full_dotted_target(self):
        symbols = collect_symbols(ast.parse("import repro.core.protocol as proto\n"))
        assert symbols.module_aliases == {"proto": "repro.core.protocol"}

    def test_from_import_records_both_module_and_name_readings(self):
        symbols = collect_symbols(ast.parse("from repro.core import protocol\n"))
        assert symbols.module_aliases["protocol"] == "repro.core.protocol"
        assert symbols.imported_names["protocol"] == ("repro.core", "protocol")


class TestDottedPrefix:
    def test_name_and_attribute_chains(self):
        assert dotted_prefix(ast.parse("a", mode="eval").body) == "a"
        assert dotted_prefix(ast.parse("a.b.c", mode="eval").body) == "a.b.c"

    def test_non_chain_expressions_resolve_to_none(self):
        assert dotted_prefix(ast.parse("f().b", mode="eval").body) is None
        assert dotted_prefix(ast.parse("a[0].b", mode="eval").body) is None


class TestConstantResolver:
    PROTOCOL = ("protocol.py", 'KIND = "whopay.kind"\n', "repro.core.protocol")

    def test_aliased_module_import(self):
        program = program_of(
            self.PROTOCOL,
            (
                "user.py",
                "import repro.core.protocol as proto\n",
                "repro.user",
            ),
        )
        assert resolve_in(program, "repro.user", "proto.KIND") == "whopay.kind"

    def test_chained_attribute_constant_through_plain_import(self):
        program = program_of(
            self.PROTOCOL,
            ("user.py", "import repro.core.protocol\n", "repro.user"),
        )
        assert (
            resolve_in(program, "repro.user", "repro.core.protocol.KIND")
            == "whopay.kind"
        )

    def test_chained_attribute_through_package_alias(self):
        program = program_of(
            self.PROTOCOL,
            ("user.py", "import repro.core as core\n", "repro.user"),
        )
        assert resolve_in(program, "repro.user", "core.protocol.KIND") == "whopay.kind"

    def test_aliased_from_import_of_a_name(self):
        program = program_of(
            self.PROTOCOL,
            (
                "user.py",
                "from repro.core.protocol import KIND as K\n",
                "repro.user",
            ),
        )
        assert resolve_in(program, "repro.user", "K") == "whopay.kind"

    def test_reexport_chain_resolves_transitively(self):
        program = program_of(
            self.PROTOCOL,
            (
                "init.py",
                "from repro.core.protocol import KIND\n",
                "repro.core",
            ),
            (
                "user.py",
                "from repro.core import KIND\n",
                "repro.user",
            ),
        )
        assert resolve_in(program, "repro.user", "KIND") == "whopay.kind"

    def test_reexport_cycle_resolves_to_none(self):
        program = program_of(
            ("a.py", "from repro.b import K\n", "repro.a"),
            ("b.py", "from repro.a import K\n", "repro.b"),
        )
        assert resolve_in(program, "repro.a", "K") is None

    def test_unknown_and_dynamic_expressions_resolve_to_none(self):
        program = program_of(self.PROTOCOL, ("user.py", "", "repro.user"))
        assert resolve_in(program, "repro.user", "MISSING") is None
        assert resolve_in(program, "repro.user", "payload['kind']") is None

    def test_string_literal_resolves_directly(self):
        program = program_of(("user.py", "", "repro.user"))
        assert resolve_in(program, "repro.user", "'whopay.raw'") == "whopay.raw"
