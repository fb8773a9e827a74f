"""Good/bad fixture pairs for every rule: bad fires, good stays silent."""

from __future__ import annotations

import os

import pytest

from repro.lint import lint_paths

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


def findings_for(code: str, *names: str):
    result = lint_paths([fixture(name) for name in names])
    return [diag for diag in result.findings if diag.code == code]


class TestWP101TransportDiscipline:
    def test_bad_fires_on_raw_transport_and_send_raw(self):
        found = findings_for("WP101", "wp101_bad.py")
        assert [diag.line for diag in found] == [10, 13]
        assert "transport.request" in found[0].message
        assert "send_raw" in found[1].message

    def test_good_is_silent(self):
        assert findings_for("WP101", "wp101_good.py") == []

    def test_repro_net_itself_is_exempt(self):
        # The real transport layer is full of raw sends by design.
        src = os.path.join(os.path.dirname(FIXTURES), "..", "..", "src")
        result = lint_paths(
            [
                os.path.join(src, "repro", "net", "transport.py"),
                os.path.join(src, "repro", "net", "node.py"),
                os.path.join(src, "repro", "net", "rpc.py"),
            ]
        )
        assert [d for d in result.findings if d.code == "WP101"] == []


class TestWP102Determinism:
    def test_bad_fires_on_every_hazard(self):
        found = findings_for("WP102", "wp102_bad.py")
        assert [diag.line for diag in found] == [10, 14, 18, 18, 22, 23, 25]
        messages = " ".join(diag.message for diag in found)
        assert "random.random" in messages
        assert "time.time" in messages
        assert "datetime.now" in messages
        assert "sorted" in messages

    def test_good_is_silent(self):
        assert findings_for("WP102", "wp102_good.py") == []

    def test_only_guards_repro_packages(self):
        # Without a repro.* module name the determinism rule does not apply.
        from repro.lint import lint_sources

        result = lint_sources(
            [("scratch.py", "import random\nx = random.random()\n", "scratch")]
        )
        assert [d for d in result.findings if d.code == "WP102"] == []


class TestWP103CryptoHygiene:
    def test_bad_fires_on_pow_and_secret_compares(self):
        found = findings_for("WP103", "wp103_bad.py")
        assert [diag.line for diag in found] == [8, 12, 17, 21]
        assert "fastexp" in found[0].message
        assert all("compare_digest" in diag.message for diag in found[1:])

    def test_good_is_silent(self):
        assert findings_for("WP103", "wp103_good.py") == []

    def test_crypto_package_may_use_raw_pow(self):
        from repro.lint import lint_sources

        source = "def f(g, x, p):\n    return pow(g, x, p)\n"
        inside = lint_sources([("fastexp.py", source, "repro.crypto.fastexp")])
        outside = lint_sources([("peer.py", source, "repro.core.peer")])
        assert [d for d in inside.findings if d.code == "WP103"] == []
        assert len([d for d in outside.findings if d.code == "WP103"]) == 1


class TestWP104ExceptionDiscipline:
    def test_bad_fires_on_bare_and_swallowed(self):
        found = findings_for("WP104", "wp104_bad.py")
        assert [diag.line for diag in found] == [11, 18, 25]
        assert "bare" in found[0].message
        assert "ProtocolError" in found[1].message
        assert "NetworkError" in found[2].message

    def test_good_is_silent(self):
        assert findings_for("WP104", "wp104_good.py") == []


class TestWP105WireSchema:
    def test_cross_module_mismatch_both_directions(self):
        found = findings_for("WP105", "wp105_bad_client.py", "wp105_bad_server.py")
        assert len(found) == 2
        by_kind = {diag.message: diag for diag in found}
        sent_msg = next(m for m in by_kind if "fix.no_such_handler" in m)
        dead_msg = next(m for m in by_kind if "fix.never_sent" in m)
        assert "no Node registers a handler" in sent_msg
        assert by_kind[sent_msg].path.endswith("wp105_bad_client.py")
        assert by_kind[sent_msg].line == 16
        assert "no client or facade ever sends it" in dead_msg
        assert by_kind[dead_msg].path.endswith("wp105_bad_server.py")
        assert by_kind[dead_msg].line == 12

    def test_good_pair_is_silent_including_from_imports(self):
        assert (
            findings_for("WP105", "wp105_good_client.py", "wp105_good_server.py") == []
        )

    def test_half_a_program_reports_the_drift(self):
        # Linting only the client half: even the matched kind has no handler.
        found = findings_for("WP105", "wp105_good_client.py")
        assert {("fixok.ping" in d.message or "fixok.store" in d.message) for d in found} == {True}
        assert len(found) == 2

    def test_holder_op_table_rows_are_send_sites(self):
        # The table-driven facades send a kind they looked up (dynamic at the
        # ``_call``); the row naming it is where the send is provable.
        from repro.lint import lint_sources

        table = (
            'SERVED = "fixrow.served"\n'
            'ORPHAN = "fixrow.orphan"\n'
            'ROWS = {"a": HolderOpRow(SERVED, ORPHAN, {}, "delete"), "b": HolderOpRow(None, SERVED, {}, "coin")}\n'
            "class Facade:\n"
            "    def holder_op(self, dst, op, data):\n"
            "        return self._call(dst, ROWS[op].broker_kind, data)\n"
        )
        server = (
            "from repro.fixrow.table import SERVED\n"
            "class Server:\n"
            "    def __init__(self):\n"
            "        self.on(SERVED, self.handle)\n"
            '        self.on("fixrow.unsent", self.handle)\n'
        )
        result = lint_sources(
            [("table.py", table, "repro.fixrow.table"), ("server.py", server, "repro.fixrow.server")]
        )
        found = sorted((d.path, d.line, d.message) for d in result.findings if d.code == "WP105")
        assert [(path, line) for path, line, _ in found] == [("server.py", 5), ("table.py", 3)]
        assert "'fixrow.unsent' but no client or facade ever sends it" in found[0][2]
        assert "'fixrow.orphan' is sent but no Node registers" in found[1][2]


class TestWP106DurableFieldDiscipline:
    def test_bad_fires_on_every_mutation_shape(self):
        found = findings_for("WP106", "wp106_bad.py")
        assert [diag.line for diag in found] == [14, 17, 18, 21, 24, 27]
        messages = " ".join(diag.message for diag in found)
        assert "'deposited'" in messages
        assert "'valid_coins'" in messages
        assert "'owner_coins'" in messages
        assert "'downtime_bindings'" in messages
        assert "rebinding" in messages
        assert "pop()" in messages

    def test_good_is_silent(self):
        assert findings_for("WP106", "wp106_good.py") == []

    def test_store_and_persistence_are_exempt(self):
        from repro.lint import lint_sources

        source = "def f(broker, y, data):\n    broker.deposited[y] = data\n"
        inside = lint_sources([("apply.py", source, "repro.store.apply")])
        persistence = lint_sources([("persistence.py", source, "repro.core.persistence")])
        outside = lint_sources([("broker.py", source, "repro.core.broker")])
        assert [d for d in inside.findings if d.code == "WP106"] == []
        assert [d for d in persistence.findings if d.code == "WP106"] == []
        assert len([d for d in outside.findings if d.code == "WP106"]) == 1


class TestWP107SimSeeding:
    def test_bad_fires_on_global_stream_and_unseeded_ctors(self):
        found = findings_for("WP107", "wp107_bad.py")
        assert [diag.line for diag in found] == [10, 14, 18, 22, 26]
        messages = " ".join(diag.message for diag in found)
        assert "numpy.random.exponential" in messages
        assert "numpy.random.seed" in messages
        assert "default_rng() without a seed" in messages
        assert "RandomState() without a seed" in messages

    def test_good_is_silent(self):
        assert findings_for("WP107", "wp107_good.py") == []

    def test_scope_is_repro_sim_only(self):
        from repro.lint import lint_sources

        source = "import numpy as np\nx = np.random.random()\n"
        inside = lint_sources([("engine.py", source, "repro.sim.engine_scratch")])
        outside = lint_sources([("stats.py", source, "repro.analysis.stats_scratch")])
        assert len([d for d in inside.findings if d.code == "WP107"]) == 1
        assert [d for d in outside.findings if d.code == "WP107"] == []

    def test_seeded_engine_modules_are_clean(self):
        src = os.path.join(os.path.dirname(FIXTURES), "..", "..", "src")
        result = lint_paths(
            [
                os.path.join(src, "repro", "sim", "engine.py"),
                os.path.join(src, "repro", "sim", "simulator.py"),
            ]
        )
        assert [d for d in result.findings if d.code == "WP107"] == []


@pytest.mark.parametrize(
    "bad,good",
    [
        ("wp101_bad.py", "wp101_good.py"),
        ("wp102_bad.py", "wp102_good.py"),
        ("wp103_bad.py", "wp103_good.py"),
        ("wp104_bad.py", "wp104_good.py"),
        ("wp106_bad.py", "wp106_good.py"),
        ("wp107_bad.py", "wp107_good.py"),
        ("wp109_bad.py", "wp109_good.py"),
        ("wp114_bad.py", "wp114_good.py"),
    ],
)
def test_every_bad_fixture_fails_and_good_passes(bad, good):
    code = "WP" + bad[2:5]
    assert findings_for(code, bad), f"{bad} should produce {code} findings"
    assert not findings_for(code, good), f"{good} should be clean of {code}"


class TestWP108FsyncDiscipline:
    def test_bad_fires_on_calls_and_imports(self):
        found = findings_for("WP108", "wp108_bad.py")
        assert [diag.line for diag in found] == [4, 10, 15]
        messages = " ".join(diag.message for diag in found)
        assert "from os import fsync" in messages
        assert "os.fsync()" in messages
        assert "os.fdatasync()" in messages

    def test_good_is_silent(self):
        assert findings_for("WP108", "wp108_good.py") == []

    def test_the_journal_layer_is_exempt(self):
        from repro.lint import lint_sources

        source = "import os\n\ndef sync(fd):\n    os.fsync(fd)\n"
        inside = lint_sources([("journal.py", source, "repro.store.journal")])
        outside = lint_sources([("broker.py", source, "repro.core.broker")])
        assert [d for d in inside.findings if d.code == "WP108"] == []
        assert len([d for d in outside.findings if d.code == "WP108"]) == 1


class TestWP109BrokerConstructionDiscipline:
    def test_bad_fires_on_bare_and_qualified_construction(self):
        found = findings_for("WP109", "wp109_bad.py")
        assert [diag.line for diag in found] == [8, 12]
        assert all("factories" in diag.message for diag in found)

    def test_good_is_silent(self):
        assert findings_for("WP109", "wp109_good.py") == []

    def test_factory_and_recovery_modules_are_exempt(self):
        from repro.lint import lint_sources

        source = "def build(Broker, transport):\n    return Broker(transport)\n"
        factory = lint_sources([("network.py", source, "repro.core.network")])
        recovery = lint_sources([("recovery.py", source, "repro.store.recovery")])
        tests_mod = lint_sources([("test_broker.py", source, "tests.core.test_broker")])
        elsewhere = lint_sources([("peer.py", source, "repro.core.peer")])
        assert [d for d in factory.findings if d.code == "WP109"] == []
        assert [d for d in recovery.findings if d.code == "WP109"] == []
        assert [d for d in tests_mod.findings if d.code == "WP109"] == []
        assert len([d for d in elsewhere.findings if d.code == "WP109"]) == 1

    def test_subclass_names_do_not_fire(self):
        from repro.lint import lint_sources

        source = "def build(PPayBroker, t):\n    return PPayBroker(t)\n"
        result = lint_sources([("x.py", source, "repro.baselines.scratch")])
        assert [d for d in result.findings if d.code == "WP109"] == []


class TestWP110AnonymityTaint:
    def test_bad_fires_on_direct_helper_and_group_seal_flows(self):
        found = findings_for("WP110", "wp110_bad.py")
        assert [diag.line for diag in found] == [8, 12, 16]
        messages = " ".join(diag.message for diag in found)
        assert "holder-envelope field funding_auth" in messages
        assert "group_seal payload" in messages

    def test_good_is_silent(self):
        assert findings_for("WP110", "wp110_good.py") == []

    def test_outside_peer_modules_is_out_of_scope(self):
        from repro.lint import lint_sources

        source = (
            "class X:\n"
            "    def f(self, held):\n"
            "        return self._holder_envelope(held, 'op', who=self.address)\n"
        )
        result = lint_sources([("x.py", source, "repro.sim.driver")])
        assert [d for d in result.findings if d.code == "WP110"] == []


class TestWP111SecretEgress:
    def test_bad_fires_on_every_egress_surface(self):
        found = findings_for("WP111", "wp111_bad.py")
        assert [diag.line for diag in found] == [7, 10, 13, 19, 23]
        messages = " ".join(diag.message for diag in found)
        for surface in (
            "printed output",
            "journal record",
            "exception message",
            "handler reply payload",
            "log message",
        ):
            assert surface in messages

    def test_good_is_silent(self):
        assert findings_for("WP111", "wp111_good.py") == []

    def test_serializer_layer_is_exempt(self):
        from repro.lint import lint_sources

        source = (
            "def record(keypair):\n"
            "    return {'type': 'init', 'x': keypair.x}\n"
        )
        inside = lint_sources([("records.py", source, "repro.store.records")])
        assert [d for d in inside.findings if d.code == "WP111"] == []


class TestWP112JournalBeforeReply:
    def test_bad_fires_on_unjournaled_one_armed_and_dead_code(self):
        found = findings_for("WP112", "wp112_bad.py")
        assert [diag.line for diag in found] == [7, 11, 15, 21, 23]
        messages = " ".join(diag.message for diag in found)
        assert "without a covering journal write" in messages
        assert "unreachable" in messages

    def test_good_is_silent(self):
        assert findings_for("WP112", "wp112_good.py") == []


class TestWP113VerifyBeforeTrust:
    def test_bad_fires_on_handler_and_decode_flows(self):
        found = findings_for("WP113", "wp113_bad.py")
        assert [diag.line for diag in found] == [11, 16]
        assert all("no dominating signature/validation" in d.message for d in found)

    def test_good_is_silent(self):
        assert findings_for("WP113", "wp113_good.py") == []

    def test_a_parsed_holder_request_is_still_untrusted(self):
        # ``open_holder_request`` only opens: journaling a field of what it
        # returned before any verify call is the bug WP113 exists for.
        found = findings_for("WP113", "wp113_parser_bad.py")
        assert [diag.line for diag in found] == [12, 13]
        assert findings_for("WP113", "wp113_parser_good.py") == []


class TestWP114LivenessDiscipline:
    def test_bad_fires_on_unbounded_rpc_and_sleeps(self):
        found = findings_for("WP114", "wp114_bad.py")
        assert [diag.line for diag in found] == [5, 14, 17, 20]
        messages = " ".join(diag.message for diag in found)
        assert "importing sleep" in messages
        assert "deadline=" in messages
        assert "time.sleep" in messages

    def test_good_is_silent(self):
        assert findings_for("WP114", "wp114_good.py") == []

    def test_repro_net_backoff_helpers_are_exempt(self):
        # The RPC layer itself implements the budget machinery; its
        # seeded-backoff accounting is the sanctioned form.
        from repro.lint import lint_sources

        source = "def probe(rpc, dst):\n    return rpc.call(dst, 'ping', None)\n"
        inside = lint_sources([("rpc.py", source, "repro.net.rpc")])
        outside = lint_sources([("peer.py", source, "repro.core.peer")])
        assert [d for d in inside.findings if d.code == "WP114"] == []
        assert len([d for d in outside.findings if d.code == "WP114"]) == 1


class TestAliasedCalls:
    """A forbidden call is one finding however the file imported its module."""

    def test_every_aliased_spelling_is_reported_at_its_line(self):
        result = lint_paths([fixture("alias_bad_core.py"), fixture("alias_bad_sim.py")])
        found = [(os.path.basename(d.path), d.line, d.code) for d in result.findings]
        assert found == [
            ("alias_bad_core.py", 4, "WP102"),  # from time import time as now; now()
            ("alias_bad_core.py", 5, "WP102"),  # perf_counter()
            ("alias_bad_core.py", 6, "WP102"),  # import time as t; t.time()
            ("alias_bad_core.py", 7, "WP114"),  # t.sleep(1)
            ("alias_bad_core.py", 8, "WP102"),  # import random as r; r.random()
            ("alias_bad_core.py", 9, "WP102"),  # from random import choice; choice(xs)
            ("alias_bad_core.py", 10, "WP108"),  # import os as o; o.fsync(fd)
            ("alias_bad_core.py", 11, "WP108"),  # from os import fsync as f; f(fd)
            ("alias_bad_core.py", 12, "WP102"),  # from datetime import datetime as dt; dt.now()
            ("alias_bad_core.py", 13, "WP109"),  # from repro.core.broker import Broker as B; B()
            ("alias_bad_core.py", 14, "WP109"),  # from repro.core import broker as bmod; bmod.Broker()
            ("alias_bad_core.py", 20, "WP102"),  # the import is inside the function
            ("alias_bad_sim.py", 4, "WP107"),  # import numpy.random as nr; nr.random()
            ("alias_bad_sim.py", 5, "WP107"),  # from numpy import random as rr; rr.random()
        ]
        # The message names what was called, not how the file spelled it.
        assert "time.time()" in result.findings[0].message
        assert "datetime.now()" in result.findings[8].message

    def test_sanctioned_forms_through_the_same_aliases_are_clean(self):
        assert lint_paths([fixture("alias_good.py")]).findings == []
