"""Transport tests: delivery, failure modes, traffic accounting."""

import pytest

from repro.core.clock import Clock
from repro.net.node import Node
from repro.net.transport import (
    FaultPlan,
    LinkPartitioned,
    MessageDropped,
    NetworkError,
    NodeOffline,
    Partition,
    ReplyLost,
    Transport,
    UnknownNode,
)


def make_echo(transport, address):
    node = Node(transport, address)
    node.on("echo", lambda src, payload: {"from": src, "payload": payload})
    return node


class TestDelivery:
    def test_request_response(self):
        t = Transport()
        make_echo(t, "a")
        make_echo(t, "b")
        response = t.request("a", "b", "echo", 42)
        assert response == {"from": "a", "payload": 42}

    def test_unknown_destination(self):
        t = Transport()
        make_echo(t, "a")
        with pytest.raises(UnknownNode):
            t.request("a", "ghost", "echo", None)

    def test_offline_destination(self):
        t = Transport()
        make_echo(t, "a")
        b = make_echo(t, "b")
        b.go_offline()
        with pytest.raises(NodeOffline):
            t.request("a", "b", "echo", None)
        b.go_online()
        assert t.request("a", "b", "echo", 1)["payload"] == 1

    def test_missing_handler(self):
        t = Transport()
        make_echo(t, "a")
        make_echo(t, "b")
        with pytest.raises(NetworkError):
            t.request("a", "b", "nope", None)

    def test_duplicate_address_rejected(self):
        t = Transport()
        make_echo(t, "a")
        with pytest.raises(ValueError):
            make_echo(t, "a")

    def test_duplicate_handler_rejected(self):
        t = Transport()
        node = make_echo(t, "a")
        with pytest.raises(ValueError):
            node.on("echo", lambda s, p: None)

    def test_handler_exception_propagates(self):
        t = Transport()
        node = Node(t, "x")
        node.on("boom", lambda s, p: (_ for _ in ()).throw(RuntimeError("bang")))
        make_echo(t, "caller")
        with pytest.raises(RuntimeError):
            t.request("caller", "x", "boom", None)


class TestAccounting:
    def test_message_counts(self):
        t = Transport()
        make_echo(t, "a")
        make_echo(t, "b")
        t.request("a", "b", "echo", "hi")
        assert t.counter("a").messages_sent == 1
        assert t.counter("a").messages_received == 1  # the response
        assert t.counter("b").messages_sent == 1
        assert t.counter("b").messages_received == 1
        assert t.total_messages == 2  # request + response

    def test_byte_counts_positive(self):
        t = Transport()
        make_echo(t, "a")
        make_echo(t, "b")
        t.request("a", "b", "echo", b"x" * 100)
        assert t.counter("a").bytes_sent >= 100

    def test_reset(self):
        t = Transport()
        make_echo(t, "a")
        make_echo(t, "b")
        t.request("a", "b", "echo", 1)
        t.reset_counters()
        assert t.total_messages == 0
        assert t.counter("a").messages_sent == 0

    def test_latency_accrual(self):
        t = Transport(per_hop_latency=0.05)
        make_echo(t, "a")
        make_echo(t, "b")
        t.request("a", "b", "echo", 1)
        assert t.virtual_latency_accrued == pytest.approx(0.1)

    def test_is_online(self):
        t = Transport()
        node = make_echo(t, "a")
        assert t.is_online("a")
        node.go_offline()
        assert not t.is_online("a")
        assert not t.is_online("missing")

    def test_addresses_listing(self):
        t = Transport()
        make_echo(t, "a")
        make_echo(t, "b")
        assert t.addresses() == ["a", "b"]
        t.unregister("a")
        assert t.addresses() == ["b"]

    def test_reset_clears_dropped_counter(self):
        # Regression: reset_counters used to leave messages_dropped behind.
        t = Transport()
        make_echo(t, "a")
        make_echo(t, "b")
        t.install_faults(FaultPlan(seed=1, request_loss=1.0))
        with pytest.raises(MessageDropped):
            t.request("a", "b", "echo", 1)
        assert t.messages_dropped == 1
        t.reset_counters()
        assert t.messages_dropped == 0


class TestFaultPlan:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(request_loss=1.5)
        with pytest.raises(ValueError):
            FaultPlan(latency_jitter=-0.1)

    def test_request_drop_accounts_sender_only(self):
        t = Transport()
        make_echo(t, "a")
        make_echo(t, "b")
        t.install_faults(FaultPlan(seed=1, request_loss=1.0))
        with pytest.raises(MessageDropped):
            t.request("a", "b", "echo", 1)
        assert t.counter("a").messages_sent == 1
        assert t.counter("b").messages_received == 0
        assert t.faults.stats.requests_dropped == 1

    def test_reply_drop_runs_handler_and_accounts_reply_send(self):
        t = Transport()
        make_echo(t, "a")
        b = Node(t, "b")
        served = []
        b.on("echo", lambda src, p: served.append(p) or {"ok": True})
        t.install_faults(FaultPlan(seed=1, response_loss=1.0))
        with pytest.raises(ReplyLost):
            t.request("a", "b", "echo", 7)
        assert served == [7]  # the handler DID run
        assert t.counter("b").messages_sent == 1  # reply left b...
        assert t.counter("a").messages_received == 0  # ...but never reached a
        assert t.faults.stats.replies_dropped == 1

    def test_crash_after_handler_emits_no_reply_bytes(self):
        t = Transport()
        make_echo(t, "a")
        make_echo(t, "b")
        t.install_faults(FaultPlan(seed=1, crash_after_handler=1.0))
        with pytest.raises(ReplyLost):
            t.request("a", "b", "echo", 1)
        # Request accounted both sides; the crashed node never sent a reply.
        assert t.counter("b").messages_sent == 0
        assert t.faults.stats.crash_after_handler == 1

    def test_duplicate_delivery_runs_handler_twice(self):
        t = Transport()
        make_echo(t, "a")
        b = Node(t, "b")
        calls = []
        b.on("echo", lambda src, p: calls.append(p) or {"ok": True})
        t.install_faults(FaultPlan(seed=1, duplicate_rate=1.0))
        t.request("a", "b", "echo", 3)
        assert calls == [3, 3]
        assert t.faults.stats.duplicates_delivered == 1

    def test_jitter_accrues_virtual_latency(self):
        t = Transport()
        make_echo(t, "a")
        make_echo(t, "b")
        t.install_faults(FaultPlan(seed=5, latency_jitter=0.2))
        t.request("a", "b", "echo", 1)
        assert 0.0 < t.virtual_latency_accrued < 0.4
        assert t.faults.stats.jitter_accrued == pytest.approx(t.virtual_latency_accrued)

    def test_partition_window_against_virtual_clock(self):
        t = Transport()
        t.clock = Clock()
        make_echo(t, "a")
        make_echo(t, "broker")
        plan = FaultPlan(seed=1).partition("broker", "*", start=10.0, end=20.0)
        t.install_faults(plan)
        assert t.request("a", "broker", "echo", 1)["payload"] == 1  # before the window
        t.clock.advance(15.0)
        with pytest.raises(LinkPartitioned):
            t.request("a", "broker", "echo", 1)
        with pytest.raises(LinkPartitioned):  # symmetric cut
            t.request("broker", "a", "echo", 1)
        t.clock.advance(10.0)  # past the window
        assert t.request("a", "broker", "echo", 1)["payload"] == 1
        assert plan.stats.partition_blocks == 2

    def test_partition_wildcard_matching(self):
        p = Partition(a="x", b="*")
        assert p.blocks("x", "anyone", now=0.0)
        assert p.blocks("anyone", "x", now=0.0)
        assert not p.blocks("u", "v", now=0.0)

    def test_scripted_drops_consumed_before_random(self):
        plan = FaultPlan(seed=1)  # all random rates zero
        plan.scripted_reply_drops = 2
        assert plan.take_reply_drop()
        assert plan.take_reply_drop()
        assert not plan.take_reply_drop()

    def test_identical_seeds_replay_identically(self):
        def run(seed):
            t = Transport()
            make_echo(t, "a")
            make_echo(t, "b")
            t.install_faults(FaultPlan(seed=seed, request_loss=0.3, response_loss=0.2))
            outcomes = []
            for i in range(50):
                try:
                    t.request("a", "b", "echo", i)
                    outcomes.append("ok")
                except MessageDropped:
                    outcomes.append("req")
                except ReplyLost:
                    outcomes.append("rep")
            return outcomes, t.faults.stats.as_dict()

        assert run(42) == run(42)
        assert run(42) != run(43)

    def test_request_loss_installs_and_uninstalls(self):
        t = Transport()
        make_echo(t, "a")
        make_echo(t, "b")
        t.install_faults(FaultPlan(1, request_loss=1.0))
        with pytest.raises(MessageDropped):
            t.request("a", "b", "echo", 1)
        t.install_faults(None)
        assert t.request("a", "b", "echo", 1)["payload"] == 1
