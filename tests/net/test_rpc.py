"""RPC layer tests: retry/backoff, idempotency envelopes, replay dedupe."""

import pytest

from repro.net.node import Node
from repro.net.rpc import (
    DEFAULT_POLICY,
    RESILIENT_POLICY,
    ReplayCache,
    RetriesExhausted,
    RetryPolicy,
    RpcClient,
    RpcTimeout,
    new_idempotency_key,
    unwrap_idempotent,
    wrap_idempotent,
)
from repro.net.transport import (
    FaultPlan,
    MessageDropped,
    NodeOffline,
    ReplyLost,
    Transport,
)


def make_counter_node(transport, address):
    """A node whose handler counts its own executions."""
    node = Node(transport, address)
    node.calls = []
    node.on("op", lambda src, payload: node.calls.append(payload) or {"ok": True, "n": len(node.calls)})
    return node


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)

    def test_backoff_is_bounded_and_grows(self):
        import random

        policy = RetryPolicy(max_attempts=8, base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0)
        rng = random.Random(0)
        delays = [policy.backoff(n, rng) for n in range(1, 8)]
        assert delays[0] == pytest.approx(0.1)
        assert delays[1] == pytest.approx(0.2)
        assert all(d <= 0.5 for d in delays)
        assert delays[-1] == pytest.approx(0.5)  # capped

    def test_backoff_jitter_stretches_within_bounds(self):
        import random

        policy = RetryPolicy(max_attempts=2, base_delay=1.0, jitter=0.5)
        rng = random.Random(7)
        for _ in range(20):
            assert 1.0 <= policy.backoff(1, rng) <= 1.5


class TestIdempotencyEnvelope:
    def test_round_trip(self):
        key = new_idempotency_key()
        wire = wrap_idempotent({"x": 1}, key)
        got_key, body = unwrap_idempotent(wire)
        assert got_key == key
        assert body == {"x": 1}

    def test_plain_payload_passes_through(self):
        assert unwrap_idempotent({"x": 1}) == (None, {"x": 1})
        assert unwrap_idempotent(b"raw") == (None, b"raw")

    def test_keys_are_unique(self):
        assert len({new_idempotency_key() for _ in range(100)}) == 100


class TestReplayCache:
    def test_store_and_hit(self):
        cache = ReplayCache(capacity=4)
        hit, _ = cache.lookup(("op", "k1"))
        assert not hit
        cache.store(("op", "k1"), {"ok": True})
        hit, value = cache.lookup(("op", "k1"))
        assert hit and value == {"ok": True}
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_is_bounded(self):
        cache = ReplayCache(capacity=3)
        for i in range(5):
            cache.store(("op", f"k{i}"), i)
        assert len(cache) == 3
        assert cache.evictions == 2
        assert cache.lookup(("op", "k0"))[0] is False  # oldest gone
        assert cache.lookup(("op", "k4"))[0] is True

    def test_lookup_refreshes_recency(self):
        cache = ReplayCache(capacity=2)
        cache.store(("op", "a"), 1)
        cache.store(("op", "b"), 2)
        cache.lookup(("op", "a"))  # a is now most recent
        cache.store(("op", "c"), 3)  # evicts b
        assert cache.lookup(("op", "a"))[0] is True
        assert cache.lookup(("op", "b"))[0] is False


class TestRpcClient:
    def test_binding_validation(self):
        t = Transport()
        node = make_counter_node(t, "a")
        with pytest.raises(ValueError):
            RpcClient()
        with pytest.raises(ValueError):
            RpcClient(node=node, transport=t)

    def test_recovers_from_scripted_reply_loss_without_rerun(self):
        t = Transport()
        caller = make_counter_node(t, "caller")
        server = make_counter_node(t, "server")
        plan = FaultPlan(seed=1)
        plan.scripted_reply_drops = 1
        t.install_faults(plan)
        result = caller.rpc.call(
            "server",
            "op",
            {"v": 1},
            idempotency_key=new_idempotency_key(),
            policy=RESILIENT_POLICY,
        )
        assert result == {"ok": True, "n": 1}
        # The first attempt ran the handler; the retry was a cache hit.
        assert len(server.calls) == 1
        assert server.replays_served == 1
        assert caller.rpc.stats.recovered == 1

    def test_recovers_from_scripted_request_loss(self):
        t = Transport()
        caller = make_counter_node(t, "caller")
        server = make_counter_node(t, "server")
        plan = FaultPlan(seed=1)
        plan.scripted_request_drops = 2
        t.install_faults(plan)
        result = caller.rpc.call("server", "op", {"v": 1}, policy=RESILIENT_POLICY)
        assert result["ok"]
        assert len(server.calls) == 1  # dropped requests never reached it
        assert caller.rpc.stats.retries == 2

    def test_single_attempt_raises_raw_transport_error(self):
        t = Transport()
        caller = make_counter_node(t, "caller")
        make_counter_node(t, "server")
        plan = FaultPlan(seed=1)
        plan.scripted_request_drops = 1
        t.install_faults(plan)
        with pytest.raises(MessageDropped):
            caller.rpc.call("server", "op", {}, policy=DEFAULT_POLICY)

    def test_exhaustion_reports_attempts_and_cause(self):
        t = Transport()
        caller = make_counter_node(t, "caller")
        make_counter_node(t, "server")
        t.install_faults(FaultPlan(seed=1, request_loss=1.0))
        policy = RetryPolicy(max_attempts=3, base_delay=0.01)
        with pytest.raises(RetriesExhausted) as exc_info:
            caller.rpc.call("server", "op", {}, policy=policy)
        assert exc_info.value.attempts == 3
        assert isinstance(exc_info.value.last_error, MessageDropped)
        assert caller.rpc.stats.exhausted == 1

    def test_idempotency_envelope_only_when_retrying(self):
        t = Transport()
        caller = make_counter_node(t, "caller")
        server = Node(t, "server")
        seen = []
        server.on("op", lambda src, payload: seen.append(payload) or {"ok": True})
        caller.rpc.call("server", "op", {"v": 1}, idempotency_key="k")
        assert seen[-1] == {"v": 1}  # default policy: raw wire format
        caller.rpc.call("server", "op", {"v": 2}, idempotency_key="k2", policy=RESILIENT_POLICY)
        assert seen[-1] == {"v": 2}  # Node.handle unwrapped the envelope
        assert ("op", "k2") in server.replay_cache._entries

    def test_node_offline_not_retried_by_default(self):
        t = Transport()
        caller = make_counter_node(t, "caller")
        server = make_counter_node(t, "server")
        server.go_offline()
        with pytest.raises(NodeOffline):
            caller.rpc.call("server", "op", {}, policy=RESILIENT_POLICY)
        assert caller.rpc.stats.retries == 0

    def test_timeout_budget(self):
        t = Transport()
        caller = make_counter_node(t, "caller")
        make_counter_node(t, "server")
        t.install_faults(FaultPlan(seed=1, request_loss=1.0))
        policy = RetryPolicy(max_attempts=10, base_delay=1.0, jitter=0.0)
        with pytest.raises(RpcTimeout) as exc_info:
            caller.rpc.call("server", "op", {}, policy=policy, deadline=2.5)
        assert caller.rpc.stats.deadline_exceeded == 1
        # 1.0s, then the 2.0s backoff clamped to the 1.5s left, then nothing.
        assert exc_info.value.attempts == 3
        assert t.virtual_latency_accrued == pytest.approx(2.5)

    def test_backoff_accrues_virtual_latency_not_clock(self):
        t = Transport()
        caller = make_counter_node(t, "caller")
        make_counter_node(t, "server")
        plan = FaultPlan(seed=1)
        plan.scripted_request_drops = 1
        t.install_faults(plan)
        caller.rpc.call("server", "op", {}, policy=RESILIENT_POLICY)
        assert t.virtual_latency_accrued > 0.0
        assert t.virtual_latency_accrued == pytest.approx(caller.rpc.stats.backoff_accrued)

    def test_transport_bound_client_uses_explicit_src(self):
        t = Transport()
        server = Node(t, "server")
        server.on("op", lambda src, payload: {"seen_src": src})
        rpc = RpcClient(transport=t)
        assert rpc.call("server", "op", {}, src="overlay-7") == {"seen_src": "overlay-7"}

    def test_backoff_schedule_deterministic_per_endpoint(self):
        def accrued(run):
            t = Transport()
            caller = make_counter_node(t, "caller")
            make_counter_node(t, "server")
            t.install_faults(FaultPlan(seed=9, request_loss=1.0))
            with pytest.raises(RetriesExhausted):
                caller.rpc.call("server", "op", {}, policy=RetryPolicy(max_attempts=4))
            return caller.rpc.stats.backoff_accrued

        assert accrued(1) == accrued(2)

    def test_duplicate_delivery_deduped_by_replay_cache(self):
        t = Transport()
        caller = make_counter_node(t, "caller")
        server = make_counter_node(t, "server")
        t.install_faults(FaultPlan(seed=1, duplicate_rate=1.0))
        caller.rpc.call(
            "server", "op", {"v": 1}, idempotency_key="dup-k", policy=RESILIENT_POLICY
        )
        # The network delivered the request twice; the handler ran once.
        assert len(server.calls) == 1
        assert server.replays_served == 1


class TestDeadlinePropagation:
    """PR 9: per-call deadlines charged in virtual time through retries."""

    def test_deadline_none_is_unbounded(self):
        t = Transport()
        caller = make_counter_node(t, "caller")
        make_counter_node(t, "server")
        assert caller.rpc.call("server", "op", {})["ok"]

    def test_fault_jitter_counts_against_deadline(self):
        # random.Random(0).random() = 0.8444..., so with latency_jitter=10.0
        # the very first hop accrues 8.44s of virtual latency — well past a
        # 1.0s deadline.  The reply still arrives (nothing is dropped), but
        # it arrives *late*: the call must raise rather than silently
        # succeed after its budget.
        t = Transport()
        caller = make_counter_node(t, "caller")
        server = make_counter_node(t, "server")
        t.install_faults(FaultPlan(seed=0, latency_jitter=10.0))
        with pytest.raises(RpcTimeout) as exc_info:
            caller.rpc.call("server", "op", {"v": 1}, deadline=1.0)
        assert "late" in str(exc_info.value)
        assert len(server.calls) == 1  # the handler did run; only the caller gave up
        assert caller.rpc.stats.deadline_exceeded == 1

    def test_generous_deadline_tolerates_jitter(self):
        t = Transport()
        caller = make_counter_node(t, "caller")
        make_counter_node(t, "server")
        t.install_faults(FaultPlan(seed=0, latency_jitter=10.0))
        assert caller.rpc.call("server", "op", {}, deadline=60.0)["ok"]
        assert caller.rpc.stats.deadline_exceeded == 0

    def test_backoff_clamped_to_remaining_budget(self):
        # One scripted request drop forces one retry.  The policy wants a
        # 1.0s backoff but only 0.8s of budget remains, so the delay is
        # clamped and the retry still happens inside the deadline.
        t = Transport()
        caller = make_counter_node(t, "caller")
        make_counter_node(t, "server")
        plan = FaultPlan(seed=1)
        plan.scripted_request_drops = 1
        t.install_faults(plan)
        policy = RetryPolicy(max_attempts=3, base_delay=1.0, jitter=0.0)
        assert caller.rpc.call("server", "op", {}, policy=policy, deadline=0.8)["ok"]
        assert t.virtual_latency_accrued <= 0.8
        assert caller.rpc.stats.retries == 1

    def test_exhausted_budget_stops_retrying(self):
        t = Transport()
        caller = make_counter_node(t, "caller")
        make_counter_node(t, "server")
        t.install_faults(FaultPlan(seed=1, request_loss=1.0))
        policy = RetryPolicy(max_attempts=10, base_delay=1.0, jitter=0.0)
        with pytest.raises(RpcTimeout) as exc_info:
            caller.rpc.call("server", "op", {}, policy=policy, deadline=1.5)
        assert "budget" in str(exc_info.value)
        # Budget admits the first backoff (1.0s) but not the second.
        assert exc_info.value.attempts <= 3
        assert caller.rpc.stats.deadline_exceeded == 1
