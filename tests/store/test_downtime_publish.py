"""The broker's downtime binding: published, then staged, never the reverse.

A downtime transfer or renewal publishes its broker-signed binding to the
public binding list from inside the request, before the request's journal
record is durable.  Two things follow, and each test here failed while the
broker staged the binding first:

* *the crash window* — a broker that dies after the publish but before its
  record is durable recovers without the binding and re-signs the same
  ``seq`` for the holder's retry.  The list refuses every second write at a
  stored ``seq``, so the retry adopts the binding the list already holds
  (this broker's signature, same seq, same holder): those are the bytes the
  payee compares;
* *the refusal* — a double-spend the list refuses must change nothing at
  the broker.  Staged first, the refused binding stayed in the live
  broker's ``downtime_bindings`` and ``pending_sync`` while its journal
  record was dropped with the failed request, so a restart lost it: the
  live broker and its journal disagreed.
"""

from __future__ import annotations

import pytest

from repro.core import protocol
from repro.core.network import PeerConfig, WhoPayNetwork
from repro.crypto.keys import KeyPair
from repro.crypto.params import PARAMS_TEST_512
from repro.net.rpc import RetryPolicy
from repro.pipeline import ThroughputEngine
from repro.store.crashpoints import CrashPointPlan, SimulatedCrash
from repro.store.groupcommit import GroupCommitter
from tests.conftest import restart_on_crash

POLICY = RetryPolicy(max_attempts=4, base_delay=0.01, max_delay=0.05)


def downtime_rig(tmp_path):
    """Alice issued a coin to Bob and went offline: Bob's next move goes
    through the broker, which publishes to the binding list."""
    net = WhoPayNetwork(
        params=PARAMS_TEST_512, store_dir=tmp_path, enable_detection=True, retry_policy=POLICY
    )
    alice = net.add_peer("alice", PeerConfig(balance=10))
    bob, carol, dave = (net.add_peer(name) for name in ("bob", "carol", "dave"))
    coin_y = alice.purchase().coin_y
    alice.issue("bob", coin_y)
    alice.depart()
    return net, bob, carol, dave, coin_y


def published(net, coin_y: int) -> bytes:
    return net.detection.store.fetch(coin_y, src="test").encode()


class TestCrashBetweenPublishAndFsync:
    @pytest.mark.parametrize("op", ["transfer", "renewal"])
    def test_the_retry_adopts_the_binding_the_list_holds(self, tmp_path, op):
        net, bob, carol, _dave, coin_y = downtime_rig(tmp_path)
        proof_seq = bob.wallet[coin_y].binding.seq
        publishes, refused = net.detection.publishes, net.detection.rejected_publishes
        plan = CrashPointPlan(fire_at=0)
        net.arm_crash_points(plan)
        restart_on_crash(net)
        if op == "transfer":
            bob.transfer_via_broker("carol", coin_y)
            binding = carol.wallet[coin_y].binding
        else:
            binding = bob.renew(coin_y)
        assert plan.fired is not None and plan.fired.site == "journal.append.pre_sync"
        assert net.broker_restarts == 1
        assert binding.via_broker and binding.seq == proof_seq + 1
        # One binding landed; the retry's re-signed one was refused and the
        # published one adopted, byte for byte, by the holder and by the
        # recovered broker's journaled state.
        assert (net.detection.publishes, net.detection.rejected_publishes) == (
            publishes + 1,
            refused + 1,
        )
        assert published(net, coin_y) == binding.encode()
        assert net.shards[0].downtime_bindings[coin_y].encode() == binding.encode()
        net.restart_broker()
        assert net.shards[0].downtime_bindings[coin_y].encode() == binding.encode()

    def test_under_group_commit_the_retry_adopts_it_too(self, tmp_path):
        net, bob, _carol, _dave, coin_y = downtime_rig(tmp_path)
        held = bob.wallet[coin_y]
        envelope = bob._holder_envelope(
            held, "transfer", new_holder_y=KeyPair.generate(net.params).public.y
        )
        wire = [(protocol.DOWNTIME_TRANSFER, "bob", protocol.encode_dual(envelope), "dt-1")]
        broker = net.shards[0]
        engine = ThroughputEngine(broker, committer=GroupCommitter(broker.store, max_batch=8))
        net.arm_crash_points(CrashPointPlan(fire_at=0))
        with pytest.raises(SimulatedCrash) as excinfo:
            engine.run(wire)
        assert excinfo.value.site == "journal.append.pre_sync"  # a flush of one record

        net.restart_broker()
        broker = net.shards[0]
        assert coin_y not in broker.downtime_bindings  # the record died unflushed
        retry = ThroughputEngine(broker, committer=GroupCommitter(broker.store, max_batch=8))
        records, stats = retry.run(wire)
        assert stats.accepted == 1 and records[0].ok and records[0].released
        assert published(net, coin_y) == records[0].reply
        assert broker.downtime_bindings[coin_y].encode() == records[0].reply


class TestRefusedPublishAppliesNothing:
    def test_a_double_spend_through_the_broker_leaves_no_trace(self, tmp_path):
        net, bob, carol, dave, coin_y = downtime_rig(tmp_path)
        stale = bob.wallet[coin_y]
        net.peers["alice"].rejoin()
        bob.transfer("carol", coin_y)  # the owner publishes seq + 1
        net.peers["alice"].depart()
        # Bob spends the coin again from his old binding, through the broker,
        # which has no state for the coin and signs the same seq + 1.
        bob.wallet[coin_y] = stale
        with pytest.raises(Exception, match="stale sequence number"):
            bob.transfer_via_broker("dave", coin_y)
        broker = net.shards[0]
        assert coin_y not in broker.downtime_bindings
        assert all(coin_y not in coins for coins in broker.pending_sync.values())
        assert published(net, coin_y) == carol.wallet[coin_y].binding.encode()
        assert coin_y not in dave.wallet
        # The live broker and its journal agree.
        live = (dict(broker.downtime_bindings), dict(broker.pending_sync))
        net.restart_broker()
        broker = net.shards[0]
        assert (dict(broker.downtime_bindings), dict(broker.pending_sync)) == live

    def test_an_orphan_for_another_holder_is_not_adopted(self, tmp_path):
        # The broker died after publishing Bob's move to one key; Bob then
        # asks, from the same proof, for a move to another key.  The list's
        # binding is this broker's at that seq, but not for that holder: a
        # double-spend across the crash, refused, and nothing is staged.
        net, bob, _carol, _dave, coin_y = downtime_rig(tmp_path)
        held = bob.wallet[coin_y]

        def wire(tag):
            envelope = bob._holder_envelope(
                held, "transfer", new_holder_y=KeyPair.generate(net.params).public.y
            )
            return [(protocol.DOWNTIME_TRANSFER, "bob", protocol.encode_dual(envelope), tag)]

        broker = net.shards[0]
        net.arm_crash_points(CrashPointPlan(fire_at=0))
        with pytest.raises(SimulatedCrash):
            ThroughputEngine(broker, committer=GroupCommitter(broker.store, max_batch=8)).run(
                wire("dt-1")
            )
        net.restart_broker()
        orphan = published(net, coin_y)
        broker = net.shards[0]
        records, stats = ThroughputEngine(
            broker, committer=GroupCommitter(broker.store, max_batch=8)
        ).run(wire("dt-2"))
        assert stats.rejected == 1 and not records[0].ok and records[0].released
        assert records[0].error.startswith("NotHolder") and "stale sequence" in records[0].error
        assert published(net, coin_y) == orphan
        assert coin_y not in broker.downtime_bindings
        assert all(coin_y not in coins for coins in broker.pending_sync.values())
