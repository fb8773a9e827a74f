"""Detector-driven shard supervision (PR 9).

No transport crash handlers anywhere in this file: shards die silently,
heartbeat silence drives a phi-accrual detector, and only DEAD + lapsed
lease triggers a journal restart plus handoff re-drive.  (The crash-point
suites restart through ``tests.conftest.restart_on_crash`` instead: they
study durability at fsync boundaries, not detection.)
"""

import pytest

from repro.core.broker import handoff_id
from repro.core.network import BrokerTopology, PeerConfig, WhoPayNetwork
from repro.core.supervision import SUPERVISOR_ADDRESS, LeaseGatedSupervision
from repro.crypto.keys import KeyPair
from repro.crypto.params import PARAMS_TEST_512
from repro.net.liveness import DEAD, LivenessConfig
from repro.net.rpc import RetryPolicy
from repro.store.apply import effect
from tests.conftest import mint_coin

RETRY = RetryPolicy(max_attempts=4, base_delay=0.01, multiplier=2.0, max_delay=0.1)
LIVENESS = LivenessConfig(heartbeat_interval=0.5, phi_threshold=4.0, lease_duration=2.0)
TICK = 0.5


def build_net(store_dir=None, shards=3):
    return WhoPayNetwork(
        params=PARAMS_TEST_512,
        retry_policy=RETRY,
        store_dir=store_dir,
        topology=BrokerTopology(shards=shards),
    )


def coin_keypair_homed(net, shard_address):
    while True:
        keypair = KeyPair.generate(net.params)
        if net.shard_map.shard_for_coin(keypair.public.y) == shard_address:
            return keypair


def advance_until(net, predicate, step=TICK, limit=120):
    for _ in range(limit):
        net.advance(step)
        if predicate():
            return
    raise AssertionError("condition not reached within the advance budget")


class TestPolicyPlumbing:
    def test_default_policy_is_lease_gated(self):
        net = build_net()
        policy = net.supervise_broker()
        assert isinstance(policy, LeaseGatedSupervision)
        assert net.supervision is policy
        assert net.transport.is_online(SUPERVISOR_ADDRESS)
        assert not net.transport.crash_handlers  # no transport magic

    def test_swapping_policies_detaches_the_old_one(self):
        net = build_net()
        old = net.supervise_broker(LeaseGatedSupervision(LIVENESS))
        old_monitor = old.monitor
        assert net.transport.node(SUPERVISOR_ADDRESS) is old_monitor
        # The new monitor takes the same address, which a transport refuses
        # while the old one is still registered.
        new = net.supervise_broker()
        assert old.monitor is None
        assert net.transport.node(SUPERVISOR_ADDRESS) is new.monitor is not old_monitor


class TestHeartbeatFlow:
    def test_beats_renew_leases_and_gossip_the_last_seen_table(self):
        net = build_net()
        policy = net.supervise_broker(LeaseGatedSupervision(LIVENESS))
        for _ in range(6):
            net.advance(TICK)
        addresses = [shard.address for shard in net.shards]
        assert policy.beats_sent == 3 * 6
        assert policy.monitor.beats_received == policy.beats_sent
        assert sorted(policy.last_seen_table()) == sorted(addresses)
        now = net.clock.now()
        for address in addresses:
            assert not policy.leases.expired(address, now)
            # Every emitter has merged the monitor's view of its siblings.
            assert sorted(policy.gossip_views[address].snapshot()) == sorted(addresses)
        assert policy.events == []

    def test_coarse_advance_replays_every_due_beat(self):
        net = build_net()
        policy = net.supervise_broker(LeaseGatedSupervision(LIVENESS))
        net.advance(3.0)  # six beat periods in one jump
        assert policy.beats_sent == 3 * 6


class TestLeaseGatedFailover:
    def test_killed_shard_is_detected_and_restarted_within_the_window(self, tmp_path):
        net = build_net(store_dir=tmp_path)
        alice = net.add_peer("alice", PeerConfig(balance=5))
        bob = net.add_peer("bob")
        policy = net.supervise_broker(LeaseGatedSupervision(LIVENESS))
        net.advance(TICK)  # warm the detector with one real beat round
        net.kill_shard(0)
        assert not net.shards[0].online
        advance_until(net, lambda: policy.events)
        assert [event.address for event in policy.events] == [net.shards[0].address]
        assert net.shards[0].online  # journal-recovered replacement
        assert net.broker_restarts == 1
        latency = policy.detection_latencies()[0]
        assert 0.0 < latency <= LIVENESS.detection_window() + TICK
        # The federation serves again through the recovered shard.
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        assert bob.deposit(state.coin_y, payout_to="bob") == 1
        net.complete_handoffs()
        assert net.broker.verify_conservation(5)

    def test_slow_but_alive_shard_is_never_double_driven(self, tmp_path):
        # A lease far longer than the detection window: the detector calls
        # the shard DEAD long before the lease lapses, and the supervisor
        # must sit on its hands until it does.
        patient = LivenessConfig(
            heartbeat_interval=0.5, phi_threshold=4.0, lease_duration=50.0
        )
        net = build_net(store_dir=tmp_path)
        policy = net.supervise_broker(LeaseGatedSupervision(patient))
        net.advance(1.0)
        net.kill_shard(0)
        dead_addr = net.shards[0].address
        net.advance(10.0)  # well past the phi threshold...
        assert policy.detector.state(dead_addr, net.clock.now()) == DEAD
        assert policy.events == []  # ...but the lease still holds the gate
        assert net.broker_restarts == 0
        net.advance(50.0)  # lease lapses: now, and only now, failover runs
        assert len(policy.events) == 1
        assert net.broker_restarts == 1
        assert net.shards[0].online

    def test_orphaned_handoff_is_redriven_by_the_failover_path(self, tmp_path):
        """Satellite: kill between ``handoff_begin`` and ``XSHARD_PREPARE``.

        The begin record is journaled (durable) but no prepare ever left
        the shard — exactly the state a crash at the post-fsync boundary
        leaves.  The lease-expiry failover alone must re-drive it; the
        test never calls ``complete_handoffs`` explicitly.
        """
        net = build_net(store_dir=tmp_path)
        alice = net.add_peer("alice", PeerConfig(balance=5))
        policy = net.supervise_broker(LeaseGatedSupervision(LIVENESS))
        source = net.broker.shard_for_account("alice")
        source_index = net.shards.index(source)
        coin_home = next(a for a in net.shard_map.addresses if a != source.address)
        keypair = coin_keypair_homed(net, coin_home)
        coin = mint_coin(
            source.keypair,
            coin_y=keypair.public.y,
            value=2,
            owner="alice",
            owner_y=alice.identity.public.y,
        )
        h = handoff_id("purchase", coin.encode())
        source._commit_local(
            {
                "type": "handoff_begin",
                "h": h,
                "effects": [
                    effect("debit", 2, account="alice", identity_y=alice.identity.public.y)
                ],
                "reply": [coin.encode()],
                "prepares": [
                    {
                        "h": h + "#0",
                        "dest": coin_home,
                        "effects": [effect("mint", 2, coin_y=coin.coin_y, coin=coin.encode())],
                    }
                ],
            }
        )
        net.kill_shard(source_index)
        assert not net.broker.verify_conservation(5)  # value stranded in flight
        advance_until(net, lambda: policy.events)
        event = policy.events[0]
        assert event.address == source.address
        assert event.redriven_handoffs == 1
        assert not any(shard.pending_handoffs for shard in net.shards)
        dest = net.broker.shard_for_coin(coin.coin_y)
        assert coin.coin_y in dest.valid_coins
        assert net.broker.balance("alice") == 3
        assert net.broker.verify_conservation(5)
        # Exactly once: a second sweep finds nothing left to drive.
        assert net.complete_handoffs() == 0
