"""Failure-injection tests: crashes mid-protocol must not corrupt state."""

import pytest

from repro.core.errors import ProtocolError
from repro.net.transport import NodeOffline
from repro.core.network import PeerConfig


class TestBrokerOutage:
    def test_downtime_transfer_fails_cleanly_and_retries(self, funded_trio):
        net, alice, bob, carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        alice.depart()
        net.shards[0].go_offline()
        with pytest.raises(NodeOffline):
            bob.transfer_via_broker("carol", state.coin_y)
        # No state corruption: bob still holds the coin, carol got nothing.
        assert state.coin_y in bob.wallet
        assert state.coin_y not in carol.wallet
        net.shards[0].go_online()
        bob.transfer_via_broker("carol", state.coin_y)
        assert state.coin_y in carol.wallet

    def test_purchase_during_outage(self, funded_trio):
        net, alice, _bob, _carol = funded_trio
        net.shards[0].go_offline()
        with pytest.raises(NodeOffline):
            alice.purchase()
        assert not alice.owned
        assert net.broker.balance("alice") == 25  # nothing debited

    def test_deposit_during_outage_keeps_coin(self, funded_trio):
        net, alice, bob, _carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        net.shards[0].go_offline()
        with pytest.raises(NodeOffline):
            bob.deposit(state.coin_y)
        assert state.coin_y in bob.wallet
        net.shards[0].go_online()
        assert bob.deposit(state.coin_y) == 1


class TestPayeeFailure:
    def test_issue_to_offline_payee_fails_cleanly(self, funded_trio):
        _net, alice, bob, _carol = funded_trio
        state = alice.purchase()
        bob.depart()
        with pytest.raises(NodeOffline):
            alice.issue("bob", state.coin_y)
        # The coin is still unissued and issuable.
        assert not alice.owned[state.coin_y].issued
        bob.rejoin()
        alice.issue("bob", state.coin_y)
        assert state.coin_y in bob.wallet

    def test_failed_issue_with_detection_then_retry(self, detection_network):
        # Regression: a failed issue leaves its binding on the public list;
        # the retry must pick a *higher* sequence or the DHT rejects it.
        net = detection_network
        alice = net.add_peer("alice", PeerConfig(balance=10))
        bob = net.add_peer("bob")
        carol = net.add_peer("carol")
        state = alice.purchase()
        bob.depart()
        for _ in range(3):  # several failed attempts stack the floor higher
            with pytest.raises(NodeOffline):
                alice.issue("bob", state.coin_y)
        alice.issue("carol", state.coin_y)  # retry to someone else: must work
        assert state.coin_y in carol.wallet
        published = net.detection.fetch_binding("t", state.coin_y)
        assert published.holder_y == carol.wallet[state.coin_y].holder_keypair.public.y

    def test_transfer_rolls_back_when_payee_rejects(self, funded_trio):
        net, alice, bob, carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        # Sabotage carol so she rejects the completion.
        original = carol._handlers["whopay.transfer_complete"]
        carol._handlers["whopay.transfer_complete"] = lambda src, p: {"ok": False, "reason": "no thanks"}
        with pytest.raises(ProtocolError):
            bob.transfer("carol", state.coin_y)
        # Owner rolled back: bob's binding is still the live one.
        carol._handlers["whopay.transfer_complete"] = original
        bob.renew(state.coin_y)  # works only if bob is still the bound holder
        assert state.coin_y in bob.wallet


class TestDhtChurnDuringDetection:
    def test_detection_survives_dht_node_departure(self, detection_network):
        net = detection_network
        alice = net.add_peer("alice", PeerConfig(balance=10))
        bob = net.add_peer("bob")
        carol = net.add_peer("carol")
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        ring = net.detection.store.ring
        # The node owning this coin's binding leaves gracefully.
        owner_node = ring.owner_of(net.detection.store._coin_key_bytes(state.coin_y))
        owner_node.leave()
        ring.stabilize_all(rounds=6)
        ring.rebuild_fingers()
        # The binding survived the handoff and updates keep flowing.
        assert net.detection.fetch_binding("t", state.coin_y) is not None
        bob.transfer("carol", state.coin_y)
        assert net.detection.fetch_binding("t", state.coin_y).holder_y == (
            carol.wallet[state.coin_y].holder_keypair.public.y
        )


class TestI3Failure:
    def test_anonymous_transfer_falls_back_to_broker(self):
        from repro.core.anonymous_owner import AnonymousOwnerPeer
        from repro.core.network import WhoPayNetwork
        from repro.crypto.params import PARAMS_TEST_512
        from repro.indirection.i3 import I3Overlay

        net = WhoPayNetwork(params=PARAMS_TEST_512)
        i3 = I3Overlay(net.transport, size=1)

        def add(address, balance=0):
            member = net.judge.register(address)
            peer = AnonymousOwnerPeer(
                net.transport, address=address, params=net.params, clock=net.clock,
                judge=net.judge, member_key=member, shard_map=net.shard_map,
                broker_key=net.broker.public_key, i3=i3,
            )
            net.broker.open_account(address, peer.identity.public, balance)
            net.peers[address] = peer
            return peer

        alice = add("alice", balance=10)
        bob = add("bob")
        carol = add("carol")
        state = alice.purchase_anonymous()
        alice.issue("bob", state.coin_y)
        # Kill the (only) i3 server: the handle is unreachable even though
        # the owner is online.
        i3.servers[0].go_offline()
        method = bob.pay("carol", ("transfer", "downtime_transfer"))
        assert method == "downtime_transfer"
        assert state.coin_y in carol.wallet
