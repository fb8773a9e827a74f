"""Real-time double-spending detection tests (Section 5.1)."""

import pytest

from repro.core.coin import CoinBinding
from repro.dht.binding_store import WriteRejected
from repro.core.network import PeerConfig


@pytest.fixture()
def rig(detection_network):
    net = detection_network
    alice = net.add_peer("alice", PeerConfig(balance=20))
    bob = net.add_peer("bob")
    carol = net.add_peer("carol")
    dave = net.add_peer("dave")
    return net, alice, bob, carol, dave


class TestPublishing:
    def test_issue_publishes_binding(self, rig):
        net, alice, bob, _carol, _dave = rig
        state = alice.purchase()
        binding = alice.issue("bob", state.coin_y)
        published = net.detection.fetch_binding("test", state.coin_y)
        assert published is not None
        assert published.encode() == binding.encode()

    def test_transfer_updates_public_binding(self, rig):
        net, alice, bob, carol, _dave = rig
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        b2 = bob.transfer("carol", state.coin_y)
        assert net.detection.fetch_binding("test", state.coin_y).seq == b2.seq

    def test_downtime_ops_publish_via_broker(self, rig):
        net, alice, bob, carol, _dave = rig
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        alice.depart()
        bob.transfer_via_broker("carol", state.coin_y)
        published = net.detection.fetch_binding("test", state.coin_y)
        assert published.via_broker

    def test_renewal_publishes(self, rig):
        net, alice, bob, _carol, _dave = rig
        state = alice.purchase()
        b1 = alice.issue("bob", state.coin_y)
        b2 = bob.renew(state.coin_y)
        assert net.detection.fetch_binding("test", state.coin_y).seq == b2.seq


class TestPayeeVerification:
    def test_payee_rejects_unpublished_binding(self, rig):
        # If the owner skips publishing, the payee refuses payment — the
        # paper's "does not accept payment until verifying" rule.  Simulate
        # by disabling the owner's detection hook.
        net, alice, bob, _carol, _dave = rig
        state = alice.purchase()
        alice.detection = None  # malicious owner: no publish
        from repro.core.errors import ProtocolError

        with pytest.raises(ProtocolError, match="public binding"):
            alice.issue("bob", state.coin_y)


class TestMonitoring:
    def test_holder_alarmed_on_rebind(self, rig):
        net, alice, bob, _carol, dave = rig
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        # Alice fraudulently re-binds the coin to dave behind bob's back.
        evil = CoinBinding.build(
            state.coin_keypair,
            coin_y=state.coin_y,
            holder_y=dave.identity.public.y,
            seq=alice.owned[state.coin_y].binding.seq + 1,
            exp_date=net.clock.now() + 1000,
        )
        net.detection.publish_owner(alice, alice.owned[state.coin_y], evil)
        assert len(bob.alarms) == 1
        alarm = bob.alarms[0]
        assert alarm.coin_y == state.coin_y
        assert alarm.observed_holder_y == dave.identity.public.y

    def test_own_updates_do_not_alarm(self, rig):
        net, alice, bob, _carol, _dave = rig
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        bob.renew(state.coin_y)
        assert bob.alarms == []

    def test_spent_coin_not_monitored(self, rig):
        net, alice, bob, carol, _dave = rig
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        bob.transfer("carol", state.coin_y)
        # Subsequent updates concern carol, not bob.
        carol.renew(state.coin_y)
        assert bob.alarms == []
        assert carol.alarms == []

    def test_offline_holder_misses_push_but_state_is_durable(self, rig):
        net, alice, bob, _carol, dave = rig
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        bob.depart()
        evil = CoinBinding.build(
            state.coin_keypair,
            coin_y=state.coin_y,
            holder_y=dave.identity.public.y,
            seq=alice.owned[state.coin_y].binding.seq + 1,
            exp_date=net.clock.now() + 1000,
        )
        net.detection.publish_owner(alice, alice.owned[state.coin_y], evil)
        assert bob.alarms == []  # push missed while offline
        bob.rejoin()
        # But the public record is still there for bob to check on rejoin.
        published = net.detection.fetch_binding(bob.address, state.coin_y)
        assert published.holder_y == dave.identity.public.y


class TestFailedTransferKeepsMonitoring:
    """A transfer marks its own rebind as expected only while the request is
    out; an attempt that fails must leave the Section 5.1 alarm armed."""

    @pytest.mark.parametrize("route", ["owner", "handle", "broker"])
    def test_failed_request_does_not_silence_the_alarm(self, detection_network, route):
        from repro.indirection.i3 import I3Overlay
        from repro.net.transport import NodeOffline
        from tests.core.test_anonymous_owner import add_anonymous_peer

        net = detection_network
        if route == "handle":
            i3 = I3Overlay(net.transport, size=2)
            alice, bob, _carol, dave = (
                add_anonymous_peer(net, i3, name, balance=20)
                for name in ("alice", "bob", "carol", "dave")
            )
            for peer in net.peers.values():
                peer.detection = net.detection
            state = alice.purchase_anonymous()
        else:
            alice = net.add_peer("alice", PeerConfig(balance=20))
            bob, _carol, dave = (net.add_peer(name) for name in ("bob", "carol", "dave"))
            state = alice.purchase()
        alice.issue("bob", state.coin_y)
        # The offer to carol succeeds; the request step finds its server down.
        server = net.broker if route == "broker" else alice
        server.go_offline()
        send = bob.transfer_via_broker if route == "broker" else bob.transfer
        with pytest.raises(NodeOffline):
            send("carol", state.coin_y)
        server.go_online()
        assert state.coin_y in bob.wallet
        assert bob._expected_rebinds == set()
        evil = CoinBinding.build(
            state.coin_keypair,
            coin_y=state.coin_y,
            holder_y=dave.identity.public.y,
            seq=alice.owned[state.coin_y].binding.seq + 1,
            exp_date=net.clock.now() + 1000,
        )
        net.detection.publish_owner(alice, alice.owned[state.coin_y], evil)
        assert len(bob.alarms) == 1


class TestAccessControlIntegration:
    def test_rollback_publish_rejected(self, rig):
        net, alice, bob, _carol, dave = rig
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        bob.renew(state.coin_y)
        stale = CoinBinding.build(
            state.coin_keypair,
            coin_y=state.coin_y,
            holder_y=dave.identity.public.y,
            seq=1,  # behind the published sequence
            exp_date=net.clock.now() + 1000,
        )
        with pytest.raises(WriteRejected):
            net.detection.publish_owner(alice, alice.owned[state.coin_y], stale)
        assert net.detection.rejected_publishes == 1

    def test_nonowner_cannot_publish(self, rig):
        net, alice, bob, _carol, dave = rig
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        forged = CoinBinding.build(
            dave.identity,  # wrong key entirely
            coin_y=state.coin_y,
            holder_y=dave.identity.public.y,
            seq=99,
            exp_date=net.clock.now() + 1000,
        )
        with pytest.raises(WriteRejected):
            net.detection.publish_owner(dave, alice.owned[state.coin_y], forged)
