"""Integration tests combining the paper's extensions with each other."""

import pytest

from repro.core.anonymous_owner import AnonymousOwnerPeer
from repro.core.coinshop import CoinShop, buy_coin_from_shop
from repro.core.network import PeerConfig, WhoPayNetwork
from repro.crypto.params import PARAMS_TEST_512
from repro.indirection.i3 import I3Overlay

P = PARAMS_TEST_512


class TestCoinShopWithDetection:
    def test_shop_sales_publish_bindings(self):
        net = WhoPayNetwork(params=P, enable_detection=True, dht_size=4)
        member = net.judge.register("shop")
        shop = CoinShop(
            net.transport, address="shop", params=net.params, clock=net.clock,
            judge=net.judge, member_key=member, shard_map=net.shard_map,
            broker_key=net.broker.public_key,
        )
        shop.detection = net.detection
        net.broker.open_account("shop", shop.identity.public, 100)
        net.peers["shop"] = shop
        customer = net.add_peer("customer")
        merchant = net.add_peer("merchant")
        coin_y = buy_coin_from_shop(customer, shop)
        assert net.detection.fetch_binding("t", coin_y) is not None
        customer.transfer("merchant", coin_y)
        published = net.detection.fetch_binding("t", coin_y)
        assert published.holder_y == merchant.wallet[coin_y].holder_keypair.public.y


class TestOwnerlessWithDetection:
    @pytest.fixture()
    def rig(self):
        net = WhoPayNetwork(params=P, enable_detection=True, dht_size=4)
        i3 = I3Overlay(net.transport, size=2)

        def add(address, balance=0):
            member = net.judge.register(address)
            peer = AnonymousOwnerPeer(
                net.transport, address=address, params=net.params, clock=net.clock,
                judge=net.judge, member_key=member, shard_map=net.shard_map,
                broker_key=net.broker.public_key, i3=i3,
            )
            peer.detection = net.detection
            net.broker.open_account(address, peer.identity.public, balance)
            net.peers[address] = peer
            return peer

        return net, add("alice", 10), add("bob"), add("carol")

    def test_ownerless_coin_publishes_and_monitors(self, rig):
        net, alice, bob, carol = rig
        state = alice.purchase_anonymous()
        alice.issue("bob", state.coin_y)
        # The binding is public even though the coin is ownerless — the DHT
        # access control works on the coin key, not the owner identity.
        assert net.detection.fetch_binding("t", state.coin_y) is not None
        bob.transfer("carol", state.coin_y)
        assert net.detection.fetch_binding("t", state.coin_y).holder_y == (
            carol.wallet[state.coin_y].holder_keypair.public.y
        )

    def test_ownerless_fraud_alarm(self, rig):
        from repro.core.coin import CoinBinding

        net, alice, bob, _carol = rig
        state = alice.purchase_anonymous()
        alice.issue("bob", state.coin_y)
        evil = CoinBinding.build(
            state.coin_keypair,
            coin_y=state.coin_y,
            holder_y=alice.identity.public.y,
            seq=alice.owned[state.coin_y].binding.seq + 1,
            exp_date=net.clock.now() + 1000,
        )
        net.detection.publish(evil, alice.address)
        assert len(bob.alarms) == 1
        # Fairness still reachable: the issue was group-signed, so the judge
        # could unmask the anonymous owner if presented with the evidence.


class TestOnionOverDetection:
    def test_anonymized_peer_with_dht_verification(self):
        from repro.anonymity.onion import OnionOverlay, anonymize_node

        net = WhoPayNetwork(params=P, enable_detection=True, dht_size=4)
        alice = net.add_peer("alice", PeerConfig(balance=10))
        bob = net.add_peer("bob")
        carol = net.add_peer("carol")
        overlay = OnionOverlay(net.transport, P, size=2)
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        anonymize_node(bob, overlay)
        # Bob's DHT verification reads and the transfer itself all travel
        # the circuit; the protocol still completes with detection on.
        bob.transfer("carol", state.coin_y)
        assert state.coin_y in carol.wallet
        assert not bob.alarms and not carol.alarms
