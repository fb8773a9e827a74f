"""Register/notify tests (the real-time detection push channel)."""

import pytest

from repro.crypto.dsa import dsa_generate
from repro.crypto.params import PARAMS_TEST_512
from repro.dht.binding_store import BindingStore
from repro.dht.chord import ChordRing
from repro.dht.notify import NotificationHub
from repro.messages.envelope import seal
from repro.net.node import Node
from repro.net.transport import Transport

P = PARAMS_TEST_512


@pytest.fixture()
def rig():
    transport = Transport()
    ring = ChordRing(transport, size=3)
    broker = dsa_generate(P)
    store = BindingStore(ring, P, broker.public)
    hub = NotificationHub(store)
    return transport, store, hub


def publish(store, coin, seq):
    store.publish(seal(coin, {"coin_y": coin.public.y, "holder_y": 1, "seq": seq, "exp": 100}))


def make_watcher(transport, address):
    received = []
    node = Node(transport, address)
    node.on("binding.update", lambda src, value: received.append(value))
    return node, received


class TestNotifications:
    def test_subscriber_receives_updates(self, rig):
        transport, store, hub = rig
        coin = dsa_generate(P)
        _node, received = make_watcher(transport, "watcher")
        hub.subscribe(coin.public.y, "watcher")
        publish(store, coin, seq=1)
        publish(store, coin, seq=2)
        assert len(received) == 2

    def test_multiple_subscribers(self, rig):
        transport, store, hub = rig
        coin = dsa_generate(P)
        _n1, r1 = make_watcher(transport, "w1")
        _n2, r2 = make_watcher(transport, "w2")
        hub.subscribe(coin.public.y, "w1")
        hub.subscribe(coin.public.y, "w2")
        publish(store, coin, seq=1)
        assert len(r1) == len(r2) == 1

    def test_unsubscribe_stops_updates(self, rig):
        transport, store, hub = rig
        coin = dsa_generate(P)
        _node, received = make_watcher(transport, "watcher")
        hub.subscribe(coin.public.y, "watcher")
        publish(store, coin, seq=1)
        hub.unsubscribe(coin.public.y, "watcher")
        publish(store, coin, seq=2)
        assert len(received) == 1

    def test_offline_subscriber_skipped(self, rig):
        transport, store, hub = rig
        coin = dsa_generate(P)
        node, received = make_watcher(transport, "watcher")
        hub.subscribe(coin.public.y, "watcher")
        node.go_offline()
        publish(store, coin, seq=1)
        assert received == []
        node.go_online()
        publish(store, coin, seq=2)
        assert len(received) == 1

    def test_rejected_write_not_notified(self, rig):
        transport, store, hub = rig
        coin = dsa_generate(P)
        _node, received = make_watcher(transport, "watcher")
        hub.subscribe(coin.public.y, "watcher")
        publish(store, coin, seq=2)
        with pytest.raises(Exception):
            publish(store, coin, seq=1)  # stale — rejected by the validator
        assert len(received) == 1

    def test_unrelated_coin_not_notified(self, rig):
        transport, store, hub = rig
        coin_a, coin_b = dsa_generate(P), dsa_generate(P)
        _node, received = make_watcher(transport, "watcher")
        hub.subscribe(coin_a.public.y, "watcher")
        publish(store, coin_b, seq=1)
        assert received == []

    def test_subscriber_count(self, rig):
        _transport, _store, hub = rig
        coin = dsa_generate(P)
        assert hub.subscriber_count(coin.public.y) == 0
        hub.subscribe(coin.public.y, "x")
        hub.subscribe(coin.public.y, "y")
        assert hub.subscriber_count(coin.public.y) == 2
