"""Shared fixtures for the WhoPay test suite.

All cryptographic tests run on the 512-bit test group
(:data:`repro.crypto.params.PARAMS_TEST_512`) — an order of magnitude faster
than the paper's 1024-bit production size with identical code paths.  The
1024-bit parameters are exercised once in ``tests/crypto/test_params.py``
and by the Table 2 benchmark.
"""

from __future__ import annotations

import os
import sys

# Allow running the suite from a fresh checkout without installation.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest

from repro.core.network import PeerConfig, WhoPayNetwork
from repro.crypto.keys import KeyPair
from repro.crypto.params import PARAMS_TEST_512


@pytest.fixture(scope="session")
def params():
    """The fast test Schnorr group."""
    return PARAMS_TEST_512


@pytest.fixture(scope="session")
def some_keypair(params):
    """A reusable keypair for read-only tests."""
    return KeyPair.generate(params)


@pytest.fixture()
def network():
    """A fresh basic WhoPay deployment (no DHT)."""
    return WhoPayNetwork(params=PARAMS_TEST_512)


@pytest.fixture()
def detection_network():
    """A fresh WhoPay deployment with real-time detection enabled."""
    return WhoPayNetwork(params=PARAMS_TEST_512, enable_detection=True, dht_size=4)


@pytest.fixture()
def funded_trio(network):
    """(net, alice, bob, carol) with alice funded."""
    alice = network.add_peer("alice", PeerConfig(balance=25))
    bob = network.add_peer("bob", PeerConfig(balance=10))
    carol = network.add_peer("carol")
    return network, alice, bob, carol


def restart_on_crash(net):
    """Restart a shard from its journal inside the transport's crash hook, before
    the sender sees ``ReplyLost``: for suites that study durability at exact
    fsync boundaries, not failure detection (that is ``supervise_broker``)."""
    for index, shard in enumerate(net.shards):
        net.transport.set_crash_handler(
            shard.address, lambda _crash, index=index: net.restart_shard(index)
        )
