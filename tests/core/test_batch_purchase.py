"""Purchase tests, one path for every batch size (Section 4.2's batching
remark: a coin bought alone is a batch of one)."""

import dataclasses

import pytest

from repro.core import PeerConfig, protocol
from repro.core.errors import InsufficientFunds, ProtocolError, VerificationFailed
from repro.crypto.keys import KeyPair
from repro.messages.envelope import seal

SIZES = (1, 4)


class TestBatchPurchase:
    def test_batch_mints_all_coins(self, network):
        alice = network.add_peer("alice", PeerConfig(balance=20))
        for count in SIZES:
            states = alice.purchase_batch(count, value=2)
            assert len(states) == count
            for state in states:
                assert state.coin_y in network.shards[0].valid_coins
                assert state.coin.value == 2
                assert alice.owned[state.coin_y] is state
        assert network.broker.balance("alice") == 20 - 2 * sum(SIZES)

    def test_batch_is_one_broker_operation(self, network):
        alice = network.add_peer("alice", PeerConfig(balance=10))
        for purchases, count in enumerate(SIZES, start=1):
            alice.purchase_batch(count)
            assert network.broker.counts.purchases == purchases
            assert alice.counts.purchases == purchases

    def test_batch_amortizes_messages(self, network):
        alice = network.add_peer("alice", PeerConfig(balance=20))
        network.transport.reset_counters()
        alice.purchase_batch(count=10)
        batched = network.transport.total_messages
        network.transport.reset_counters()
        for _ in range(10):
            alice.purchase()
        individual = network.transport.total_messages
        assert batched == 2  # one request, one response
        assert individual == 20

    def test_batch_atomic_on_insufficient_funds(self, network):
        alice = network.add_peer("alice", PeerConfig(balance=3))
        with pytest.raises(InsufficientFunds):
            alice.purchase_batch(count=4, value=1)
        # Nothing minted, nothing debited.
        assert network.broker.balance("alice") == 3
        assert not network.shards[0].valid_coins
        assert not alice.owned

    def test_batch_coins_are_spendable(self, network):
        alice = network.add_peer("alice", PeerConfig(balance=10))
        bob = network.add_peer("bob")
        for count in SIZES:
            for state in alice.purchase_batch(count):
                alice.issue("bob", state.coin_y)
        assert len(bob.wallet) == sum(SIZES)

    def test_empty_batch_rejected(self, network):
        alice = network.add_peer("alice", PeerConfig(balance=10))
        with pytest.raises(ValueError):
            alice.purchase_batch(count=0)
        assert network.broker.counts.purchases == 0

    def test_duplicate_keys_rejected(self, network):
        alice = network.add_peer("alice", PeerConfig(balance=10))
        keypair = KeyPair.generate(network.params)
        request = protocol.PurchaseRequest(
            account="alice",
            coins=(protocol.CoinSpec(keypair.public.y, 1), protocol.CoinSpec(keypair.public.y, 1)),
        )
        signed = seal(alice.identity, request.to_payload())
        with pytest.raises(ProtocolError):
            alice.request(network.shards[0].address, protocol.PURCHASE, signed.encode())

    def test_wrong_identity_rejected(self, network):
        # A request naming alice's identity key but signed with bob's: the
        # signature check refuses it, whatever its size.
        alice = network.add_peer("alice", PeerConfig(balance=10))
        bob = network.add_peer("bob", PeerConfig(balance=0))
        for count in SIZES:
            coins = [(KeyPair.generate(network.params), None) for _ in range(count)]
            signed = protocol.decode_signed(bob._purchase_request(coins, 1, "alice"), network.params)
            forged = dataclasses.replace(signed, signer=alice.identity.public).encode()
            with pytest.raises(VerificationFailed, match="signature"):
                bob.request(network.shards[0].address, protocol.PURCHASE, forged)
        assert network.broker.balance("alice") == 10
        assert not network.shards[0].valid_coins
