"""Broker endpoint tests: purchase, deposit, downtime ops, sync, fraud."""

import pytest

from repro.core import PeerConfig, protocol
from repro.core.errors import (
    DoubleSpendDetected,
    InsufficientFunds,
    ProtocolError,
    VerificationFailed,
)
from repro.crypto.keys import KeyPair
from repro.messages.envelope import seal


class TestAccounts:
    def test_open_and_balance(self, network):
        peer = network.add_peer("alice", PeerConfig(balance=7))
        assert network.broker.balance("alice") == 7
        assert network.broker.balance("nobody") == 0

    def test_duplicate_account_rejected(self, network):
        network.add_peer("alice")
        with pytest.raises(ValueError):
            network.broker.open_account("alice", network.peers["alice"].identity.public, 0)


def coin_keys(net, count):
    return [(KeyPair.generate(net.params), None) for _ in range(count)]


class TestPurchase:
    def test_purchase_debits_account(self, network):
        alice = network.add_peer("alice", PeerConfig(balance=5))
        alice.purchase(value=2)
        assert network.broker.balance("alice") == 3
        assert network.broker.counts.purchases == 1

    def test_insufficient_funds(self, network):
        alice = network.add_peer("alice", PeerConfig(balance=1))
        with pytest.raises(InsufficientFunds):
            alice.purchase(value=2)

    def test_purchase_requires_account_identity(self, network):
        alice = network.add_peer("alice", PeerConfig(balance=5))
        bob = network.add_peer("bob", PeerConfig(balance=0))
        # Bob signs a purchase against alice's account: rejected, whatever its size.
        for count in (1, 3):
            data = bob._purchase_request(coin_keys(network, count), 1, "alice")
            with pytest.raises(VerificationFailed):
                bob.request(network.shards[0].address, protocol.PURCHASE, data)
        assert network.broker.balance("alice") == 5
        assert not network.shards[0].valid_coins

    def test_coin_added_to_valid_list(self, network):
        alice = network.add_peer("alice", PeerConfig(balance=5))
        state = alice.purchase()
        assert state.coin_y in network.shards[0].valid_coins
        assert state.coin_y in network.shards[0].owner_coins["alice"]

    def test_duplicate_coin_key_rejected(self, network):
        alice = network.add_peer("alice", PeerConfig(balance=5))
        state = alice.purchase()
        # A key already minted, alone or among fresh ones: the whole request fails.
        for count in (0, 2):
            coins = [(state.coin_keypair, None)] + coin_keys(network, count)
            data = alice._purchase_request(coins, 1, "alice")
            with pytest.raises(ProtocolError):
                alice.request(network.shards[0].address, protocol.PURCHASE, data)
        assert network.broker.balance("alice") == 4

    def test_invalid_coin_key_rejected(self, network):
        alice = network.add_peer("alice", PeerConfig(balance=5))
        request = protocol.PurchaseRequest(
            account="alice", coins=(protocol.CoinSpec(network.params.p - 1, 1),)
        )
        signed = seal(alice.identity, request.to_payload())
        with pytest.raises(ProtocolError):
            alice.request(network.shards[0].address, protocol.PURCHASE, signed.encode())


class TestDeposit:
    def test_deposit_credits_named_account(self, funded_trio):
        net, alice, bob, _carol = funded_trio
        state = alice.purchase(value=4)
        alice.issue("bob", state.coin_y)
        credited = bob.deposit(state.coin_y, payout_to="bob")
        assert credited == 4
        assert net.broker.balance("bob") == 14  # 10 initial + 4

    def test_deposit_to_bearer_account(self, funded_trio):
        net, alice, bob, _carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        bob.deposit(state.coin_y)  # fresh pseudonymous account
        bearer_accounts = [name for name in net.shards[0].accounts if name.startswith("bearer-")]
        assert len(bearer_accounts) == 1
        assert net.broker.balance(bearer_accounts[0]) == 1

    def test_double_deposit_detected(self, funded_trio):
        import copy

        net, alice, bob, _carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        held = copy.deepcopy(bob.wallet[state.coin_y])
        bob.deposit(state.coin_y)
        bob.wallet[state.coin_y] = held
        with pytest.raises(DoubleSpendDetected):
            bob.deposit(state.coin_y)
        assert len(net.broker.fraud_events) == 1
        assert net.broker.fraud_events[0].evidence["coin_y"] == state.coin_y

    def test_deposit_retires_coin_from_downtime_state(self, funded_trio):
        net, alice, bob, _carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        alice.depart()
        bob.renew(state.coin_y)  # creates downtime state
        assert state.coin_y in net.shards[0].downtime_bindings
        bob.deposit(state.coin_y)
        assert state.coin_y not in net.shards[0].downtime_bindings


class TestDowntimeProtocols:
    def test_downtime_transfer_records_state(self, funded_trio):
        net, alice, bob, carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        alice.depart()
        bob.transfer_via_broker("carol", state.coin_y)
        assert net.broker.counts.downtime_transfers == 1
        assert state.coin_y in net.shards[0].downtime_bindings
        assert state.coin_y in net.shards[0].pending_sync["alice"]

    def test_downtime_transfer_requires_current_holder(self, funded_trio):
        import copy

        net, alice, bob, carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        stale = copy.deepcopy(bob.wallet[state.coin_y])
        bob.transfer("carol", state.coin_y)  # bob relinquishes
        alice.depart()
        carol.transfer_via_broker("bob", state.coin_y)  # broker now has state
        # Bob replays his stale holding via the broker: flat refusal.
        bob.wallet[state.coin_y] = stale
        from repro.core.errors import NotHolder

        with pytest.raises((NotHolder, VerificationFailed)):
            bob.transfer_via_broker("carol", state.coin_y)

    def test_downtime_renewal_bumps_seq_and_expiry(self, funded_trio):
        net, alice, bob, _carol = funded_trio
        state = alice.purchase()
        binding0 = alice.issue("bob", state.coin_y)
        alice.depart()
        net.advance(3600)
        binding1 = bob.renew(state.coin_y)
        assert binding1.via_broker
        assert binding1.seq == binding0.seq + 1
        assert binding1.exp_date > binding0.exp_date

    def test_expired_coin_rejected(self, funded_trio):
        net, alice, bob, _carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        alice.depart()
        net.advance(net.renewal_period + 1)
        from repro.core.errors import CoinExpired

        with pytest.raises(CoinExpired):
            bob.transfer_via_broker("carol-address-unused", state.coin_y)


class TestSync:
    def test_sync_returns_downtime_bindings(self, funded_trio):
        net, alice, bob, carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        alice.depart()
        bob.transfer_via_broker("carol", state.coin_y)
        carol.renew(state.coin_y)
        alice.rejoin()  # proactive sync inside
        assert net.broker.counts.syncs == 1
        assert alice.owned[state.coin_y].binding.via_broker
        assert "alice" not in net.shards[0].pending_sync

    def test_sync_requires_fresh_nonce(self, funded_trio):
        net, alice, _bob, _carol = funded_trio
        alice.purchase()
        signed = seal(alice.identity, {"kind": "whopay.sync", "nonce": b"forged"})
        with pytest.raises(VerificationFailed):
            alice.request(net.shards[0].address, protocol.SYNC, signed.encode())

    def test_sync_rejects_wrong_identity(self, funded_trio):
        net, alice, bob, _carol = funded_trio
        alice.purchase()
        nonce = alice.request(net.shards[0].address, protocol.SYNC_CHALLENGE, None)
        forged = seal(bob.identity, {"kind": "whopay.sync", "nonce": nonce})
        with pytest.raises(VerificationFailed):
            alice.request(net.shards[0].address, protocol.SYNC, forged.encode())
