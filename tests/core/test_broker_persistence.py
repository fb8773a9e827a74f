"""Broker persistence tests: the mint survives a snapshot and a restart.

Each test snapshots the broker (compacting its journal), kills it and
recovers it from the snapshot alone: the snapshot is a compacted journal,
rebuilt through the same appliers as the live path.
"""

import copy

import pytest

from repro.anonymity.cipher import CipherError
from repro.core.errors import DoubleSpendDetected
from repro.core.network import PeerConfig, WhoPayNetwork
from repro.core.persistence import save_broker_snapshot
from repro.crypto.params import PARAMS_TEST_512
from repro.net.transport import Transport
from repro.store.recovery import RecoveryError, RecoveryManager


@pytest.fixture()
def durable_trio(tmp_path):
    """(net, alice, bob, carol) on a journaled broker, alice funded."""
    net = WhoPayNetwork(params=PARAMS_TEST_512, store_dir=tmp_path)
    alice = net.add_peer("alice", PeerConfig(balance=25))
    bob = net.add_peer("bob", PeerConfig(balance=10))
    carol = net.add_peer("carol")
    return net, alice, bob, carol


def snapshot_and_restart(net):
    """Snapshot the broker, kill it, and recover it from the snapshot alone."""
    net.snapshot_broker()
    result = net.restart_broker()
    assert result.snapshot_loaded and result.records_replayed == 0
    return net.shards[0]


def recover(net, **kwargs):
    return RecoveryManager(net.shards[0].store).recover_broker(
        Transport(), judge=net.judge, params=net.params, clock=net.clock, **kwargs
    )


class TestBrokerRoundTrip:
    def test_accounts_and_coins_survive(self, durable_trio):
        net, alice, bob, _carol = durable_trio
        state = alice.purchase(value=3)
        alice.issue("bob", state.coin_y)
        fresh = snapshot_and_restart(net)
        assert fresh.balance("alice") == 22
        assert state.coin_y in fresh.valid_coins
        # The recovered broker redeems the outstanding coin at full value.
        assert bob.deposit(state.coin_y, payout_to="bob") == 3

    def test_signing_key_survives(self, durable_trio):
        # Critical: a new signing key would orphan every outstanding coin.
        net, alice, bob, _carol = durable_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        old_key_y = net.broker.public_key.y
        fresh = snapshot_and_restart(net)
        assert fresh.public_key.y == old_key_y
        # Outstanding coin still verifies under the recovered key.
        assert bob.wallet[state.coin_y].coin.verify(fresh.public_key)

    def test_double_spend_ledger_survives(self, durable_trio):
        net, alice, bob, _carol = durable_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        held = copy.deepcopy(bob.wallet[state.coin_y])
        bob.deposit(state.coin_y)
        snapshot_and_restart(net)
        # Replaying the old coin against the recovered broker still trips
        # the ledger — a restart must not reopen the double-spend window.
        bob.wallet[state.coin_y] = held
        with pytest.raises(DoubleSpendDetected):
            bob.deposit(state.coin_y)

    def test_downtime_state_survives(self, durable_trio):
        net, alice, bob, _carol = durable_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        alice.depart()
        bob.transfer_via_broker("carol", state.coin_y)
        fresh = snapshot_and_restart(net)
        assert state.coin_y in fresh.downtime_bindings
        assert state.coin_y in fresh.pending_sync["alice"]
        # Alice's proactive sync works against the recovered broker.
        expected_seq = fresh.downtime_bindings[state.coin_y].seq
        alice.rejoin()
        assert alice.owned[state.coin_y].binding.seq == expected_seq
        assert "alice" not in fresh.pending_sync  # consumed by the sync

    def test_encryption_and_tamper_rejection(self, durable_trio):
        net, alice, _bob, _carol = durable_trio
        alice.purchase()
        key = b"b" * 32
        save_broker_snapshot(net.shards[0], net.shards[0].store, encryption_key=key)
        state, _records, _torn = net.shards[0].store.load()
        assert state.startswith(b"enc:")
        with pytest.raises(RecoveryError, match="encryption key"):
            recover(net)  # missing key
        with pytest.raises(CipherError):
            recover(net, encryption_key=b"x" * 32)
        assert recover(net, encryption_key=key).entity.balance("alice") == 24

    def test_garbage_rejected(self, durable_trio):
        net, _alice, _bob, _carol = durable_trio
        net.shards[0].store.snapshot(b"junk")
        with pytest.raises(RecoveryError, match="snapshot"):
            recover(net)
