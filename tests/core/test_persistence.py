"""Wallet persistence tests: restart survival, tamper rejection, encryption.

Each test snapshots a durable peer's wallet (compacting its journal), kills
the peer and recovers it from the snapshot alone: the snapshot is a
compacted journal, replayed through the same path as the live journal.
"""

import pytest

from repro.anonymity.cipher import CipherError
from repro.core.errors import VerificationFailed
from repro.core.network import PeerConfig, WhoPayNetwork
from repro.core.persistence import save_peer_snapshot
from repro.crypto.params import PARAMS_TEST_512
from repro.messages.codec import decode, encode
from repro.store.recovery import RecoveryError, RecoveryManager


@pytest.fixture()
def durable_trio(tmp_path):
    """(net, alice, bob, carol), every wallet journaled, alice funded."""
    net = WhoPayNetwork(params=PARAMS_TEST_512, store_dir=tmp_path)
    alice = net.add_peer("alice", PeerConfig(balance=25, durable=True))
    bob = net.add_peer("bob", PeerConfig(balance=10, durable=True))
    carol = net.add_peer("carol", PeerConfig(durable=True))
    return net, alice, bob, carol


def snapshot_and_restart(net, peer):
    """Snapshot ``peer``, kill it, and recover it from the snapshot alone."""
    save_peer_snapshot(peer, peer.store)
    result = net.restart_peer(peer.address)
    assert result.snapshot_loaded and result.records_replayed == 0
    return net.peers[peer.address]


def recover(net, peer, **kwargs):
    """Kill ``peer`` and recover it with explicit recovery options."""
    net.transport.unregister(peer.address)
    result = RecoveryManager(peer.store).recover_peer(
        net.transport,
        params=net.params,
        clock=net.clock,
        judge=net.judge,
        broker_address=net.broker.address,
        broker_key=net.broker.public_key,
        **kwargs,
    )
    net.peers[peer.address] = result.entity
    return result.entity


def coins(peer) -> int:
    return len(peer.wallet) + len(peer.owned)


class TestRoundTrip:
    def test_holder_state_survives_restart(self, durable_trio):
        net, alice, bob, carol = durable_trio
        state = alice.purchase(value=2)
        alice.issue("bob", state.coin_y)
        bob2 = snapshot_and_restart(net, bob)
        assert coins(bob2) == 1
        # The recovered peer can actually spend the coin.
        bob2.transfer("carol", state.coin_y)
        assert state.coin_y in carol.wallet

    def test_owner_state_survives_restart(self, durable_trio):
        net, alice, bob, carol = durable_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        bob.transfer("carol", state.coin_y)
        alice2 = snapshot_and_restart(net, alice)
        # The recovered owner serves transfers with the right coin secret,
        # and kept its relinquishment audit trail.
        carol.transfer("bob", state.coin_y)
        assert state.coin_y in net.peers["bob"].wallet
        assert len(alice2.owned[state.coin_y].relinquishments) == 2

    def test_identity_survives_for_broker_account(self, durable_trio):
        net, alice, _bob, _carol = durable_trio
        alice2 = snapshot_and_restart(net, alice)
        # Purchases still authenticate against the existing account.
        alice2.purchase()
        assert net.broker.balance("alice") == 24

    def test_group_membership_survives(self, durable_trio):
        net, alice, bob, _carol = durable_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        bob2 = snapshot_and_restart(net, bob)
        # Deposits need a valid group signature from the SAME member.
        assert bob2.deposit(state.coin_y) == 1

    def test_empty_peer_roundtrip(self, durable_trio):
        net, _alice, _bob, carol = durable_trio
        assert coins(snapshot_and_restart(net, carol)) == 0


class TestSafety:
    def test_garbage_rejected(self, durable_trio):
        net, alice, _bob, _carol = durable_trio
        alice.store.snapshot(b"not a wallet")
        with pytest.raises(RecoveryError, match="snapshot"):
            net.restart_peer("alice")

    def test_tampered_coin_rejected(self, durable_trio):
        net, alice, bob, _carol = durable_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        save_peer_snapshot(bob, bob.store)
        blob, _records, _torn = bob.store.load()
        data = decode(blob)
        (record,) = data["records"]
        (put,) = [mut for mut in record["muts"] if mut["type"] == "wallet_put"]
        put["entry"]["holder_x"] = 12345  # claim a different holder secret
        bob.store.snapshot(encode(data))
        with pytest.raises(VerificationFailed, match="holder key"):
            net.restart_peer("bob")

    def test_encryption_roundtrip(self, durable_trio):
        net, alice, bob, _carol = durable_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        key = b"k" * 32
        save_peer_snapshot(bob, bob.store, encryption_key=key)
        blob, _records, _torn = bob.store.load()
        assert blob.startswith(b"enc:")
        assert coins(recover(net, bob, encryption_key=key)) == 1

    def test_encrypted_blob_requires_key(self, durable_trio):
        net, alice, _bob, _carol = durable_trio
        save_peer_snapshot(alice, alice.store, encryption_key=b"k" * 32)
        with pytest.raises(RecoveryError, match="encryption key"):
            recover(net, alice)

    def test_wrong_key_rejected(self, durable_trio):
        net, alice, _bob, _carol = durable_trio
        save_peer_snapshot(alice, alice.store, encryption_key=b"k" * 32)
        with pytest.raises(CipherError):
            recover(net, alice, encryption_key=b"x" * 32)


class TestDetectionIntegration:
    def test_restore_rearms_dht_monitoring(self, tmp_path):
        from repro.core.coin import CoinBinding

        net = WhoPayNetwork(
            params=PARAMS_TEST_512, enable_detection=True, dht_size=4, store_dir=tmp_path
        )
        alice = net.add_peer("alice", PeerConfig(balance=10))
        bob = net.add_peer("bob", PeerConfig(durable=True))
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        bob2 = snapshot_and_restart(net, bob)
        # A fraudulent re-bind after the restart still raises the alarm:
        # the recovered wallet's coins are still watched.
        evil = CoinBinding.build(
            state.coin_keypair,
            coin_y=state.coin_y,
            holder_y=alice.identity.public.y,
            seq=alice.owned[state.coin_y].binding.seq + 1,
            exp_date=net.clock.now() + 1000,
        )
        net.detection.publish_owner(alice, alice.owned[state.coin_y], evil)
        assert len(bob2.alarms) == 1
