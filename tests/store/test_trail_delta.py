"""The owner's relinquishment trail is journaled once, not once per operation.

An ``owned_put`` used to carry the coin's whole trail, so a coin served *k*
times had journaled ``k(k+1)/2`` envelopes.  A put now carries ``trail_from``
and only the entries its coin's previous put did not; replay appends them to
the trail it holds.  What must survive that change: every crash point, a
snapshot with compaction in the middle, and journals written before the
field existed.

``fixtures/parent_owner_journal.json`` is such a journal: written by the
commit it names (the parent of the one that added ``trail_from``) for an
owner that purchased one coin, issued it and served transfer, renewal,
transfer — three puts carrying 1, 2 and 3 envelopes, none with the field.
"""

from __future__ import annotations

import base64
import hashlib
import json
from pathlib import Path

import pytest

from repro.core.clock import Clock
from repro.core.errors import VerificationFailed
from repro.core.judge import Judge
from repro.core.network import PeerConfig, WhoPayNetwork
from repro.core.persistence import save_peer_snapshot
from repro.core.sharding import ShardMap
from repro.crypto.keys import PublicKey
from repro.crypto.params import PARAMS_TEST_512
from repro.messages.codec import encode
from repro.net.rpc import RetryPolicy
from repro.net.transport import NetworkError, Transport
from repro.store import records as wallet_records
from repro.store.crashpoints import CrashPointPlan
from repro.store.journal import DurableStore
from repro.store.recovery import RecoveryManager

POLICY = RetryPolicy(max_attempts=3, base_delay=0.01, multiplier=2.0, max_delay=0.1)
FIXTURE = Path(__file__).parent / "fixtures" / "parent_owner_journal.json"


def owner_with_a_circulating_coin(tmp_path):
    """alice (durable) owns a coin that bob holds after one served transfer."""
    net = WhoPayNetwork(params=PARAMS_TEST_512, store_dir=tmp_path, retry_policy=POLICY)
    alice = net.add_peer("alice", PeerConfig(balance=10, durable=True))
    net.add_peer("bob")
    carol = net.add_peer("carol")
    coin_y = alice.purchase().coin_y
    alice.issue("carol", coin_y)
    carol.transfer("bob", coin_y)
    return net, coin_y


def owned_puts(store: DurableStore) -> list[dict]:
    _snapshot, records, _torn = store.load()
    return [
        mut["entry"]
        for record in records
        for mut in record["muts"]
        if mut["type"] == "owned_put"
    ]


class TestCrashAtEveryBoundary:
    """Die before or after the fsync of the record that extends the trail:
    the recovered trail is the journal's — with the new entry iff the record
    was durable — and the delta bookkeeping restarts from it."""

    @pytest.mark.parametrize("fire_at", range(2))
    @pytest.mark.parametrize("operation", ["transfer", "renewal"])
    def test_recovered_trail_equals_the_journals(self, tmp_path, operation, fire_at):
        net, coin_y = owner_with_a_circulating_coin(tmp_path)
        dying = net.peers["alice"]
        before = list(dying.owned[coin_y].relinquishments)
        plan = dying.store.crash_points = CrashPointPlan(fire_at=fire_at)
        if operation == "transfer":
            with pytest.raises(NetworkError):
                net.peers["bob"].transfer("carol", coin_y)
        else:
            # The owner dies serving it; the broker answers the same envelope.
            assert net.peers["bob"].renew(coin_y).via_broker
        assert plan.fired is not None
        served = dying.owned[coin_y].relinquishments  # what the dead process had in memory
        assert len(served) == len(before) + 1

        net.restart_peer("alice")
        state = net.peers["alice"].owned[coin_y]
        assert state.relinquishments == served[: len(before) + fire_at]
        assert state.trail_journaled == len(state.relinquishments)
        journaled = [
            entry
            for put in owned_puts(net.peers["alice"].store)
            for entry in put["relinquishments"]
        ]
        assert journaled == state.relinquishments  # each entry on disk exactly once


class TestSnapshotAndCompaction:
    def test_two_transfers_after_a_snapshot_recover_the_whole_trail(self, tmp_path):
        net, coin_y = owner_with_a_circulating_coin(tmp_path)
        alice, bob, carol = (net.peers[name] for name in ("alice", "bob", "carol"))
        bob.renew(coin_y)
        save_peer_snapshot(alice, alice.store)  # compacts: the journal restarts empty
        assert owned_puts(alice.store) == []
        bob.transfer("carol", coin_y)
        carol.transfer("bob", coin_y)
        live = list(alice.owned[coin_y].relinquishments)
        assert len(live) == 4
        # The two puts after the snapshot continue the snapshot's trail.
        assert [put["trail_from"] for put in owned_puts(alice.store)] == [2, 3]

        result = net.restart_peer("alice")
        assert result.snapshot_loaded and result.records_replayed == 2
        assert net.peers["alice"].owned[coin_y].relinquishments == live
        # ... and the recovered owner keeps journaling deltas from there.
        bob.renew(coin_y)
        assert owned_puts(net.peers["alice"].store)[-1]["trail_from"] == 4
        net.restart_peer("alice")
        assert net.peers["alice"].owned[coin_y].relinquishments[:4] == live
        assert len(net.peers["alice"].owned[coin_y].relinquishments) == 5

    def test_an_exported_state_carries_the_whole_trail(self, tmp_path):
        net, coin_y = owner_with_a_circulating_coin(tmp_path)
        alice = net.peers["alice"]
        entry = wallet_records.owned_entry(alice.owned[coin_y])
        assert entry["trail_from"] == 0
        assert entry["relinquishments"] == alice.owned[coin_y].relinquishments


class TestRecordSize:
    def test_the_twelfth_put_of_a_coin_is_the_size_of_the_second(self, tmp_path):
        """Puts counted over served transfers: each carries one envelope,
        whatever the coin's history (the 12th used to carry twelve)."""
        net, coin_y = owner_with_a_circulating_coin(tmp_path)  # the 1st
        holder, payee = "bob", "carol"
        for _ in range(11):
            net.peers[holder].transfer(payee, coin_y)
            holder, payee = payee, holder
        served = [put for put in owned_puts(net.peers["alice"].store) if put["relinquishments"]]
        assert len(served) == 12
        assert [put["trail_from"] for put in served] == list(range(12))
        second, twelfth = len(encode(served[1])), len(encode(served[11]))
        assert abs(twelfth - second) <= 0.10 * second
        net.restart_peer("alice")
        assert len(net.peers["alice"].owned[coin_y].relinquishments) == 12


class TestDeltaNeedsItsBase:
    def _delta_entry(self, tmp_path):
        net, coin_y = owner_with_a_circulating_coin(tmp_path)
        alice = net.peers["alice"]
        net.peers["bob"].renew(coin_y)
        state = alice.owned[coin_y]
        assert len(state.relinquishments) == 2
        return alice, state, wallet_records.owned_entry(state, trail_from=1)

    def test_a_delta_extends_the_trail_it_names(self, tmp_path):
        alice, state, entry = self._delta_entry(tmp_path)
        assert len(entry["relinquishments"]) == 1
        restored = wallet_records.restore_owned(alice, entry)
        assert restored.relinquishments == state.relinquishments

    def test_a_delta_without_its_coin_is_refused(self, tmp_path):
        alice, state, entry = self._delta_entry(tmp_path)
        del alice.owned[state.coin_y]
        with pytest.raises(VerificationFailed, match="trail"):
            wallet_records.restore_owned(alice, entry)

    def test_a_delta_past_the_held_trail_is_refused(self, tmp_path):
        alice, state, entry = self._delta_entry(tmp_path)
        state.relinquishments.clear()
        with pytest.raises(VerificationFailed, match="trail"):
            wallet_records.restore_owned(alice, entry)

    @pytest.mark.parametrize("trail_from", [-1, 3])
    def test_an_impossible_base_is_refused(self, tmp_path, trail_from):
        alice, _state, entry = self._delta_entry(tmp_path)
        with pytest.raises(VerificationFailed, match="trail"):
            wallet_records.restore_owned(alice, dict(entry, trail_from=trail_from))


class TestParentMadeJournal:
    """A journal written before ``trail_from`` existed replays as it always
    did — every put replaces the trail — and is continued with deltas."""

    @staticmethod
    def _recover(root: Path, fixture: dict):
        return RecoveryManager(DurableStore(root)).recover_peer(
            Transport(),
            params=PARAMS_TEST_512,
            clock=Clock(),
            judge=Judge(PARAMS_TEST_512),
            shard_map=ShardMap((fixture["broker_address"],)),
            broker_key=PublicKey(params=PARAMS_TEST_512, y=int(fixture["broker_y"], 16)),
        ).entity

    def test_it_replays_and_is_continued(self, tmp_path):
        fixture = json.loads(FIXTURE.read_text())
        (tmp_path / DurableStore.JOURNAL_NAME).write_bytes(base64.b64decode(fixture["journal_b64"]))
        puts = owned_puts(DurableStore(tmp_path))
        assert not any("trail_from" in put for put in puts)
        assert [len(put["relinquishments"]) for put in puts] == fixture["trail_lengths_per_put"]

        peer = self._recover(tmp_path, fixture)
        state = peer.owned[int(fixture["coin_y"], 16)]
        digests = [hashlib.sha256(entry).hexdigest() for entry in state.relinquishments]
        assert digests == fixture["trail_sha256"]
        assert state.binding.seq == fixture["binding_seq"]
        assert state.trail_journaled == 3

        # The next record this owner writes is a delta on top of the old ones.
        state.relinquishments.append(b"a fourth relinquishment")
        peer._wal_owned(state)
        assert owned_puts(peer.store)[-1]["trail_from"] == 3
        assert len(owned_puts(peer.store)[-1]["relinquishments"]) == 1
        again = self._recover(tmp_path, fixture)
        trail = again.owned[state.coin_y].relinquishments
        assert [hashlib.sha256(entry).hexdigest() for entry in trail[:3]] == fixture["trail_sha256"]
        assert trail[3] == b"a fourth relinquishment"
