"""Recovery semantics: journal replay, snapshots, exactly-once across a
restart, tamper refusal, encrypted snapshots, and durable peer wallets.

The replay-cache regression matters most: a deposit whose reply is lost to
a broker crash *after* the journal record is durable must succeed on the
client's retry — same idempotency key, deduplicated against the
journal-refilled cache — instead of being rejected as a double spend.
"""

from __future__ import annotations

import hashlib
import struct

import pytest

from repro.core.network import BrokerTopology, PeerConfig, WhoPayNetwork
from repro.crypto.params import PARAMS_TEST_512
from repro.messages.codec import decode, encode
from repro.net.rpc import RetryPolicy
from repro.net.transport import NodeOffline, Transport
from repro.store.crashpoints import CrashPointPlan, SimulatedCrash
from repro.store.journal import DurableStore
from repro.store.recovery import RecoveryError, RecoveryManager
from tests.conftest import restart_on_crash

POLICY = RetryPolicy(max_attempts=6, base_delay=0.01, multiplier=2.0, max_delay=0.1)

_LEN = struct.Struct(">I")
_CHECKSUM = 32


def make_net(tmp_path, **kwargs) -> WhoPayNetwork:
    return WhoPayNetwork(
        params=PARAMS_TEST_512,
        store_dir=tmp_path,
        retry_policy=POLICY,
        **kwargs,
    )


def monetary(ledger: dict) -> dict:
    """The ledger minus telemetry: a recovered broker restarts its
    operation counters at zero, but money and coin state must be exact."""
    return {k: v for k, v in ledger.items() if k != "operation_counts"}


@pytest.mark.parametrize("shards", [1, 3])
def test_the_durable_ledger_survives_restarting_every_shard(tmp_path, shards):
    """Every shard restarted, the ledger minus its one merged counter block
    is the pre-kill ledger: no per-shard telemetry hides in the breakdown."""
    net = make_net(tmp_path, topology=BrokerTopology(shards=shards))
    alice = net.add_peer("alice", PeerConfig(balance=10))
    bob = net.add_peer("bob")
    carol = net.add_peer("carol")
    for _ in range(3):
        coin_y = alice.purchase().coin_y
        alice.issue("bob", coin_y)
        bob.transfer("carol", coin_y)
        carol.deposit(coin_y, payout_to="carol")
    ledger = monetary(net.broker.export_ledger())
    assert ledger["coins_deposited"] == 3
    for index in range(shards):
        net.restart_shard(index)
    assert monetary(net.broker.export_ledger()) == ledger


def rewrite_journal(path, mutate) -> None:
    """Re-frame every journal record after passing it through ``mutate``."""
    data = path.read_bytes()
    frames = []
    offset = 0
    while offset < len(data):
        (length,) = _LEN.unpack_from(data, offset)
        payload = data[offset + _LEN.size : offset + _LEN.size + length]
        record = mutate(decode(payload))
        body = encode(record)
        frames.append(_LEN.pack(len(body)) + body + hashlib.sha256(body).digest())
        offset += _LEN.size + length + _CHECKSUM
    path.write_bytes(b"".join(frames))


class TestBrokerRecovery:
    def test_restart_reproduces_the_ledger_from_the_journal(self, tmp_path):
        net = make_net(tmp_path)
        alice = net.add_peer("alice", PeerConfig(balance=10))
        bob = net.add_peer("bob")
        state = alice.purchase()
        alice.purchase()
        alice.issue("bob", state.coin_y)
        bob.deposit(state.coin_y, payout_to="bob")
        ledger = monetary(net.broker.export_ledger())

        result = net.restart_broker()
        assert result.records_replayed > 0
        assert not result.snapshot_loaded
        assert result.audit is not None and result.audit.ok
        assert monetary(net.broker.export_ledger()) == ledger
        assert net.broker_restarts == 1

    def test_snapshot_bounds_the_replay(self, tmp_path):
        net = make_net(tmp_path)
        alice = net.add_peer("alice", PeerConfig(balance=10))
        bob = net.add_peer("bob")
        for _ in range(3):
            alice.purchase()
        net.snapshot_broker()
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        ledger = monetary(net.broker.export_ledger())

        result = net.restart_broker()
        assert result.snapshot_loaded
        assert 0 < result.records_replayed <= 2
        assert monetary(net.broker.export_ledger()) == ledger

    def test_recovered_broker_serves_new_traffic(self, tmp_path):
        net = make_net(tmp_path)
        alice = net.add_peer("alice", PeerConfig(balance=10))
        bob = net.add_peer("bob")
        net.restart_broker()
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        assert bob.deposit(state.coin_y, payout_to="bob") == 1
        assert net.broker.verify_conservation(10)

    def test_empty_store_is_refused(self, tmp_path):
        store = DurableStore(tmp_path / "nothing")
        net = make_net(tmp_path / "real")
        with pytest.raises(RecoveryError, match="no snapshot or init record"):
            RecoveryManager(store).recover_broker(
                Transport(), judge=net.judge, params=net.params, clock=net.clock
            )

    def test_wrong_address_is_refused(self, tmp_path):
        net = make_net(tmp_path)
        net.add_peer("alice", PeerConfig(balance=5))
        with pytest.raises(RecoveryError, match="belongs to"):
            RecoveryManager(net.shards[0].store).recover_broker(
                Transport(),
                judge=net.judge,
                params=net.params,
                clock=net.clock,
                address="imposter",
            )

    def _inflate_deposit(self, tmp_path, effects_to_inflate):
        """Deposit a value-1 coin, then add 5 to the named effects on disk
        (the frame checksum is rewritten to match) and recover."""
        net = make_net(tmp_path)
        alice = net.add_peer("alice", PeerConfig(balance=10))
        bob = net.add_peer("bob")
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        bob.deposit(state.coin_y, payout_to="bob")

        def inflate(record):
            for mut in record.get("muts", ()):
                for effect in mut.get("effects", ()):
                    if effect["effect"] in effects_to_inflate:
                        effect["amount"] += 5
            return record

        rewrite_journal(net.shards[0].store.journal_path, inflate)
        RecoveryManager(net.shards[0].store).recover_broker(
            Transport(), judge=net.judge, params=net.params, clock=net.clock
        )

    def test_tampered_journal_record_is_refused(self, tmp_path):
        # A deposit that credits more than it retires no longer cancels:
        # the apply layer refuses the record outright.
        with pytest.raises(RecoveryError, match="must cancel"):
            self._inflate_deposit(tmp_path, {"credit"})

    def test_sync_survives_a_restart_between_challenge_and_sync(self, tmp_path):
        # The sync nonce lives in broker memory only; a restart between the
        # challenge and the signed sync forgets it (the federation chaos
        # sweep hit this when a crash point fell before the sync's record
        # was durable).  The peer must re-challenge, not fail the rejoin.
        net = make_net(tmp_path)
        alice = net.add_peer("alice", PeerConfig(balance=5))
        bob = net.add_peer("bob")
        carol = net.add_peer("carol")
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        alice.depart()
        bob.transfer_via_broker("carol", state.coin_y)
        challenge = alice.broker_client.sync_challenge
        restarts = []

        def challenge_then_crash(**kwargs):
            nonce = challenge(**kwargs)
            if not restarts:
                restarts.append(net.restart_broker())
            return nonce

        alice.broker_client.sync_challenge = challenge_then_crash
        alice.rejoin()
        assert len(restarts) == 1
        assert alice.owned[state.coin_y].binding.holder_y == carol.wallet[state.coin_y].binding.holder_y

    def test_balanced_tamper_is_caught_by_the_audit(self, tmp_path):
        # Inflating both halves keeps the record balanced, but the coin's
        # signed certificate still says 1 — only the audit can catch it.
        with pytest.raises(RecoveryError, match="audit failed"):
            self._inflate_deposit(tmp_path, {"retire", "credit"})


class TestEncryptedSnapshots:
    KEY = hashlib.sha256(b"at-rest key").digest()

    def _prepare(self, tmp_path):
        from repro.core.persistence import save_broker_snapshot

        net = make_net(tmp_path)
        alice = net.add_peer("alice", PeerConfig(balance=10))
        alice.purchase()
        save_broker_snapshot(net.shards[0], net.shards[0].store, encryption_key=self.KEY)
        return net

    def test_snapshot_bytes_are_sealed(self, tmp_path):
        net = self._prepare(tmp_path)
        state, _records, _torn = net.shards[0].store.load()
        assert state.startswith(b"enc:")

    def test_recovery_needs_the_key(self, tmp_path):
        net = self._prepare(tmp_path)
        with pytest.raises(RecoveryError, match="encryption key"):
            RecoveryManager(net.shards[0].store).recover_broker(
                Transport(), judge=net.judge, params=net.params, clock=net.clock
            )

    def test_recovery_with_the_key_restores_the_ledger(self, tmp_path):
        net = self._prepare(tmp_path)
        ledger = monetary(net.shards[0].export_ledger())
        result = RecoveryManager(net.shards[0].store).recover_broker(
            Transport(),
            judge=net.judge,
            params=net.params,
            clock=net.clock,
            encryption_key=self.KEY,
        )
        assert result.snapshot_loaded
        assert monetary(result.entity.export_ledger()) == ledger


class TestReplayCacheAcrossRestart:
    def test_supervised_crash_after_commit_dedupes_the_retry(self, tmp_path):
        # The regression this PR fixes: reply lost after the deposit became
        # durable.  The retry (same idempotency key) must get the original
        # reply back, not DoubleSpendDetected.
        net = make_net(tmp_path)
        alice = net.add_peer("alice", PeerConfig(balance=10))
        bob = net.add_peer("bob")
        state = alice.purchase()
        alice.issue("bob", state.coin_y)

        restart_on_crash(net)
        plan = CrashPointPlan(fire_at=1, seed=3)  # next append's post_sync
        net.arm_crash_points(plan)
        assert bob.deposit(state.coin_y, payout_to="bob") == 1

        assert plan.fired is not None
        assert plan.fired.site == "journal.append.post_sync"
        assert net.broker_restarts == 1
        assert net.transport.crashes_simulated == 1
        assert net.shards[0].replays_served > 0  # the retry was served from cache
        assert net.shards[0].accounts["bob"].balance == 1  # credited exactly once
        assert state.coin_y in net.shards[0].deposited
        assert net.broker.verify_conservation(10)

    def test_unsupervised_crash_before_commit_rolls_back(self, tmp_path):
        # Dying before the record is durable loses the deposit entirely;
        # after a manual restart the operation can simply be re-run.
        net = make_net(tmp_path)
        alice = net.add_peer("alice", PeerConfig(balance=10))
        bob = net.add_peer("bob")
        state = alice.purchase()
        alice.issue("bob", state.coin_y)

        net.arm_crash_points(CrashPointPlan(fire_at=0, seed=5))  # pre_sync
        # The crash kills the broker node; with no supervisor, the retry
        # surfaces churn (NodeOffline) to the caller.
        with pytest.raises(NodeOffline):
            bob.deposit(state.coin_y, payout_to="bob")

        result = net.restart_broker()
        assert result.audit is not None and result.audit.ok
        assert state.coin_y not in net.shards[0].deposited  # rolled back
        assert bob.deposit(state.coin_y, payout_to="bob") == 1
        assert net.shards[0].accounts["bob"].balance == 1
        assert net.broker.verify_conservation(10)


class TestPeerRecovery:
    def test_holder_wallet_survives_a_restart(self, tmp_path):
        net = make_net(tmp_path)
        alice = net.add_peer("alice", PeerConfig(balance=10))
        bob = net.add_peer("bob", PeerConfig(durable=True))
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        assert state.coin_y in net.peers["bob"].wallet

        result = net.restart_peer("bob")
        assert result.records_replayed > 0
        bob = net.peers["bob"]
        assert state.coin_y in bob.wallet
        assert bob.deposit(state.coin_y, payout_to="bob") == 1

    def test_owner_state_survives_and_serves_transfers(self, tmp_path):
        net = make_net(tmp_path)
        alice = net.add_peer("alice", PeerConfig(balance=10, durable=True))
        bob = net.add_peer("bob")
        carol = net.add_peer("carol")
        state = alice.purchase()
        alice.issue("bob", state.coin_y)

        net.restart_peer("alice")
        alice = net.peers["alice"]
        assert state.coin_y in alice.owned
        # The recovered owner serves an online transfer of its coin.
        bob.transfer("carol", state.coin_y)
        assert state.coin_y in carol.wallet

    def test_peer_snapshot_bounds_the_replay(self, tmp_path):
        from repro.core.persistence import save_peer_snapshot

        net = make_net(tmp_path)
        alice = net.add_peer("alice", PeerConfig(balance=10, durable=True))
        alice.purchase()
        save_peer_snapshot(net.peers["alice"], net.peers["alice"].store)
        result = net.restart_peer("alice")
        assert result.snapshot_loaded
        assert result.records_replayed == 0
        assert len(net.peers["alice"].owned) + len(net.peers["alice"].wallet) >= 1

    @pytest.mark.parametrize(
        "network_mode,peer_mode", [("proactive", "lazy"), ("lazy", "proactive")]
    )
    def test_a_restarted_peer_keeps_its_own_sync_mode(self, tmp_path, network_mode, peer_mode):
        # The mode is the peer's (PeerConfig), not the network default it was
        # rebuilt with: a lazy peer must come back marking its coins dirty for
        # the Section 5.2 check-before-serve, not running a sync exchange.
        net = make_net(tmp_path, sync_mode=network_mode)
        alice = net.add_peer("alice", PeerConfig(balance=10, durable=True, sync_mode=peer_mode))
        alice.purchase()
        net.restart_peer("alice")
        alice = net.peers["alice"]
        assert alice.sync_mode == peer_mode
        syncs = alice.counts.syncs
        alice.depart()
        alice.rejoin()
        _state, records, _torn = alice.store.load()
        last = [mut["type"] for mut in records[-1]["muts"]]
        if peer_mode == "lazy":
            assert last == ["owned_dirty_all"]
            assert alice.counts.syncs == syncs
            assert all(state.dirty for state in alice.owned.values())
        else:
            assert "owned_dirty_all" not in last
            assert alice.counts.syncs == syncs + 1

    def test_non_durable_peer_cannot_restart(self, tmp_path):
        net = make_net(tmp_path)
        net.add_peer("alice", PeerConfig(balance=5))
        with pytest.raises(ValueError, match="not durable"):
            net.restart_peer("alice")


class TestSyncIsOneJournalRecord:
    """``Peer.sync_with_broker`` journals every binding it adopted and the
    clean flag as one record — it used to be one fsync per coin and one more
    for the flag, with a crash between them landing in a state no sync made."""

    def _rebound_while_away(self, tmp_path, sync_mode="proactive"):
        net = make_net(tmp_path)
        alice = net.add_peer("alice", PeerConfig(balance=10, durable=True, sync_mode=sync_mode))
        bob = net.add_peer("bob")
        coins = [alice.purchase().coin_y for _ in range(2)]
        for coin_y in coins:
            alice.issue("bob", coin_y)
        alice.depart()
        for coin_y in coins:
            bob.renew(coin_y)  # owner away: the broker re-binds both coins
        return net, alice, coins

    def test_a_sync_appends_one_record(self, tmp_path):
        _net, alice, _coins = self._rebound_while_away(tmp_path)
        before = alice.store.next_lsn
        alice.go_online()
        assert alice.sync_with_broker() == 2
        assert alice.store.next_lsn == before + 1
        _state, records, _torn = alice.store.load()
        assert [mut["type"] for mut in records[-1]["muts"]] == [
            "owned_put", "owned_put", "owned_clean_all",
        ]

    @pytest.mark.parametrize("fire_at", range(2))
    def test_a_crash_during_sync_keeps_all_of_it_or_none(self, tmp_path, fire_at):
        net, alice, coins = self._rebound_while_away(tmp_path)
        stale = {coin_y: alice.owned[coin_y].binding.seq for coin_y in coins}
        plan = alice.store.crash_points = CrashPointPlan(fire_at=fire_at)
        with pytest.raises(SimulatedCrash):
            alice.rejoin()
        assert plan.crossings == fire_at + 1  # the sync has no third boundary to die at
        net.restart_peer("alice")
        alice = net.peers["alice"]
        adopted = [alice.owned[coin_y].binding.seq > stale[coin_y] for coin_y in coins]
        # Before the fsync the record is lost whole, after it kept whole.
        assert adopted == [fire_at == 1] * 2

    def test_replaying_the_record_restores_bindings_and_clean_flags(self, tmp_path):
        net, alice, coins = self._rebound_while_away(tmp_path, sync_mode="lazy")
        alice.rejoin()  # lazy: every owned coin journaled as possibly stale
        assert all(alice.owned[coin_y].dirty for coin_y in coins)
        assert alice.sync_with_broker() == 2
        adopted = {coin_y: alice.owned[coin_y].binding.encode() for coin_y in coins}
        net.restart_peer("alice")
        alice = net.peers["alice"]
        assert {coin_y: alice.owned[coin_y].binding.encode() for coin_y in coins} == adopted
        assert not any(state.dirty for state in alice.owned.values())
