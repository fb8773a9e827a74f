"""Snapshot ≡ state: a snapshot is a compacted journal.

A snapshot is the list of journal records that rebuilds its entity, replayed
through the same appliers as the journal after it.  So on a durable network
— one broker or a 3-shard federation, every peer journaled — snapshotting,
killing and recovering every entity must hand back the durable state it
had, field for field: accounts, coins, the deposited ledger, downtime
bindings, pending-sync sets, the owner index, handoff state, the replay
cache and ``total_opened`` on each shard; keys, held coins and owned coins
with their whole trails on each peer.

Seeded operation sequences check that at several points; the scripted
cases pin states a sequence may miss — a pending-sync coin whose binding a
deposit removed, a handoff left pending by a crash point, a retry answered
from a cache only the snapshot holds, an owner trail that continues with
delta records — and the snapshots recovery must refuse.
"""

from __future__ import annotations

import random

import pytest

from repro.core.network import BrokerTopology, PeerConfig, WhoPayNetwork
from repro.core.persistence import save_broker_snapshot, save_peer_snapshot
from repro.crypto.params import PARAMS_TEST_512
from repro.messages.codec import decode, encode
from repro.net.rpc import RetryPolicy
from repro.net.transport import NetworkError, Transport
from repro.store.crashpoints import CrashPointPlan
from repro.store.recovery import RecoveryError, RecoveryManager
from repro.store.records import held_entry, owned_entry
from tests.conftest import account_off_coin_home

POLICY = RetryPolicy(max_attempts=6, base_delay=0.01, multiplier=2.0, max_delay=0.1)
PEERS = 6
BALANCE = 20
ROUNDS = 24
#: A sequence runs past ROUNDS, up to this, until it has reached every field.
MAX_ROUNDS = 128
CHECK_EVERY = 4
#: The fields a run without faults can fill.
REACHED = {"valid_coins", "deposited", "downtime_bindings", "pending_sync"}


def durable_net(tmp_path, shards: int) -> WhoPayNetwork:
    net = WhoPayNetwork(
        params=PARAMS_TEST_512,
        store_dir=tmp_path,
        retry_policy=POLICY,
        topology=BrokerTopology(shards=shards),
    )
    for i in range(PEERS):
        net.add_peer(f"p{i}", PeerConfig(balance=BALANCE, durable=True))
    return net


def broker_state(broker) -> dict:
    return {
        "accounts": {n: (a.identity.y, a.balance) for n, a in broker.accounts.items()},
        "valid_coins": {y: coin.encode() for y, coin in broker.valid_coins.items()},
        "deposited": dict(broker.deposited),
        "downtime_bindings": {y: b.signed.encode() for y, b in broker.downtime_bindings.items()},
        "pending_sync": {owner: set(coins) for owner, coins in broker.pending_sync.items()},
        # An unmint can leave an owner with an empty set; replay never makes
        # one, and an empty set indexes nothing.
        "owner_coins": {owner: set(c) for owner, c in broker.owner_coins.items() if c},
        "pending_handoffs": {h: encode(r) for h, r in broker.pending_handoffs.items()},
        "handoffs_seen": set(broker.handoffs_seen),
        "replay_cache": [(k, encode(v)) for k, v in broker.replay_cache.snapshot_entries()],
        "total_opened": broker.total_opened,
    }


def peer_state(peer) -> dict:
    return {
        "keys": (peer.identity.x, peer.member_key.x, peer.member_key.h),
        "wallet": {y: encode(held_entry(held)) for y, held in peer.wallet.items()},
        "owned": {y: encode(owned_entry(state)) for y, state in peer.owned.items()},
    }


def durable_state(net) -> dict:
    return {
        "shards": [broker_state(shard) for shard in net.shards],
        "peers": {a: peer_state(p) for a, p in net.peers.items() if p.store is not None},
    }


def snapshot_all(net) -> None:
    for index in range(len(net.shards)):
        net.snapshot_broker(index)
    for peer in net.peers.values():
        if peer.store is not None:
            save_peer_snapshot(peer, peer.store)


def kill_and_recover(net, snapshot_only: bool = False) -> None:
    """Kill every shard and durable peer, recover each, and require the
    durable state they had; a peer that was offline is taken offline again."""
    before = durable_state(net)
    results = [net.restart_shard(index) for index in range(len(net.shards))]
    for address, peer in list(net.peers.items()):
        if peer.store is None:
            continue
        offline = not net.transport.is_online(address)
        results.append(net.restart_peer(address))
        if offline:
            net.peers[address].depart()
    after = durable_state(net)
    if snapshot_only:
        assert all(r.snapshot_loaded and r.records_replayed == 0 for r in results)
    else:
        # A journal keeps the replies of requests that changed state only:
        # after replaying one, the cache holds those of the live entries.
        for old, new in zip(before["shards"], after["shards"]):
            assert set(new.pop("replay_cache")) <= set(old.pop("replay_cache"))
    assert after == before


def snapshot_kill_recover(net) -> None:
    snapshot_all(net)
    kill_and_recover(net, snapshot_only=True)


def step(net, rng: random.Random) -> None:
    """One seeded operation among online peers (the owner of a coin may be away)."""
    online = [p for p in net.peers.values() if net.transport.is_online(p.address)]
    away = [p for p in net.peers.values() if p not in online]
    online_names = {p.address for p in online}
    held = [(p, coin_y) for p in online for coin_y in sorted(p.wallet)]
    roll = rng.random()
    if not held or roll < 0.25:
        buyer, payee = rng.sample(online, 2)
        buyer.issue(payee.address, buyer.purchase(value=rng.randint(1, 3)).coin_y)
        return
    # Mostly a coin whose owner is away, if any: downtime transfers/renewals.
    orphans = [(p, y) for p, y in held if p.wallet[y].coin.owner_address not in online_names]
    holder, coin_y = rng.choice(orphans if orphans and rng.random() < 0.7 else held)
    owner = holder.wallet[coin_y].coin.owner_address
    payees = [p for p in online if p is not holder and p.address != owner]
    if roll < 0.5 and payees:
        payee = rng.choice(payees).address
        if net.transport.is_online(owner):
            holder.transfer(payee, coin_y)
        else:
            holder.transfer_via_broker(payee, coin_y)
    elif roll < 0.6:
        holder.renew(coin_y)
    elif roll < 0.68:
        holder.deposit(coin_y, payout_to=holder.address)
    elif roll < 0.72:
        holder.top_up(coin_y, delta=1)
    elif roll < 0.86 and len(online) > 3:
        rng.choice([p for p in online if p is not holder]).depart()
    elif away:
        rng.choice(away).rejoin()


class TestSeededSequences:
    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("seed", [1, 4, 8])
    def test_recovered_state_equals_the_state_snapshotted(self, tmp_path, shards, seed):
        net = durable_net(tmp_path, shards)
        rng = random.Random(seed)
        filled = set()
        for round_ in range(1, MAX_ROUNDS + 1):
            step(net, rng)
            if round_ % CHECK_EVERY == 0:
                # The last snapshot plus the journal after it, then a new
                # snapshot alone: both must rebuild the same state.
                kill_and_recover(net)
                snapshot_kill_recover(net)
                filled |= {k for shard in durable_state(net)["shards"] for k, v in shard.items() if v}
                if round_ >= ROUNDS and filled >= REACHED:
                    break
        assert filled >= REACHED
        assert ("handoffs_seen" in filled) == (shards > 1)
        for peer in net.peers.values():
            if not net.transport.is_online(peer.address):
                peer.rejoin()
        assert net.broker.verify_conservation(PEERS * BALANCE)


class TestScriptedStates:
    @pytest.mark.parametrize("shards", [1, 3])
    def test_a_pending_sync_coin_whose_binding_a_deposit_removed(self, tmp_path, shards):
        net = durable_net(tmp_path, shards)
        owner, holder, payee = (net.peers[a] for a in ("p0", "p1", "p2"))
        coin_y = owner.purchase().coin_y
        owner.issue(holder.address, coin_y)
        owner.depart()
        holder.transfer_via_broker(payee.address, coin_y)
        payee.deposit(coin_y, payout_to=payee.address)
        home = net.broker.shard_for_coin(coin_y)
        assert coin_y in home.pending_sync[owner.address]
        assert coin_y not in home.downtime_bindings
        snapshot_kill_recover(net)
        home = net.broker.shard_for_coin(coin_y)
        assert coin_y in home.pending_sync[owner.address]
        net.peers[owner.address].rejoin()
        assert owner.address not in home.pending_sync

    def test_a_handoff_left_pending_by_a_crash_point(self, tmp_path):
        net = durable_net(tmp_path, 3)
        owner = net.peers["p0"]
        coin_y = owner.purchase().coin_y
        # p1..p5 are homed on all three shards: one is off the coin's home.
        holder = net.peers[account_off_coin_home(net, coin_y, [f"p{i}" for i in range(1, PEERS)])]
        owner.issue(holder.address, coin_y)
        payout = net.shard_map.addresses.index(net.shard_map.shard_for_account(holder.address))
        net.arm_crash_points(CrashPointPlan(fire_at=0), shard=payout)
        with pytest.raises(NetworkError):
            holder.deposit(coin_y, payout_to=holder.address)
        net.restart_shard(payout)
        source = net.broker.shard_for_coin(coin_y)
        assert len(source.pending_handoffs) == 1
        snapshot_kill_recover(net)
        assert len(net.broker.shard_for_coin(coin_y).pending_handoffs) == 1
        assert net.complete_handoffs() == 1
        assert net.broker.balance(holder.address) == BALANCE + 1
        assert net.broker.verify_conservation(PEERS * BALANCE)

    def test_a_retry_is_answered_from_the_snapshots_cache(self, tmp_path):
        net = durable_net(tmp_path, 1)
        owner, holder = net.peers["p0"], net.peers["p1"]
        coin_y = owner.purchase().coin_y
        owner.issue(holder.address, coin_y)
        restarts = []

        def recover_from_a_snapshot(_crash):
            net.restart_broker()  # the dead broker's journal holds the deposit...
            net.snapshot_broker()  # ...which only the snapshot holds from here
            restarts.append(net.restart_broker())

        net.transport.set_crash_handler(net.shards[0].address, recover_from_a_snapshot)
        plan = CrashPointPlan(fire_at=1)  # the deposit's append, after its fsync
        net.arm_crash_points(plan)
        assert holder.deposit(coin_y, payout_to=holder.address) == 1
        assert plan.fired is not None and plan.fired.site == "journal.append.post_sync"
        assert [r.records_replayed for r in restarts] == [0]
        assert net.shards[0].replays_served > 0  # the retry was served from the cache
        assert net.broker.balance(holder.address) == BALANCE + 1  # credited once
        assert net.broker.verify_conservation(PEERS * BALANCE)

    def test_an_owner_trail_continues_with_delta_records(self, tmp_path):
        net = durable_net(tmp_path, 1)
        owner, a, b = (net.peers[x] for x in ("p0", "p1", "p2"))
        coin_y = owner.purchase().coin_y
        owner.issue(a.address, coin_y)
        a.transfer(b.address, coin_y)
        save_peer_snapshot(owner, owner.store)
        b.transfer(a.address, coin_y)
        a.renew(coin_y)
        _snapshot, records, _torn = owner.store.load()
        trail_from = [
            mut["entry"]["trail_from"]
            for record in records
            for mut in record["muts"]
            if mut["type"] == "owned_put"
        ]
        assert trail_from == [1, 2]  # each put continues the snapshot's trail
        kill_and_recover(net)
        assert len(net.peers[owner.address].owned[coin_y].relinquishments) == 3


class TestRefusedSnapshots:
    def _snapshotted(self, tmp_path):
        net = durable_net(tmp_path, 1)
        owner, holder = net.peers["p0"], net.peers["p1"]
        owner.issue(holder.address, owner.purchase(value=2).coin_y)
        save_broker_snapshot(net.shards[0], net.shards[0].store)
        blob, _records, _torn = net.shards[0].store.load()
        return net, decode(blob)

    def _recover(self, net, data):
        net.shards[0].store.snapshot(encode(data))
        return RecoveryManager(net.shards[0].store).recover_broker(
            Transport(), judge=net.judge, params=net.params, clock=net.clock
        )

    @staticmethod
    def _effects(data, name):
        (effects,) = [
            mut["effects"] for mut in data["records"][0]["muts"]
            if mut["type"] == "snapshot_effects"
        ]
        return [e for e in effects if e["effect"] == name]

    def test_an_untouched_snapshot_recovers(self, tmp_path):
        net, data = self._snapshotted(tmp_path)
        assert self._recover(net, data).entity.balance("p0") == BALANCE - 2

    def test_an_edited_balance_is_refused(self, tmp_path):
        net, data = self._snapshotted(tmp_path)
        self._effects(data, "credit")[0]["amount"] += 5
        with pytest.raises(RecoveryError, match="stored"):
            self._recover(net, data)

    def test_a_forged_certificate_is_refused(self, tmp_path):
        # The coin claims 5 more and the totals agree: only the broker's
        # signature on the certificate is left to refuse it.
        net, data = self._snapshotted(tmp_path)
        (mint,) = self._effects(data, "mint")
        cert = decode(mint["coin"])
        payload = decode(cert["payload"])
        payload["value"] += 5
        cert["payload"] = encode(payload)
        mint["coin"], mint["amount"] = encode(cert), mint["amount"] + 5
        data["total_opened"] += 5
        with pytest.raises(RecoveryError, match="signature"):
            self._recover(net, data)

    @pytest.mark.parametrize("fmt", ["whopay.broker.v1", "whopay.wallet.v2"])
    def test_a_snapshot_of_another_format_is_refused(self, tmp_path, fmt):
        net, data = self._snapshotted(tmp_path)
        data["format"] = fmt
        with pytest.raises(RecoveryError, match="not a whopay.broker.v2 snapshot"):
            self._recover(net, data)
