"""Chaos suite: killing a federation shard in the middle of a payment storm.

The single-broker sweep (``test_broker_restart.py``) pins down recovery of
a standalone mint; here the target is the *federation*: a 3-shard broker
behind the ShardRouter, with cross-shard purchases, deposits, and top-ups
riding two-step handoffs.  Shard 0 is armed with crash points and dies at
sampled fsync boundaries mid-storm — including between a journaled
``handoff_begin`` and its commit, and while serving another shard's
prepare.  After every death the supervised restart must leave the
federation with:

* every payment completed (idempotent retries, journal-refilled dedupe);
* exactly-once handoffs — re-driven prepares are replay no-ops, so no
  double-mint and no double-debit;
* no stuck value: after ``complete_handoffs()`` drains any orphan, every
  shard passes the invariant audit and the router conserves total value.

Unlike the single-broker sweep, coin keys are random, so the *split* of
traffic across shards (and hence shard 0's exact boundary census) varies
between runs.  The sweep therefore fires at conservative indices — small
fractions of the census count — that every run is certain to reach, and
asserts system-level outcomes rather than per-site replay identity.

``WHOPAY_CRASH_SAMPLES`` widens the sweep in CI.
"""

import os
from collections import Counter

import pytest

from repro.core.network import BrokerTopology, PeerConfig, WhoPayNetwork
from repro.crypto.params import PARAMS_TEST_512
from repro.net.rpc import RetryPolicy
from repro.net.transport import FaultPlan, NodeOffline
from repro.store.audit import audit_broker
from repro.store.crashpoints import CrashPointPlan
from tests.conftest import restart_on_crash

pytestmark = pytest.mark.chaos

SEED = int(os.environ.get("WHOPAY_CHAOS_SEED", "11"))
CRASH_SAMPLES = int(os.environ.get("WHOPAY_CRASH_SAMPLES", "3"))

CHAOS_POLICY = RetryPolicy(max_attempts=6, base_delay=0.01, multiplier=2.0, max_delay=0.1)

SHARDS = 3
TARGET_SHARD = 0  # the one armed to die
N_PEERS = 4
BALANCE = 50
SEED_COINS = 4
N_PAYMENTS = 120
CHURN_EVERY = 10  # rotate which peer is offline (downtime traffic + syncs)
PURCHASE_EVERY = 4  # fresh mints keep the cross-shard handoff path hot


def run_storm(seed: int, store_root, n_payments: int = N_PAYMENTS, fire_at: int | None = None):
    """Seeded payment storm against a durable 3-shard federation.

    Shard ``TARGET_SHARD`` carries the crash-point plan; all shards are
    supervised.  Returns ``(net, peers, crash_plan, methods)`` with every
    wallet drained back to named accounts and all handoffs completed.
    """
    net = WhoPayNetwork(
        params=PARAMS_TEST_512,
        retry_policy=CHAOS_POLICY,
        store_dir=store_root,
        topology=BrokerTopology(shards=SHARDS),
    )
    peers = [net.add_peer(f"p{i}", PeerConfig(balance=BALANCE)) for i in range(N_PEERS)]
    for i, peer in enumerate(peers):
        coins = [peer.purchase() for _ in range(SEED_COINS)]
        peer.issue(peers[(i + 1) % N_PEERS].address, coins[0].coin_y)

    # Arm after setup so the storm's own fsync boundaries are enumerated.
    crash_plan = CrashPointPlan(fire_at=fire_at, seed=seed)
    net.arm_crash_points(crash_plan, shard=TARGET_SHARD)
    restart_on_crash(net)
    fault_plan = FaultPlan(
        seed=seed,
        request_loss=0.05,
        response_loss=0.05,
        duplicate_rate=0.05,
    )
    net.install_faults(fault_plan)

    methods: Counter = Counter()
    offline: int | None = None
    for k in range(n_payments):
        if k % CHURN_EVERY == 0:
            if offline is not None:
                peers[offline].rejoin()
            offline = (k // CHURN_EVERY) % N_PEERS
            peers[offline].depart()
        online = [i for i in range(N_PEERS) if i != offline]
        payer = peers[online[k % len(online)]]
        payee = peers[online[(k + 1) % len(online)]]
        if k % PURCHASE_EVERY == 0:
            # Fresh mint: a random coin key, 2/3 odds of a cross-shard
            # purchase handoff from the payer's account home.
            fresh = payer.purchase()
            payer.issue(payee.address, fresh.coin_y)
        methods[payer.pay(payee.address)] += 1
        net.advance(1.0)
    if offline is not None:
        peers[offline].rejoin()

    net.install_faults(None)
    for peer in peers:
        peer.sync_with_broker()
    # Drain wallets: deposits route to each coin's home shard and hand the
    # credit off to the depositor's account home.
    for peer in peers:
        for coin_y in list(peer.wallet):
            peer.deposit(coin_y, payout_to=peer.address)
    net.complete_handoffs()
    return net, peers, crash_plan, methods


def assert_federation_healthy(net, peers, methods, n_payments):
    assert sum(methods.values()) == n_payments
    assert not any(shard.pending_handoffs for shard in net.shards)
    assert net.broker.verify_conservation(N_PEERS * BALANCE)
    assert not net.broker.fraud_events
    assert all(not p.wallet for p in peers)
    for shard in net.shards:
        report = audit_broker(shard)
        assert report.ok, (shard.address, report.failures)
    # The storm actually exercised the federation: handoffs were served,
    # and more than one shard minted coins.
    assert sum(shard.counts.handoffs for shard in net.shards) > 0
    minters = [s for s in net.shards if s.export_ledger()["coins_minted"] > 0]
    assert len(minters) > 1


class TestShardKillSweep:
    def test_sampled_crash_points_leave_the_federation_consistent(self, tmp_path):
        census_run = run_storm(SEED, tmp_path / "census")
        census = census_run[2]
        assert census.fired is None
        assert census.crossings > 40  # shard 0 alone crosses many boundaries
        assert {"journal.append.pre_sync", "journal.append.post_sync"} <= set(
            census.sites
        )
        assert_federation_healthy(census_run[0], census_run[1], census_run[3], N_PAYMENTS)

        # Conservative indices: the traffic split is randomized, so fire
        # within the first half of the census count — every run gets there.
        ceiling = census.crossings // 2
        indices = sorted({int(ceiling * (i + 0.5) / CRASH_SAMPLES) for i in range(CRASH_SAMPLES)})
        for index in indices:
            net, peers, plan, methods = run_storm(SEED, tmp_path / f"fire{index}", fire_at=index)
            label = f"crash point #{index}"
            assert plan.fired is not None, label
            assert net.broker_restarts >= 1, label
            assert net.last_recovery is not None
            audit = net.last_recovery.audit
            assert audit is not None and audit.ok, label
            assert_federation_healthy(net, peers, methods, N_PAYMENTS)

    def test_crash_between_handoff_begin_and_commit_strands_no_value(self, tmp_path):
        # Fire shard 0 at its very first storm boundary: with a purchase at
        # k=0, that is a handoff_begin or the staged commit right after it.
        # Either way the retry (same handoff id) or the end-of-storm
        # complete_handoffs() must deliver the value exactly once.
        net, peers, plan, methods = run_storm(SEED, tmp_path / "early", fire_at=0)
        assert plan.fired is not None
        assert plan.fired.site.startswith("journal.append")
        assert net.broker_restarts >= 1
        assert_federation_healthy(net, peers, methods, N_PAYMENTS)


class TestUnsupervisedShardKill:
    def test_manual_shard_restart_resumes_the_storm(self, tmp_path):
        net = WhoPayNetwork(
            params=PARAMS_TEST_512,
            retry_policy=CHAOS_POLICY,
            store_dir=tmp_path,
            topology=BrokerTopology(shards=SHARDS),
        )
        peers = [net.add_peer(f"p{i}", PeerConfig(balance=BALANCE)) for i in range(N_PEERS)]
        for peer in peers:
            peer.purchase()
        net.arm_crash_points(CrashPointPlan(fire_at=0, seed=SEED), shard=TARGET_SHARD)
        # Hammer until an operation lands on the armed shard and kills it.
        with pytest.raises(NodeOffline):
            for peer in peers:
                for _ in range(8):
                    peer.purchase()

        result = net.restart_shard(TARGET_SHARD)
        assert result.audit is not None and result.audit.ok
        assert net.complete_handoffs() >= 0
        state = peers[0].purchase()  # the federation serves again
        peers[0].issue(peers[1].address, state.coin_y)
        assert peers[1].deposit(state.coin_y, payout_to=peers[1].address) == 1
        for peer in peers:
            peer.sync_with_broker()
        for peer in peers:
            for coin_y in list(peer.wallet):
                peer.deposit(coin_y, payout_to=peer.address)
        assert net.complete_handoffs() >= 0
        assert net.broker.verify_conservation(N_PEERS * BALANCE)
        for shard in net.shards:
            assert audit_broker(shard).ok
