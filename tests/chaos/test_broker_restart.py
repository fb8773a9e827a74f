"""Chaos suite: broker death and recovery in the middle of a payment storm.

The crash-point sweep is the PR's acceptance test.  A counting run first
enumerates every fsync boundary the broker's store crosses during a
200-payment storm under 5% request/response loss plus duplicate delivery,
with a snapshot+compaction dropped into the middle of the storm.  The sweep
then re-runs the identical workload with the broker armed to die at sampled
boundaries — every class of death: before a record is durable, after it is
durable but before the reply left, mid-snapshot, mid-compaction — and
asserts the system-level guarantees:

* the supervised restart is invisible to clients: every payment completes
  through idempotent retries, and a retry whose original executed before
  the crash is served from the journal-refilled replay cache;
* the recovered broker passes the invariant audit and conserves value;
* the same (workload seed, crash point) replays bit-identically.

``WHOPAY_CRASH_SAMPLES`` widens the sweep in CI; the tier-1 default keeps
the suite fast.
"""

import os
from collections import Counter

import pytest

from repro.core.network import PeerConfig, WhoPayNetwork
from repro.crypto.params import PARAMS_TEST_512
from repro.net.rpc import RetryPolicy
from repro.net.transport import FaultPlan, NodeOffline
from repro.store.audit import audit_broker
from repro.store.crashpoints import CrashPointPlan, SimulatedCrash
from tests.conftest import restart_on_crash

pytestmark = pytest.mark.chaos

SEED = int(os.environ.get("WHOPAY_CHAOS_SEED", "7"))
CRASH_SAMPLES = int(os.environ.get("WHOPAY_CRASH_SAMPLES", "6"))

CHAOS_POLICY = RetryPolicy(max_attempts=6, base_delay=0.01, multiplier=2.0, max_delay=0.1)

N_PEERS = 4
BALANCE = 50
SEED_COINS = 6
SEED_ISSUES = 2
N_PAYMENTS = 200
SNAPSHOT_AT = N_PAYMENTS // 2  # mid-storm snapshot + journal compaction
CHURN_EVERY = 10  # rotate which peer is offline (downtime traffic + rejoin syncs)
PURCHASE_EVERY = 5  # fresh mint + issue mixed into the storm


def run_storm(seed: int, store_root, n_payments: int = N_PAYMENTS, fire_at: int | None = None):
    """Seeded payment storm against a durable, supervised, crashable broker.

    Returns ``(net, peers, crash_plan, fault_plan, methods)`` with every
    wallet drained back to named accounts.
    """
    net = WhoPayNetwork(
        params=PARAMS_TEST_512, retry_policy=CHAOS_POLICY, store_dir=store_root
    )
    peers = [net.add_peer(f"p{i}", PeerConfig(balance=BALANCE)) for i in range(N_PEERS)]
    for i, peer in enumerate(peers):
        coins = [peer.purchase() for _ in range(SEED_COINS)]
        for state in coins[:SEED_ISSUES]:
            peer.issue(peers[(i + 1) % N_PEERS].address, state.coin_y)

    # Arm after setup so crash-point indices enumerate the storm's own
    # fsync boundaries, identically for every run with this seed.
    crash_plan = CrashPointPlan(fire_at=fire_at, seed=seed)
    net.arm_crash_points(crash_plan)
    restart_on_crash(net)
    fault_plan = FaultPlan(
        seed=seed,
        request_loss=0.05,
        response_loss=0.05,
        duplicate_rate=0.05,
    )
    net.install_faults(fault_plan)

    # Churn keeps the broker in the storm: one peer is offline at any time,
    # so payments with that peer's coins go through downtime transfers, and
    # every rotation triggers a rejoin synchronization.  Periodic fresh
    # purchases keep the mint path hot too.
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
        if k == SNAPSHOT_AT:
            try:
                net.snapshot_broker()
            except SimulatedCrash:
                # Died mid-snapshot: no transport supervisor on this local
                # call path, so the operator restarts the broker by hand.
                net.restart_broker()
        if k % PURCHASE_EVERY == 0:
            fresh = payer.purchase()
            payer.issue(payee.address, fresh.coin_y)
        methods[payer.pay(payee.address)] += 1
        net.advance(1.0)
    if offline is not None:
        peers[offline].rejoin()

    net.install_faults(None)
    for peer in peers:
        peer.sync_with_broker()
    for peer in peers:
        for coin_y in list(peer.wallet):
            peer.deposit(coin_y, payout_to=peer.address)
    return net, peers, crash_plan, fault_plan, methods


def fingerprint(net, fault_plan):
    """Replay-comparable outcome (byte counters excluded: bignum sizes vary)."""
    return (
        net.broker.export_ledger(),
        net.broker_restarts,
        net.transport.total_messages,
        net.transport.messages_dropped,
        net.transport.crashes_simulated,
        fault_plan.stats.as_dict(),
    )


def assert_run_healthy(net, peers, methods, n_payments):
    assert sum(methods.values()) == n_payments
    assert net.broker.verify_conservation(N_PEERS * BALANCE)
    assert not net.broker.fraud_events
    assert all(not p.wallet for p in peers)
    report = audit_broker(net.shards[0])
    assert report.ok, report.failures


class TestCrashPointSweep:
    def test_every_sampled_crash_point_recovers_invisibly(self, tmp_path):
        census_run = run_storm(SEED, tmp_path / "census")
        census = census_run[2]
        assert census.fired is None
        assert census.crossings > 100  # the storm crosses many boundaries
        # Every distinguishable kind of death is in the enumeration.
        assert {
            "journal.append.pre_sync",
            "journal.append.post_sync",
            "snapshot.pre_sync",
            "snapshot.post_sync",
            "snapshot.post_rename",
            "journal.compact.pre_sync",
            "journal.compact.post_sync",
        } <= set(census.sites)
        assert_run_healthy(census_run[0], census_run[1], census_run[4], N_PAYMENTS)

        total = census.crossings
        indices = sorted({int(total * (i + 0.5) / CRASH_SAMPLES) for i in range(CRASH_SAMPLES)})
        for index in indices:
            net, peers, plan, _faults, methods = run_storm(
                SEED, tmp_path / f"fire{index}", fire_at=index
            )
            label = f"crash point #{index} ({census.sites[index]})"
            assert plan.fired is not None, label
            assert plan.fired.site == census.sites[index], label
            assert net.broker_restarts >= 1, label
            assert net.last_recovery is not None
            audit = net.last_recovery.audit
            assert audit is not None and audit.ok, label
            assert_run_healthy(net, peers, methods, N_PAYMENTS)

    def test_retry_straddling_the_crash_is_served_from_the_journal(self, tmp_path):
        # At an append.post_sync point the handler's effects are durable but
        # the reply dies with the process: the client's retry must be
        # deduplicated by the recovered broker, not re-executed.
        census = run_storm(SEED, tmp_path / "census", n_payments=40)[2]
        index = next(
            i for i, site in enumerate(census.sites) if site == "journal.append.post_sync"
        )
        net, peers, plan, _faults, methods = run_storm(
            SEED, tmp_path / "fire", n_payments=40, fire_at=index
        )
        assert plan.fired is not None and plan.fired.site == "journal.append.post_sync"
        assert net.transport.crashes_simulated == 1
        assert net.shards[0].replays_served > 0  # dedupe answered the retry
        assert_run_healthy(net, peers, methods, 40)


class TestDeterminism:
    def test_same_seed_and_crash_point_replay_bit_identically(self, tmp_path):
        census = run_storm(SEED, tmp_path / "census", n_payments=60)[2]
        index = census.crossings // 2
        first = run_storm(SEED, tmp_path / "a", n_payments=60, fire_at=index)
        second = run_storm(SEED, tmp_path / "b", n_payments=60, fire_at=index)
        assert first[2].fired is not None
        assert first[2].fired.site == second[2].fired.site
        assert fingerprint(first[0], first[3]) == fingerprint(second[0], second[3])


class TestUnsupervisedCrash:
    def test_manual_restart_resumes_the_storm(self, tmp_path):
        # No supervisor: the crash surfaces as churn, the operator restarts
        # the broker from disk, and the workload picks up where it left off.
        net = WhoPayNetwork(
            params=PARAMS_TEST_512, retry_policy=CHAOS_POLICY, store_dir=tmp_path
        )
        peers = [net.add_peer(f"p{i}", PeerConfig(balance=BALANCE)) for i in range(N_PEERS)]
        for peer in peers:
            peer.purchase()
        net.arm_crash_points(CrashPointPlan(fire_at=0, seed=SEED))
        with pytest.raises(NodeOffline):
            peers[0].purchase()

        result = net.restart_broker()
        assert result.audit is not None and result.audit.ok
        state = peers[0].purchase()  # the same operation now succeeds
        peers[0].issue(peers[1].address, state.coin_y)
        assert peers[1].deposit(state.coin_y, payout_to=peers[1].address) == 1
        assert net.broker.verify_conservation(N_PEERS * BALANCE)
