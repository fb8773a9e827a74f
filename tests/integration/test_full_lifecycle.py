"""End-to-end lifecycle and churn integration tests."""

import pytest

from repro.core.errors import DoubleSpendDetected
from repro.core.network import BrokerTopology, PeerConfig, WhoPayNetwork
from repro.crypto import fastexp
from repro.crypto.params import PARAMS_TEST_512


class TestCoinLifecycle:
    def test_purchase_issue_transfers_renewals_deposit(self, network):
        net = network
        peers = [net.add_peer(f"p{i}", PeerConfig(balance=10)) for i in range(6)]
        state = peers[0].purchase(value=3)
        peers[0].issue("p1", state.coin_y)
        # The coin circulates through every peer via owner-served transfers.
        for i in range(1, 5):
            peers[i].transfer(f"p{i + 1}", state.coin_y)
        assert state.coin_y in peers[5].wallet
        net.advance(net.renewal_period * 0.8)
        peers[5].renew_due_coins()
        credited = peers[5].deposit(state.coin_y, payout_to="p5")
        assert credited == 3
        assert net.broker.balance("p5") == 13
        # Owner audit trail keeps every served holder request:
        # 4 transfers + 1 renewal.
        assert len(peers[0].owned[state.coin_y].relinquishments) == 5

    def test_many_coins_many_peers(self, network):
        net = network
        peers = [net.add_peer(f"p{i}", PeerConfig(balance=20)) for i in range(4)]
        coins = [peers[i % 2].purchase() for i in range(8)]
        for i, state in enumerate(coins):
            owner = peers[i % 2]
            owner.issue(f"p{(i % 2) + 2}", state.coin_y)
        total_held = sum(len(p.wallet) for p in peers)
        assert total_held == 8
        # Everyone deposits whatever they hold.
        for peer in peers:
            for coin_y in list(peer.wallet):
                peer.deposit(coin_y)
        assert sum(len(p.wallet) for p in peers) == 0
        assert len(net.broker.deposited) == 8

    def test_value_conservation(self, network):
        # Money in = money out: accounts + circulating coin value is constant.
        net = network
        alice = net.add_peer("alice", PeerConfig(balance=10))
        bob = net.add_peer("bob", PeerConfig(balance=0))

        def total_wealth():
            accounts = sum(a.balance for a in net.broker.accounts.values())
            circulating = sum(
                coin.value
                for coin_y, coin in net.broker.valid_coins.items()
                if coin_y not in net.broker.deposited
            )
            return accounts + circulating

        start = total_wealth()
        state = alice.purchase(value=4)
        assert total_wealth() == start
        alice.issue("bob", state.coin_y)
        assert total_wealth() == start
        bob.deposit(state.coin_y, payout_to="bob")
        assert total_wealth() == start
        assert net.broker.balance("bob") == 4


class TestChurnScenarios:
    def test_owner_offline_full_cycle(self, network):
        net = network
        alice = net.add_peer("alice", PeerConfig(balance=10))
        bob = net.add_peer("bob")
        carol = net.add_peer("carol")
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        alice.depart()
        bob.transfer_via_broker("carol", state.coin_y)
        carol.transfer_via_broker("bob", state.coin_y)
        bob.renew(state.coin_y)
        alice.rejoin()
        # After sync, the owner serves transfers again seamlessly.
        bob.transfer("carol", state.coin_y)
        assert state.coin_y in carol.wallet

    def test_holder_offline_renewal_after_rejoin(self, network):
        net = network
        alice = net.add_peer("alice", PeerConfig(balance=10))
        bob = net.add_peer("bob")
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        bob.depart()
        net.advance(net.renewal_period * 0.85)
        bob.rejoin()
        assert bob.renew_due_coins() == 1
        assert not bob.wallet[state.coin_y].is_expired(net.clock.now())

    def test_interleaved_online_offline_payments(self, network):
        net = network
        peers = [net.add_peer(f"p{i}", PeerConfig(balance=10)) for i in range(5)]
        state = peers[0].purchase()
        peers[0].issue("p1", state.coin_y)
        for i in range(1, 4):
            if i % 2 == 1:
                peers[0].depart()
                peers[i].transfer_via_broker(f"p{i + 1}", state.coin_y)
            else:
                peers[0].rejoin()
                peers[i].transfer(f"p{i + 1}", state.coin_y)
        peers[0].rejoin()
        assert state.coin_y in peers[4].wallet

    def test_double_spend_story_with_adjudication(self, network):
        """The full detect-and-punish narrative in one test."""
        import copy

        from repro.core.audit import adjudicate_double_deposit

        net = network
        alice = net.add_peer("alice", PeerConfig(balance=10))
        mallory = net.add_peer("mallory")
        victim = net.add_peer("victim")
        state = alice.purchase(value=5)
        alice.issue("mallory", state.coin_y)
        stale = copy.deepcopy(mallory.wallet[state.coin_y])
        mallory.transfer("victim", state.coin_y)  # pays the victim…
        mallory.wallet[state.coin_y] = stale
        mallory.deposit(state.coin_y)  # …then cashes the same coin
        with pytest.raises(DoubleSpendDetected):
            victim.deposit(state.coin_y)
        verdict = adjudicate_double_deposit(
            net.broker.fraud_events[-1],
            alice.owned[state.coin_y].relinquishments,
            net.params,
            net.judge,
        )
        assert verdict.role == "holder"
        assert verdict.culprit == "mallory"


class TestDetectionIntegration:
    def test_full_cycle_with_dht(self, detection_network):
        net = detection_network
        peers = [net.add_peer(f"p{i}", PeerConfig(balance=10)) for i in range(4)]
        state = peers[0].purchase()
        peers[0].issue("p1", state.coin_y)
        peers[1].transfer("p2", state.coin_y)
        peers[0].depart()
        peers[2].transfer_via_broker("p3", state.coin_y)
        peers[0].rejoin()
        peers[3].deposit(state.coin_y)
        assert net.detection.publishes >= 3
        assert all(not p.alarms for p in peers)  # honest run: no alarms


class TestFixedBaseTables:
    def test_a_deployment_holds_exactly_two_byte_wide_tables(self, tmp_path):
        """The set-up of the benchmark's ``peer_ops_m1`` (16 durable peers,
        one broker, every operation once): ``g`` and the judge's opening key
        are byte-wide, the roster and every promoted key are not."""
        fastexp.clear_caches()
        net = WhoPayNetwork(
            params=PARAMS_TEST_512, store_dir=tmp_path, topology=BrokerTopology(shards=1)
        )
        config = PeerConfig(balance=1_000, durable=True)
        p, q, r, *_rest = (net.add_peer(f"peer{index:02d}", config) for index in range(16))
        coin_y = p.purchase().coin_y
        p.issue(q.address, coin_y)
        q.transfer(r.address, coin_y)
        r.renew(coin_y)
        p.depart()
        r.transfer_via_broker(q.address, coin_y)
        q.renew(coin_y)
        p.rejoin()
        q.transfer(r.address, coin_y)

        params, gpk = net.params, net.judge.group_public_key()
        system = {params.g, gpk.opening_key.y}
        for base in system:
            assert fastexp.fixed_base(base, params.p).window == fastexp.SYSTEM_WINDOW
        widths = {base: table.window for (base, _modulus), table in fastexp._tables.items()}
        assert {base for base, window in widths.items() if window != fastexp.CACHED_WINDOW} == system
        assert set(gpk.roster) | {coin_y} <= set(widths)
        # The coin's promoted table lives as long as the coin: the deposit ends both.
        r.deposit(coin_y)
        assert set(widths) - {base for base, _modulus in fastexp._tables} == {coin_y}
