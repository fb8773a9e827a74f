"""A deterministic many-peer swarm scenario over the real protocol stack.

Twenty peers, hundreds of seeded-random payments with churn, renewals, and
deposits — verifying the global invariants at the end.  This is the
full-crypto counterpart of the operation-level simulator: slower, smaller,
but every signature is real.
"""

import random

import pytest

from repro.core.errors import ProtocolError
from repro.net.transport import NetworkError, NodeOffline
from repro.core.network import PeerConfig

N_PEERS = 20
ROUNDS = 12
PAYMENTS_PER_ROUND = 15
POLICY = ("transfer", "downtime_transfer", "issue", "purchase_issue")


def renew_due(peer):
    """Renew every live held coin within a quarter period of its expiry."""
    now = peer.clock.now()
    window = peer.renewal_period / 4
    for coin_y, held in list(peer.wallet.items()):
        if not held.is_expired(now) and held.binding.exp_date - now <= window:
            peer.renew(coin_y)


@pytest.fixture(scope="module")
def swarm():
    from repro.core.network import WhoPayNetwork
    from repro.crypto.params import PARAMS_TEST_512

    rng = random.Random(1386)  # the tech-report number
    net = WhoPayNetwork(params=PARAMS_TEST_512)
    peers = [net.add_peer(f"peer-{i:02d}", PeerConfig(balance=8)) for i in range(N_PEERS)]
    total_wealth = 8 * N_PEERS
    payments_made = 0
    payments_failed = 0

    for round_number in range(ROUNDS):
        # Churn ~20% of peers each round.
        for peer in peers:
            if rng.random() < 0.2:
                if peer.online:
                    peer.depart()
                else:
                    peer.rejoin()
        online = [p for p in peers if p.online]
        if len(online) < 2:
            online[0].rejoin() if online else peers[0].rejoin()
            online = [p for p in peers if p.online]
        for _ in range(PAYMENTS_PER_ROUND):
            payer, payee = rng.sample(online, 2)
            try:
                payer.pay(payee.address, POLICY)
                payments_made += 1
            except (ProtocolError, NodeOffline, NetworkError):
                payments_failed += 1
        # Periodic renewals and the occasional deposit.
        net.advance(net.renewal_period * 0.2)
        for peer in online:
            renew_due(peer)
        if round_number % 4 == 3:
            depositor = rng.choice(online)
            # Deposit a live coin if any; expired ones are dead value (the
            # holder slept through the renewal window — the paper's rule).
            live = [
                coin_y
                for coin_y, held in depositor.wallet.items()
                if not held.is_expired(net.clock.now())
            ]
            if live:
                depositor.deposit(live[0], payout_to=depositor.address)

    for peer in peers:
        if not peer.online:
            peer.rejoin()
    return net, peers, total_wealth, payments_made, payments_failed


class TestSwarmOutcome:
    def test_most_payments_succeeded(self, swarm):
        _net, _peers, _wealth, made, failed = swarm
        assert made > 0.8 * (made + failed), (made, failed)

    def test_value_conservation(self, swarm):
        net, _peers, wealth, _made, _failed = swarm
        assert net.broker.verify_conservation(wealth)

    def test_no_coin_in_two_wallets(self, swarm):
        _net, peers, _wealth, _made, _failed = swarm
        seen = set()
        for peer in peers:
            for coin_y in peer.wallet:
                assert coin_y not in seen
                seen.add(coin_y)

    def test_no_fraud_occurred(self, swarm):
        net, _peers, _wealth, _made, _failed = swarm
        assert net.broker.fraud_events == []

    def test_every_wallet_entry_is_consistent(self, swarm):
        net, peers, _wealth, _made, _failed = swarm
        for peer in peers:
            for held in peer.wallet.values():
                assert held.binding.holder_y == held.holder_keypair.public.y
                assert held.coin.verify(net.broker.public_key)
                assert held.binding.verify(
                    held.coin.coin_public_key(net.params), net.broker.public_key
                )

    def test_owner_states_match_circulation(self, swarm):
        # Every held coin's owner-side state exists and its binding sequence
        # is at least the holder's (owners may have moved ahead via broker
        # sync after downtime operations the holder hasn't refreshed past).
        net, peers, _wealth, _made, _failed = swarm
        owners = {addr: p for addr, p in net.peers.items()}
        for peer in peers:
            for held in peer.wallet.values():
                owner = owners[held.coin.owner_address]
                state = owner.owned[held.coin_y]
                assert state.issued
                assert state.binding.seq >= held.binding.seq or state.dirty

    def test_broker_load_was_minority(self, swarm):
        net, peers, _wealth, made, _failed = swarm
        broker_ops = net.broker.counts.total()
        peer_payments = sum(
            p.counts.transfers_sent + p.counts.issues for p in peers
        )
        # Most payment activity never touched the broker.
        assert peer_payments > broker_ops
