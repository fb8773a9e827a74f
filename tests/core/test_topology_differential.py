"""Differential test: one broker and a 3-shard federation are the same mint.

M=1 is a ring of one on the same value-move path as M=3 (docs/FEDERATION.md),
so the same seeded trace — every value-moving operation over a 16-peer
roster — must leave identical merged ledgers: the same balances, the same
number of coins minted and deposited, the same circulating value.  Coin
keys are random per run; the ledger compares what the keys are worth, not
what they are.
"""

import random

import pytest

from repro.core.network import BrokerTopology, PeerConfig, WhoPayNetwork
from repro.crypto.params import PARAMS_TEST_512
from repro.store.audit import audit_broker

PEERS = 16
BALANCE = 20
ROUNDS = 20
LEDGER_KEYS = ("accounts", "coins_minted", "coins_deposited", "circulating_value")


def run_trace(shards: int, seed: int):
    net = WhoPayNetwork(params=PARAMS_TEST_512, topology=BrokerTopology(shards=shards))
    rng = random.Random(seed)
    peers = [net.add_peer(f"p{i:02d}", PeerConfig(balance=BALANCE)) for i in range(PEERS)]
    for _ in range(ROUNDS):
        buyer, payee, last = rng.sample(peers, 3)
        if rng.random() < 0.25:
            state = buyer.purchase_batch(rng.randint(2, 4))[0]
        else:
            state = buyer.purchase(value=rng.randint(1, 3))
        buyer.issue(payee.address, state.coin_y)
        if rng.random() < 0.3:
            payee.top_up(state.coin_y, delta=rng.randint(1, 2))
        payee.transfer(last.address, state.coin_y)
        if rng.random() < 0.7:
            last.deposit(state.coin_y, payout_to=last.address)
    return net


@pytest.mark.parametrize("seed", [3, 14])
def test_same_trace_same_merged_ledger_at_m1_and_m3(seed):
    single, federated = run_trace(1, seed), run_trace(3, seed)
    one, three = single.broker.export_ledger(), federated.broker.export_ledger()
    assert {key: three[key] for key in LEDGER_KEYS} == {key: one[key] for key in LEDGER_KEYS}
    # The traces really did take the two routes they claim to compare.
    assert one["operation_counts"]["handoffs"] == 0
    assert three["operation_counts"]["handoffs"] > 0
    for net in (single, federated):
        assert net.broker.verify_conservation(PEERS * BALANCE)
        assert all(audit_broker(shard).ok for shard in net.shards)
