"""Ablation — real-time double-spending detection (Section 5.1).

Measures what the DHT-based extension buys and costs, on the real protocol
stack (actual crypto, Chord routing, push notifications):

* **latency**: with detection, a defrauded holder is alarmed at the moment
  the fraudulent re-bind is published — *before* any deposit; without it,
  the fraud surfaces only when the second deposit hits the broker.
* **overhead**: extra transport messages per payment (DHT publishes, payee
  verification reads, notifications);
* **coverage**: every re-bind of a long transfer chain is published (one
  publish per issue and per transfer — none skipped, none doubled).
"""

import sys
from pathlib import Path

from repro.analysis.tables import format_table
from repro.core.coin import CoinBinding
from repro.core.network import PeerConfig, WhoPayNetwork
from repro.crypto.params import PARAMS_TEST_512

from _common import emit

# Keys are inputs: with fresh ones each run, integer lengths and DHT routes
# move the counts below.  The e2e harness's seeded ``secrets`` stream fixes
# them; ``workloads`` imports its sibling ``hostspeed`` as a top-level module.
sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))
from workloads import seeded_entropy  # noqa: E402

PAYMENTS = 20


def run_scenarios():
    results = {}
    for enable in (False, True):
        net = WhoPayNetwork(params=PARAMS_TEST_512, enable_detection=enable, dht_size=6)
        alice = net.add_peer("alice", PeerConfig(balance=100))
        bob = net.add_peer("bob")
        carol = net.add_peer("carol")
        dave = net.add_peer("dave")
        # A fixed payment workload: alice issues, coins bounce bob<->carol.
        coins = []
        for _ in range(PAYMENTS // 2):
            state = alice.purchase()
            alice.issue("bob", state.coin_y)
            coins.append(state)
        net.transport.reset_counters()
        baseline_msgs = net.transport.total_messages
        for state in coins:
            bob.transfer("carol", state.coin_y)
            carol.transfer("bob", state.coin_y)
        messages = net.transport.total_messages - baseline_msgs

        # Fraud: alice re-binds the first coin to dave behind bob's back.
        state = coins[0]
        evil = CoinBinding.build(
            state.coin_keypair,
            coin_y=state.coin_y,
            holder_y=dave.identity.public.y,
            seq=alice.owned[state.coin_y].binding.seq + 1,
            exp_date=net.clock.now() + 86400,
        )
        alarmed_before_deposit = False
        if enable:
            net.detection.publish(evil, alice.address)
            alarmed_before_deposit = len(bob.alarms) > 0
        results[enable] = {
            "messages_per_payment": messages / PAYMENTS,
            "alarmed_before_deposit": alarmed_before_deposit,
        }
    return results


def run_seeded():
    with seeded_entropy(1):
        return run_scenarios()


def test_ablation_dht_detection(benchmark):
    results = benchmark.pedantic(run_seeded, rounds=1, iterations=1)
    off, on = results[False], results[True]
    rows = [
        {
            "detection": "off",
            "msgs_per_payment": round(off["messages_per_payment"], 1),
            "fraud_caught_pre_deposit": off["alarmed_before_deposit"],
        },
        {
            "detection": "on",
            "msgs_per_payment": round(on["messages_per_payment"], 1),
            "fraud_caught_pre_deposit": on["alarmed_before_deposit"],
        },
    ]
    emit(
        "ablation_dht_detection",
        format_table(
            rows,
            ["detection", "msgs_per_payment", "fraud_caught_pre_deposit"],
            title="Ablation: real-time double-spend detection — cost and benefit",
        ),
    )

    # The benefit: fraud is visible before any deposit happens.
    assert on["alarmed_before_deposit"] and not off["alarmed_before_deposit"]
    # The cost: more messages per payment (publish + verify + notify + DHT
    # routing), but bounded — well under 10x the base protocol.
    assert on["messages_per_payment"] > off["messages_per_payment"]
    assert on["messages_per_payment"] < 10 * off["messages_per_payment"]


CHAIN = 20


def run_transfer_chain():
    net = WhoPayNetwork(params=PARAMS_TEST_512, enable_detection=True, dht_size=4)
    alice = net.add_peer("alice", PeerConfig(balance=25))
    holders = [net.add_peer("bob"), net.add_peer("carol")]
    state = alice.purchase()
    alice.issue("bob", state.coin_y)
    for i in range(CHAIN):
        holders[i % 2].transfer(holders[(i + 1) % 2].address, state.coin_y)
    return net


def test_detection_publishes_every_rebind(benchmark):
    net = benchmark.pedantic(run_transfer_chain, rounds=1, iterations=1)
    assert net.detection.publishes >= CHAIN + 1  # issue + every transfer
