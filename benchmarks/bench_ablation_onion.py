"""Ablation — the price of network-level anonymity (Section 4.3).

The paper assumes onion routing underneath WhoPay "whenever network level
anonymity is desired" and never prices it.  This bench does: the same
payment sequence with direct transport vs 1-, 2- and 3-hop onion circuits,
counting transport messages and bytes.

Expected: message count grows linearly with circuit length (each protocol
round trip costs 2 extra message-endpoints per hop), byte volume grows a
bit faster (layered boxes nest), and the protocol outcome is identical.
"""

import sys
from pathlib import Path

from repro.analysis.tables import format_table
from repro.anonymity.onion import OnionOverlay, anonymize_node
from repro.core.network import PeerConfig, WhoPayNetwork
from repro.crypto.params import PARAMS_TEST_512

from _common import emit

# Keys are inputs: with fresh ones each run, integer lengths move the byte
# counts below.  The e2e harness's seeded ``secrets`` stream fixes
# them; ``workloads`` imports its sibling ``hostspeed`` as a top-level module.
sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))
from workloads import seeded_entropy  # noqa: E402

PAYMENTS = 8


def run_at_hops(hop_count: int) -> dict:
    net = WhoPayNetwork(params=PARAMS_TEST_512)
    alice = net.add_peer("alice", PeerConfig(balance=50))
    bob = net.add_peer("bob")
    carol = net.add_peer("carol")
    if hop_count:
        overlay = OnionOverlay(net.transport, net.params, size=hop_count)
        anonymize_node(bob, overlay)
    coins = []
    for _ in range(PAYMENTS):
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        coins.append(state.coin_y)
    net.transport.reset_counters()
    for coin_y in coins:
        bob.transfer("carol", coin_y)
    counter = net.transport.counters
    total_bytes = sum(c.bytes_sent for c in counter.values())
    return {
        "hops": hop_count,
        "messages": net.transport.total_messages,
        "kb": round(total_bytes / 1024, 1),
        "delivered": len(carol.wallet),
    }


def run_all():
    with seeded_entropy(1):
        return [run_at_hops(h) for h in (0, 1, 2, 3)]


def test_ablation_onion_overhead(benchmark):
    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    emit(
        "ablation_onion",
        format_table(
            rows,
            ["hops", "messages", "kb", "delivered"],
            title=f"Ablation: onion-routing overhead over {PAYMENTS} owner-served transfers",
        ),
    )

    # Correctness is hop-independent.
    assert all(r["delivered"] == PAYMENTS for r in rows)
    # Message overhead is linear in circuit length: each of the payer's
    # round trips gains one request+response per hop.
    base = rows[0]["messages"]
    per_hop = [(r["messages"] - base) / r["hops"] for r in rows if r["hops"]]
    assert max(per_hop) - min(per_hop) <= 1e-9, per_hop
    # Byte volume strictly grows with hops (layered boxes nest).
    kbs = [r["kb"] for r in rows]
    assert kbs == sorted(kbs) and kbs[-1] > kbs[0]
