"""Sixty cycles of the benchmark's rotation: what a payment process keeps,
and what a late request naming a deposited coin is told.

Every coin brings a fresh key that payees exponentiate; the kernel under
them (``fastexp``) holds one Montgomery context per modulus, so its state
is set by the group, not by how many coins have lived and died.  The
deposited coins must leave nothing behind that changes what a late
deposit or transfer of one of them is told.
"""

from __future__ import annotations

import copy

import pytest

from repro.core.errors import DoubleSpendDetected, NotHolder
from repro.core.network import PeerConfig, WhoPayNetwork
from repro.crypto import fastexp
from repro.crypto.params import PARAMS_TEST_512

ROSTER = 16
CYCLES = 60


@pytest.fixture()
def fresh():
    fastexp.clear_caches()
    yield
    fastexp.clear_caches()


def run_cycle(peers, cycle: int, keep_stale: bool = False):
    """One cycle of ``benchmarks/e2e``'s rotation (``CycleWorkload.run_unit``)."""
    p, q, r = (peers[(cycle + offset) % ROSTER] for offset in range(3))
    coin_y = p.purchase().coin_y
    p.issue(q.address, coin_y)
    stale_q = copy.deepcopy(q.wallet[coin_y]) if keep_stale else None
    q.transfer(r.address, coin_y)
    r.renew(coin_y)
    p.depart()
    r.transfer_via_broker(q.address, coin_y)
    q.renew(coin_y)
    p.rejoin()
    q.transfer(r.address, coin_y)
    stale_r = copy.deepcopy(r.wallet[coin_y]) if keep_stale else None
    r.deposit(coin_y)
    return coin_y, (p, q, r), (stale_q, stale_r)


@pytest.mark.usefixtures("fresh")
def test_sixty_cycles_of_the_benchmark_rotation():
    net = WhoPayNetwork(params=PARAMS_TEST_512)
    peers = [
        net.add_peer(f"peer{index:02d}", PeerConfig(balance=1_000)) for index in range(ROSTER)
    ]
    run_cycle(peers, 0)
    moduli = list(fastexp._kernel._moduli)
    assert net.params.p in moduli
    for cycle in range(1, CYCLES - 1):
        run_cycle(peers, cycle)
    last, (p, q, r), (stale_q, stale_r) = run_cycle(peers, CYCLES - 1, keep_stale=True)
    # Sixty coin keys later: one context per modulus, the same ones.
    assert list(fastexp._kernel._moduli) == moduli
    assert sum(len(peer.wallet) for peer in peers) == 0

    # Late requests naming the deposited coin are told what they always were.
    r.wallet[last] = stale_r
    with pytest.raises(DoubleSpendDetected, match="coin already deposited"):
        r.deposit(last)
    q.wallet[last] = stale_q
    with pytest.raises(NotHolder, match="proof binding does not match the owner's state"):
        q.transfer(r.address, last)
    p.depart()
    with pytest.raises(DoubleSpendDetected, match="coin already deposited"):
        q.transfer_via_broker(r.address, last)
    assert len(net.broker.fraud_events) == 2
    assert list(fastexp._kernel._moduli) == moduli
