"""A deposited coin's fixed-base table leaves the cache with the coin.

Every coin key a payee verifies twice is promoted to a table (``fastexp``,
"promotion"), and a coin is deposited once: without a release the cache
holds one dead table per coin ever deposited until ``_MAX_TABLES`` pushes
it out — 0.1 MB each, the largest thing a payment process kept per cycle.
The broker's accepted deposit and the depositor's wallet now report the key
dead (``DlogParams.forget``).  What that must not do: rebuild a table inside
a coin's life, touch a registered table, or change what a late request
naming the dead coin is told.
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
def built(monkeypatch):
    """Fresh caches, and the base of every table built from here on."""
    fastexp.clear_caches()
    bases: list[int] = []
    original = fastexp.FixedBaseTable.__init__

    def counted(self, base, *args, **kwargs):
        bases.append(base)
        original(self, base, *args, **kwargs)

    monkeypatch.setattr(fastexp.FixedBaseTable, "__init__", counted)
    yield bases
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


def test_sixty_cycles_of_the_benchmark_rotation(built):
    net = WhoPayNetwork(params=PARAMS_TEST_512)
    peers = [
        net.add_peer(f"peer{index:02d}", PeerConfig(balance=1_000)) for index in range(ROSTER)
    ]
    registered = set(fastexp._registered)
    coins = [run_cycle(peers, cycle)[0] for cycle in range(CYCLES - 1)]
    last, (p, q, r), (stale_q, stale_r) = run_cycle(peers, CYCLES - 1, keep_stale=True)
    coins.append(last)

    # A coin's key is promoted at most once in its life: releasing the table
    # at the deposit never turns into rebuilding it for a later operation.
    promotions = {coin_y: built.count(coin_y) for coin_y in coins}
    assert set(promotions.values()) == {1}
    # What is left belongs to keys that are still alive.
    assert not any((coin_y, net.params.p) in fastexp._tables for coin_y in coins)
    assert fastexp._registered == registered  # g, the opening key, the roster
    identities = {peer.identity.public.y for peer in peers}
    live = sum(len(peer.wallet) for peer in peers)
    assert live == 0
    assert len(fastexp._tables) <= len(registered) + len(identities) + live + 2
    assert fastexp.fixed_base(net.params.g, net.params.p).window == fastexp.SYSTEM_WINDOW

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
    assert (last, net.params.p) not in fastexp._tables
    assert built.count(last) == 1
