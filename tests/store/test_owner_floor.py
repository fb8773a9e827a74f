"""An owner never signs one ``seq`` twice, whatever instant it dies at.

The owner mints every binding in one step (``Peer._bind``): its seq floor is
journaled before the binding leaves — the DHT publish, the payee's
completion — and the binding becomes the coin's, with its trail entry, in a
second record once the payee accepted.  An owner that used to journal only
that second record could die after the payee held the new binding, recover
the old floor, and sign the same ``seq`` for the next holder: two live
bindings at one ``seq``, which the public binding list refuses as the
owner's rollback.  The floor is reserved ``SEQ_RESERVATION`` ahead, so the
journal write is paid once per block of bindings, not once per binding.
"""

from __future__ import annotations

import pytest

from repro.core.network import PeerConfig, WhoPayNetwork
from repro.core.peer import SEQ_RESERVATION
from repro.crypto.params import PARAMS_TEST_512
from repro.net.transport import NetworkError
from repro.store.crashpoints import CrashPointPlan, SimulatedCrash


class DieOnceThePayeeHolds(CrashPointPlan):
    """Arms itself at the owner's first durability boundary after ``payee``
    accepted ``coin_y``: the payment is out, its record not yet on disk."""

    def __init__(self, payee, coin_y: int) -> None:
        super().__init__()
        self.payee, self.coin_y = payee, coin_y

    def crossing(self, site: str) -> None:
        if self.fire_at is None and self.coin_y in self.payee.wallet:
            self.fire_at = self.crossings
        super().crossing(site)


@pytest.mark.parametrize("detection", [False, True], ids=["no-dht", "dht"])
@pytest.mark.parametrize("case", ["issue", "transfer", "transfer-opening-a-block"])
def test_a_recovered_owner_signs_above_the_binding_it_died_sending(tmp_path, case, detection):
    net = WhoPayNetwork(params=PARAMS_TEST_512, store_dir=tmp_path, enable_detection=detection)
    alice = net.add_peer("alice", PeerConfig(balance=10, durable=True))
    bob, carol, dave = (net.add_peer(name) for name in ("bob", "carol", "dave"))
    coin_y = alice.purchase().coin_y
    if case == "issue":
        payee = carol
        plan = alice.store.crash_points = DieOnceThePayeeHolds(payee, coin_y)
        with pytest.raises(SimulatedCrash):
            alice.issue("carol", coin_y)
    else:
        alice.issue("carol", coin_y)
        if case == "transfer-opening-a-block":
            state = alice.owned[coin_y]
            state.seq_floor = state.seq_signed  # the issue's block is used up ...
            alice._wal_owned(state)  # ... on disk too
        payee = bob
        plan = alice.store.crash_points = DieOnceThePayeeHolds(payee, coin_y)
        with pytest.raises(NetworkError):
            carol.transfer("bob", coin_y)
    assert plan.fired is not None and plan.fired.site == "journal.append.pre_sync"
    sent = payee.wallet[coin_y].binding  # accepted before the owner died

    net.restart_peer("alice")
    alice = net.peers["alice"]
    assert alice.owned[coin_y].seq_floor >= sent.seq  # what left is under the durable floor
    # The owner's record of the payment died with it, so it still serves
    # the coin as before; the next binding it signs must rise above the one
    # the payee holds.
    if case == "issue":
        alice.issue("dave", coin_y)
    else:
        carol.transfer("dave", coin_y)
    signed = dave.wallet[coin_y].binding
    assert signed.seq > sent.seq
    assert alice.owned[coin_y].seq_signed == signed.seq
    if detection:
        # The binding list took the owner's binding as the next one, not as
        # a rollback to refuse — and the payee learned at once that its coin
        # moved.
        assert net.detection.rejected_publishes == 0
        assert net.detection.fetch_binding("dave", coin_y).encode() == signed.encode()
        assert [alarm.observed_seq for alarm in payee.alarms] == [signed.seq]


def journaled_floors(peer) -> list[int]:
    """The seq floor of every owned-coin record on disk, in order."""
    _snapshot, records, _torn = peer.store.load()
    return [
        mut["entry"]["seq_floor"] for record in records for mut in record["muts"] if mut["type"] == "owned_put"
    ]


def test_the_floor_is_journaled_once_per_reserved_block(tmp_path):
    net = WhoPayNetwork(params=PARAMS_TEST_512, store_dir=tmp_path)
    alice = net.add_peer("alice", PeerConfig(balance=10, durable=True))
    bob, carol = net.add_peer("bob"), net.add_peer("carol")
    coin_y = alice.purchase().coin_y
    alice.issue("bob", coin_y)
    state = alice.owned[coin_y]
    assert state.seq_floor == state.binding.seq + SEQ_RESERVATION
    # The purchase's put, the issue's floor, the issue's binding.
    assert journaled_floors(alice) == [0, state.seq_floor, state.seq_floor]
    records = alice.store.next_lsn

    bob.transfer("carol", coin_y)
    carol.renew(coin_y)
    assert alice.store.next_lsn == records + 2  # inside the block: one record each, no floor

    state.seq_floor = state.seq_signed  # the block is used up
    carol.transfer("bob", coin_y)
    assert alice.store.next_lsn == records + 4
    assert journaled_floors(alice)[-2:] == [state.binding.seq + SEQ_RESERVATION] * 2
