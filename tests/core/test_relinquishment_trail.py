"""The owner's audit trail holds the requests that took effect, nothing else.

``audit.adjudicate_double_deposit`` reads a trail entry as "the holder at
this ``(holder_y, seq)`` signed the coin away".  An owner that kept the
envelope of a transfer which then failed — the payee unreachable at the
completion step — therefore held evidence against a holder whose binding
was still live: the refusal path removed the entry, the exception path did
not (trail 0 → 1 after a transfer that never happened, 2 after the retry).
"""

from __future__ import annotations

import pytest

from repro.core.audit import adjudicate_double_deposit
from repro.core.coin import CoinBinding, HeldCoin
from repro.core.errors import DoubleSpendDetected, ProtocolError
from repro.core.network import PeerConfig, WhoPayNetwork
from repro.crypto.keys import KeyPair
from repro.crypto.params import PARAMS_TEST_512
from repro.net.transport import NodeOffline


def after_the_offer(monkeypatch, payer, then):
    """The payee answers ``payer``'s offer; ``then()`` runs before the owner completes."""
    offer = payer.peer_client.transfer_offer

    def offer_then(dest, coin_bytes):
        reply = offer(dest, coin_bytes)
        then()
        return reply

    monkeypatch.setattr(payer.peer_client, "transfer_offer", offer_then)


def sent_to_owner(monkeypatch, holder) -> list[bytes]:
    """Collects the holder envelopes ``holder`` sends to an owner."""
    sent: list[bytes] = []
    ask = holder._ask_owner

    def recording(held, kind, payload):
        sent.append(payload["envelope"] if isinstance(payload, dict) else payload)
        return ask(held, kind, payload)

    monkeypatch.setattr(holder, "_ask_owner", recording)
    return sent


@pytest.fixture()
def durable_owner(tmp_path):
    net = WhoPayNetwork(params=PARAMS_TEST_512, store_dir=tmp_path)
    alice = net.add_peer("alice", PeerConfig(balance=10, durable=True))
    bob = net.add_peer("bob")
    carol = net.add_peer("carol")
    coin_y = alice.purchase().coin_y
    alice.issue("bob", coin_y)
    return net, alice, bob, carol, coin_y


class TestFailedTransferLeavesNoEntry:
    def test_payee_unreachable_then_retry(self, durable_owner, monkeypatch):
        _net, alice, bob, carol, coin_y = durable_owner
        state = alice.owned[coin_y]
        binding = state.binding.encode()
        journal = alice.store.journal_path.read_bytes()

        with monkeypatch.context() as patch:
            after_the_offer(patch, bob, carol.go_offline)  # unreachable at the completion
            with pytest.raises(NodeOffline):
                bob.transfer("carol", coin_y)
        assert state.relinquishments == []
        assert state.binding.encode() == binding
        assert alice.store.journal_path.read_bytes() == journal
        assert coin_y in bob.wallet and coin_y not in carol.wallet

        carol.go_online()
        bob.transfer("carol", coin_y)
        assert len(state.relinquishments) == 1  # exactly the transfer that happened
        assert coin_y in carol.wallet

    def test_refused_by_the_payee(self, durable_owner, monkeypatch):
        _net, alice, bob, carol, coin_y = durable_owner
        # The payee no longer knows the nonce it handed out: it refuses.
        after_the_offer(monkeypatch, bob, carol._pending.clear)
        with pytest.raises(ProtocolError, match="payee rejected"):
            bob.transfer("carol", coin_y)
        assert alice.owned[coin_y].relinquishments == []

    def test_renewal_whose_publication_fails(self, durable_owner):
        _net, alice, bob, _carol, coin_y = durable_owner
        state = alice.owned[coin_y]
        binding = state.binding.encode()

        class UnreachableList:
            def publish(self, *_args):
                raise NodeOffline("the binding list is unreachable")

        alice.detection = UnreachableList()
        # The holder falls back to the broker with the same envelope.
        assert bob.renew(coin_y).via_broker
        assert state.relinquishments == []
        assert state.binding.encode() == binding


class TestAdjudicationOverAStaleTrail:
    """What the stale entry cost: the owner double-issues, the honest holder
    deposits at the binding its failed transfer left live, and the trail the
    parent kept convicts the holder instead of the owner."""

    def test_stale_entry_convicts_the_honest_holder_fixed_trail_the_owner(
        self, durable_owner, monkeypatch
    ):
        net, alice, bob, carol, coin_y = durable_owner
        sent = sent_to_owner(monkeypatch, bob)
        with monkeypatch.context() as patch:
            after_the_offer(patch, bob, carol.go_offline)  # unreachable at the completion
            with pytest.raises(NodeOffline):
                bob.transfer("carol", coin_y)
        carol.go_online()
        (never_served,) = sent
        state = alice.owned[coin_y]

        # Owner fraud: a second live binding, handed to carol out of band.
        carol_keypair = KeyPair.generate(net.params)
        forged = CoinBinding.build(
            state.coin_keypair,
            coin_y=coin_y,
            holder_y=carol_keypair.public.y,
            seq=state.binding.seq + 1,
            exp_date=net.clock.now() + 10_000,
        )
        carol.wallet[coin_y] = HeldCoin(coin=state.coin, holder_keypair=carol_keypair, binding=forged)
        carol.deposit(coin_y)
        with pytest.raises(DoubleSpendDetected):
            bob.deposit(coin_y)  # honest: bob's binding was never relinquished
        event = net.broker.fraud_events[-1]

        stale = adjudicate_double_deposit(event, [never_served], net.params, net.judge)
        assert (stale.role, stale.culprit) == ("holder", "bob")  # the parent's trail
        fixed = adjudicate_double_deposit(event, state.relinquishments, net.params, net.judge)
        assert state.relinquishments == []
        assert (fixed.role, fixed.culprit) == ("owner", None)
