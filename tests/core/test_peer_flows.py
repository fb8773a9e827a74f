"""Peer protocol flows: issue, transfer, renewal, pay policies, lazy sync."""

import pytest

from repro.core.errors import (
    CoinExpired,
    NotHolder,
    NotOwner,
    ProtocolError,
    UnknownCoin,
    VerificationFailed,
)
from repro.core.network import PeerConfig


class TestIssue:
    def test_issue_moves_coin_to_payee(self, funded_trio):
        _net, alice, bob, _carol = funded_trio
        state = alice.purchase(value=2)
        binding = alice.issue("bob", state.coin_y)
        held = bob.wallet[state.coin_y]
        assert held.value == 2
        assert held.binding.holder_y == held.holder_keypair.public.y
        assert binding.holder_y == held.holder_keypair.public.y
        assert alice.owned[state.coin_y].issued

    def test_cannot_issue_twice(self, funded_trio):
        _net, alice, bob, carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        with pytest.raises(ProtocolError):
            alice.issue("carol", state.coin_y)

    def test_cannot_issue_unowned_coin(self, funded_trio):
        _net, alice, bob, _carol = funded_trio
        state = alice.purchase()
        with pytest.raises(NotOwner):
            bob.issue("alice", state.coin_y)

    def test_issue_with_no_coins_fails(self, funded_trio):
        _net, _alice, _bob, carol = funded_trio
        with pytest.raises(UnknownCoin):
            carol.issue("bob")

    def test_issue_auto_selects_unissued(self, funded_trio):
        _net, alice, bob, _carol = funded_trio
        state = alice.purchase()
        alice.issue("bob")  # no coin_y argument
        assert state.coin_y in bob.wallet


class TestTransfer:
    def test_transfer_chain(self, funded_trio):
        _net, alice, bob, carol = funded_trio
        state = alice.purchase()
        b1 = alice.issue("bob", state.coin_y)
        b2 = bob.transfer("carol", state.coin_y)
        assert b2.seq == b1.seq + 1
        assert state.coin_y in carol.wallet and state.coin_y not in bob.wallet
        b3 = carol.transfer("bob", state.coin_y)
        assert b3.seq == b2.seq + 1

    def test_transfer_back_to_owner(self, funded_trio):
        _net, alice, bob, _carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        bob.transfer("alice", state.coin_y)
        assert state.coin_y in alice.wallet  # owner now also holds it
        # And the owner can spend it onward like any holder.
        alice.transfer("bob", state.coin_y)
        assert state.coin_y in bob.wallet

    def test_cannot_transfer_unheld_coin(self, funded_trio):
        _net, alice, bob, carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        with pytest.raises(NotHolder):
            carol.transfer("bob", state.coin_y)

    def test_stale_holder_cannot_transfer_via_owner(self, funded_trio):
        import copy

        _net, alice, bob, carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        stale = copy.deepcopy(bob.wallet[state.coin_y])
        bob.transfer("carol", state.coin_y)
        bob.wallet[state.coin_y] = stale
        with pytest.raises(NotHolder):
            bob.transfer("carol", state.coin_y)

    def test_owner_records_relinquishments(self, funded_trio):
        _net, alice, bob, carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        bob.transfer("carol", state.coin_y)
        carol.transfer("bob", state.coin_y)
        assert len(alice.owned[state.coin_y].relinquishments) == 2

    def test_counts_updated(self, funded_trio):
        _net, alice, bob, carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        bob.transfer("carol", state.coin_y)
        assert alice.counts.purchases == 1
        assert alice.counts.issues == 1
        assert alice.counts.transfers_handled == 1
        assert bob.counts.transfers_sent == 1
        assert bob.counts.payments_received == 1
        assert carol.counts.payments_received == 1


class TestRenewal:
    def test_renewal_via_owner(self, funded_trio):
        net, alice, bob, _carol = funded_trio
        state = alice.purchase()
        b1 = alice.issue("bob", state.coin_y)
        net.advance(3600)
        b2 = bob.renew(state.coin_y)
        assert not b2.via_broker
        assert b2.seq == b1.seq + 1
        assert b2.exp_date > b1.exp_date
        assert alice.counts.renewals_handled == 1

    def test_renew_due_coins(self, funded_trio):
        net, alice, bob, _carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        # Not yet inside the renewal window.
        assert bob.renew_due_coins() == 0
        net.advance(net.renewal_period * 0.8)
        assert bob.renew_due_coins() == 1

    def test_non_holder_cannot_renew(self, funded_trio):
        _net, alice, bob, carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        with pytest.raises(NotHolder):
            carol.renew(state.coin_y)

    def test_expired_coin_not_transferable(self, funded_trio):
        net, alice, bob, _carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        net.advance(net.renewal_period + 1)
        with pytest.raises((CoinExpired, UnknownCoin)):
            bob.transfer("carol", state.coin_y)


class TestPayPolicies:
    def test_pay_prefers_transfer(self, funded_trio):
        _net, alice, bob, carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        method = bob.pay("carol", ("transfer", "issue", "purchase_issue"))
        assert method == "transfer"

    def test_pay_falls_back_to_purchase_issue(self, funded_trio):
        _net, alice, bob, _carol = funded_trio
        method = alice.pay("bob", ("transfer", "issue", "purchase_issue"))
        assert method == "purchase_issue"
        assert alice.counts.purchases == 1 and alice.counts.issues == 1

    def test_pay_uses_broker_when_owner_offline(self, funded_trio):
        _net, alice, bob, carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        alice.depart()
        method = bob.pay("carol", ("transfer", "downtime_transfer", "issue"))
        assert method == "downtime_transfer"
        assert state.coin_y in carol.wallet

    def test_pay_exhausted_raises(self, network):
        alice = network.add_peer("alice", PeerConfig(balance=0))
        network.add_peer("bob")
        with pytest.raises(ProtocolError):
            alice.pay("bob", ("transfer", "issue"))

    def test_unknown_method_rejected(self, funded_trio):
        _net, alice, _bob, _carol = funded_trio
        with pytest.raises(ValueError):
            alice.pay("bob", ("teleport",))


class TestLazySync:
    @pytest.fixture()
    def lazy_net(self):
        from repro.core.network import WhoPayNetwork
        from repro.crypto.params import PARAMS_TEST_512

        net = WhoPayNetwork(params=PARAMS_TEST_512, sync_mode="lazy")
        alice = net.add_peer("alice", PeerConfig(balance=10))
        bob = net.add_peer("bob")
        carol = net.add_peer("carol")
        return net, alice, bob, carol

    def test_no_sync_on_rejoin(self, lazy_net):
        net, alice, _bob, _carol = lazy_net
        alice.purchase()
        alice.depart()
        alice.rejoin()
        assert alice.counts.syncs == 0
        assert net.broker.counts.syncs == 0

    def test_check_on_first_served_request(self, lazy_net):
        net, alice, bob, carol = lazy_net
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        alice.depart()
        bob.transfer_via_broker("carol", state.coin_y)
        alice.rejoin()
        carol.transfer("bob", state.coin_y)  # owner must check first
        assert alice.counts.checks == 1
        assert alice.counts.lazy_syncs == 1
        assert net.broker.counts.binding_queries == 1

    def test_check_without_changes_is_cheap(self, lazy_net):
        _net, alice, bob, carol = lazy_net
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        alice.depart()
        alice.rejoin()  # nothing happened offline
        bob.transfer("carol", state.coin_y)
        assert alice.counts.checks == 1
        assert alice.counts.lazy_syncs == 0  # nothing was stale

    def test_no_repeat_check_until_next_downtime(self, lazy_net):
        _net, alice, bob, carol = lazy_net
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        alice.depart()
        alice.rejoin()
        bob.transfer("carol", state.coin_y)
        carol.transfer("bob", state.coin_y)
        assert alice.counts.checks == 1  # second transfer needs no check


class TestHintsStrippedOnTheWire:
    def test_full_cycle_completes_on_exact_verification(self, funded_trio, monkeypatch):
        # ``gs_t`` is untrusted accelerator metadata: a transport that drops
        # it costs every verifier the exact recomputation, nothing else.
        import dataclasses

        from repro.core import protocol
        from repro.crypto import group_signature

        net, alice, bob, carol = funded_trio
        real_encode = protocol.encode_dual

        def encode_without_hints(message):
            bare = dataclasses.replace(message.group_signature, commitments=None)
            return real_encode(dataclasses.replace(message, group_signature=bare))

        def no_fold(_gpk, signatures):
            assert not signatures, "a hintless signature reached the fold"
            return True

        recomputed = []
        real_recompute = group_signature._recompute_clauses

        def recompute(gpk, signature):
            recomputed.append(signature)
            return real_recompute(gpk, signature)

        monkeypatch.setattr(protocol, "encode_dual", encode_without_hints)
        monkeypatch.setattr(group_signature, "_fold", no_fold)
        monkeypatch.setattr(group_signature, "_recompute_clauses", recompute)
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        bob.transfer("carol", state.coin_y)  # owner verifies
        carol.renew(state.coin_y)
        alice.depart()
        carol.transfer_via_broker("bob", state.coin_y)  # broker verifies
        bob.renew(state.coin_y)
        alice.rejoin()
        bob.transfer("carol", state.coin_y)
        assert carol.deposit(state.coin_y) == 1
        assert len(recomputed) >= 6  # every holder request above, peer- or broker-side


class TestPayeeVerifiesTheCertificateOnce:
    """The payee checks the offered certificate at the offer; a completion
    carrying those exact bytes is not checked again, any other bytes are
    checked exactly as before."""

    @staticmethod
    def _count_certificate_checks(monkeypatch, coin):
        from repro.messages import envelope

        checked = []
        real = envelope.dsa_verify

        def counting(signer, message, signature):
            if message == coin.cert.payload_bytes:
                checked.append(signer.y)
            return real(signer, message, signature)

        monkeypatch.setattr(envelope, "dsa_verify", counting)
        return checked

    def test_one_certificate_verification_per_payment(self, funded_trio, monkeypatch):
        _net, alice, bob, carol = funded_trio
        state = alice.purchase()
        checked = self._count_certificate_checks(monkeypatch, state.coin)
        alice.issue("bob", state.coin_y)
        assert len(checked) == 1
        bob.transfer("carol", state.coin_y)
        assert len(checked) == 2
        alice.depart()
        carol.transfer_via_broker("bob", state.coin_y)
        assert len(checked) == 3 and state.coin_y in bob.wallet

    @pytest.mark.parametrize("swap", ("another-valid-coin", "re-signed", "corrupted"))
    def test_a_completion_with_other_bytes_is_still_verified_and_refused(
        self, funded_trio, monkeypatch, swap
    ):
        from repro.messages.codec import decode, encode
        from repro.messages.envelope import seal

        _net, alice, bob, _carol = funded_trio
        state = alice.purchase()
        if swap == "another-valid-coin":
            other = alice.purchase().coin.encode()
        elif swap == "re-signed":  # the same certificate body, sealed by the payer
            other = seal(alice.identity, state.coin.payload).encode()
        else:
            fields = decode(state.coin.encode())
            other = encode(dict(fields, sig_s=fields["sig_s"] ^ 1))
        assert other != state.coin.encode()
        real = alice._completion_payload
        monkeypatch.setattr(
            alice, "_completion_payload", lambda *args: dict(real(*args), coin=other)
        )
        with pytest.raises(ProtocolError, match="coin does not match the offer"):
            alice.issue("bob", state.coin_y)
        assert state.coin_y not in bob.wallet


class TestPendingOffersAreBounded:
    """An offer that is never completed used to stay for the life of the
    payee (a key pair and a certificate each).  Past ``MAX_PENDING_OFFERS``
    the oldest gives way; the payer it belonged to sees what it would see
    for any unknown nonce, and offers younger than the bound are untouched."""

    def test_ten_times_the_bound_then_the_newest_offer_completes(self, funded_trio):
        from repro.core.peer import MAX_PENDING_OFFERS

        _net, alice, bob, carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        coin_bytes = state.coin.encode()
        nonces = [
            carol._handle_payment_offer("mallory", coin_bytes)["nonce"]
            for _ in range(10 * MAX_PENDING_OFFERS)
        ]
        assert len(carol._pending) == MAX_PENDING_OFFERS
        assert list(carol._pending) == nonces[-MAX_PENDING_OFFERS:]  # oldest first out
        refused = carol._handle_payment_complete("mallory", {"nonce": nonces[0]})
        assert refused == {"ok": False, "reason": "no pending offer for this nonce"}
        # The newest offer — a real payment arriving behind the flood — completes.
        bob.transfer("carol", state.coin_y)
        assert state.coin_y in carol.wallet
        assert len(carol._pending) == MAX_PENDING_OFFERS - 1  # it pushed one more out, then left


class TestPublicOperationsStayOnPeer:
    def test_the_traced_operations_are_defined_in_peers_own_class_body(self):
        # The benchmark's tracer (benchmarks/e2e/layers.py) patches these
        # eight through ``Peer.__dict__`` to open one ``core.peer_api.*``
        # root span per operation; moved to a mixin or generated at import
        # they would vanish from it and the per-layer metrics with them.
        from repro.core.peer import Peer

        traced = ("purchase", "issue", "transfer", "transfer_via_broker", "renew",
                  "rejoin", "sync_with_broker", "deposit")
        assert all(name in Peer.__dict__ for name in traced)


class TestOneRosterLookup:
    def test_two_holder_requests_sign_against_the_same_key_object(self, funded_trio, monkeypatch):
        # The roster encoding is memoised on the GroupPublicKey: a peer that
        # got a fresh object per request re-encoded the roster per signature.
        from repro.core import peer as peer_module

        _net, alice, bob, carol = funded_trio
        seen = []
        real_seal = peer_module.group_seal

        def recording_seal(keypair, member, gpk, payload):
            seen.append(gpk)
            return real_seal(keypair, member, gpk, payload)

        monkeypatch.setattr(peer_module, "group_seal", recording_seal)
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        bob.renew(state.coin_y)
        bob.transfer("carol", state.coin_y)
        assert len(seen) == 2 and seen[0] is seen[1]
        assert seen[0]._encode_memo is not None
