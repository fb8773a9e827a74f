"""Coin value top-up tests (Section 2: only the broker increases value)."""

import pytest

from repro.core import PeerConfig, protocol
from repro.core.coin import Coin
from repro.core.errors import InsufficientFunds, NotHolder, ProtocolError, VerificationFailed
from repro.messages.envelope import seal


class TestTopUp:
    def test_top_up_increases_value(self, funded_trio):
        net, alice, bob, _carol = funded_trio
        state = alice.purchase(value=1)
        alice.issue("bob", state.coin_y)
        new_value = bob.top_up(state.coin_y, delta=3, funding_account="bob")
        assert new_value == 4
        assert net.broker.balance("bob") == 7  # 10 - 3
        assert net.shards[0].valid_coins[state.coin_y].value == 4

    def test_topped_up_coin_deposits_at_new_value(self, funded_trio):
        net, alice, bob, _carol = funded_trio
        state = alice.purchase(value=1)
        alice.issue("bob", state.coin_y)
        bob.top_up(state.coin_y, delta=2, funding_account="bob")
        assert bob.deposit(state.coin_y, payout_to="bob") == 3

    def test_old_certificate_still_redeems_full_value(self, funded_trio):
        # A holder presenting a pre-top-up cert must not lose the delta: the
        # broker's registry, not the certificate, is authoritative for value.
        net, alice, bob, _carol = funded_trio
        state = alice.purchase(value=1)
        alice.issue("bob", state.coin_y)
        bob.top_up(state.coin_y, delta=5, funding_account="bob")
        bob.wallet[state.coin_y].coin = state.coin  # the owner's pre-top-up cert
        assert bob.deposit(state.coin_y, payout_to="bob") == 6

    def test_a_transfer_hands_the_payee_the_topped_up_certificate(self, funded_trio):
        # The owner serving the transfer adopts the holder's re-minted
        # certificate, so the payee can check and top up the value it holds.
        net, alice, bob, _carol = funded_trio
        dave = net.add_peer("dave", PeerConfig(balance=10))
        state = alice.purchase(value=1)
        alice.issue("bob", state.coin_y)
        bob.top_up(state.coin_y, delta=2, funding_account="bob")
        bob.transfer("dave", state.coin_y)
        assert alice.owned[state.coin_y].coin.value == 3
        assert dave.wallet[state.coin_y].coin.value == 3
        assert dave.top_up(state.coin_y, delta=3, funding_account="dave") == 6
        assert dave.deposit(state.coin_y, payout_to="dave") == 6

    def test_the_owner_adopts_no_certificate_the_broker_did_not_sign(self, funded_trio):
        _net, alice, bob, _carol = funded_trio
        state = alice.purchase(value=2)
        alice.issue("bob", state.coin_y)
        forged = Coin(cert=seal(bob.identity, dict(state.coin.payload, value=9)))
        bob.wallet[state.coin_y].coin = forged
        bob.renew(state.coin_y)
        assert alice.owned[state.coin_y].coin == state.coin

    def test_only_holder_can_top_up(self, funded_trio):
        net, alice, bob, carol = funded_trio
        state = alice.purchase(value=1)
        alice.issue("bob", state.coin_y)
        with pytest.raises(NotHolder):
            carol.top_up(state.coin_y, delta=1, funding_account="carol")

    def test_funding_needs_balance(self, funded_trio):
        net, alice, bob, carol = funded_trio
        state = alice.purchase(value=1)
        alice.issue("carol", state.coin_y)  # carol has a 0-balance account
        with pytest.raises(InsufficientFunds):
            carol.top_up(state.coin_y, delta=1, funding_account="carol")
        assert net.shards[0].valid_coins[state.coin_y].value == 1

    def test_funding_auth_must_match_account_identity(self, funded_trio):
        net, alice, bob, _carol = funded_trio
        state = alice.purchase(value=1)
        alice.issue("bob", state.coin_y)
        held = bob.wallet[state.coin_y]
        # Bob tries to debit ALICE's account with his own signature.
        auth = seal(
            bob.identity,
            {"kind": "whopay.debit_auth", "account": "alice", "amount": 1, "coin_y": state.coin_y},
        )
        envelope = bob._holder_envelope(held, "top_up", delta=1, funding_auth=auth.encode())
        with pytest.raises(VerificationFailed):
            bob.request(net.shards[0].address, protocol.TOP_UP, protocol.encode_dual(envelope))
        assert net.broker.balance("alice") == 24  # untouched (25 - 1 purchase)

    def test_auth_bound_to_coin_and_amount(self, funded_trio):
        net, alice, bob, _carol = funded_trio
        s1 = alice.purchase(value=1)
        s2 = alice.purchase(value=1)
        alice.issue("bob", s1.coin_y)
        alice.issue("bob", s2.coin_y)
        held = bob.wallet[s1.coin_y]
        # Authorization for coin s2 replayed against coin s1: rejected.
        auth = seal(
            bob.identity,
            {"kind": "whopay.debit_auth", "account": "bob", "amount": 1, "coin_y": s2.coin_y},
        )
        envelope = bob._holder_envelope(held, "top_up", delta=1, funding_auth=auth.encode())
        with pytest.raises(ProtocolError):
            bob.request(net.shards[0].address, protocol.TOP_UP, protocol.encode_dual(envelope))

    def test_nonpositive_delta_rejected(self, funded_trio):
        _net, alice, bob, _carol = funded_trio
        state = alice.purchase(value=1)
        alice.issue("bob", state.coin_y)
        with pytest.raises(ValueError):
            bob.top_up(state.coin_y, delta=0)
