"""Fraud adjudication tests (detect-and-punish, Sections 2 & 4.3)."""

import copy
from dataclasses import replace

import pytest

from repro.core import protocol
from repro.core.audit import Verdict, adjudicate_double_deposit, verify_relinquishment
from repro.core.errors import DoubleSpendDetected, FraudDetected


@pytest.fixture()
def double_spend_case(funded_trio):
    """Bob transfers to carol, keeps a stale proof, deposits anyway."""
    net, alice, bob, carol = funded_trio
    state = alice.purchase()
    alice.issue("bob", state.coin_y)
    stale = copy.deepcopy(bob.wallet[state.coin_y])
    bob.transfer("carol", state.coin_y)
    bob.wallet[state.coin_y] = stale
    bob.deposit(state.coin_y)  # accepted: the stale binding verifies
    with pytest.raises(DoubleSpendDetected):
        carol.deposit(state.coin_y)  # honest holder collides
    return net, alice, bob, carol, state, net.broker.fraud_events[-1]


class TestHolderFraud:
    def test_culprit_is_the_stale_depositor(self, double_spend_case):
        net, alice, _bob, _carol, state, event = double_spend_case
        verdict = adjudicate_double_deposit(
            event, alice.owned[state.coin_y].relinquishments, net.params, net.judge
        )
        assert verdict.role == "holder"
        assert verdict.culprit == "bob"
        assert verdict.opened_identities == ("bob",)

    def test_judge_opened_only_the_culprit(self, double_spend_case):
        net, alice, _bob, _carol, state, event = double_spend_case
        before = net.judge.openings_performed
        adjudicate_double_deposit(
            event, alice.owned[state.coin_y].relinquishments, net.params, net.judge
        )
        # Fairness: exactly one opening — nothing about other parties leaks.
        assert net.judge.openings_performed == before + 1


class TestOwnerFraud:
    def test_double_issue_blames_owner(self, funded_trio):
        net, alice, bob, carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        # Alice forges a second live binding for carol without any
        # relinquishment: a double issue.  Simulate carol receiving it by
        # handing her a fresh owner-signed binding out of band.
        from repro.core.coin import CoinBinding, HeldCoin
        from repro.crypto.keys import KeyPair

        carol_keypair = KeyPair.generate(net.params)
        forged = CoinBinding.build(
            state.coin_keypair,
            coin_y=state.coin_y,
            holder_y=carol_keypair.public.y,
            seq=alice.owned[state.coin_y].binding.seq + 1,
            exp_date=net.clock.now() + 10_000,
        )
        carol.wallet[state.coin_y] = HeldCoin(
            coin=state.coin, holder_keypair=carol_keypair, binding=forged
        )
        bob.deposit(state.coin_y)
        with pytest.raises(DoubleSpendDetected):
            carol.deposit(state.coin_y)
        event = net.broker.fraud_events[-1]
        verdict = adjudicate_double_deposit(
            event, alice.owned[state.coin_y].relinquishments, net.params, net.judge
        )
        assert verdict.role == "owner"
        assert verdict.culprit is None  # owner identity is in the coin itself


class TestRelinquishmentVerification:
    def test_valid_relinquishment(self, funded_trio):
        net, alice, bob, carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        bob_holder_y = bob.wallet[state.coin_y].holder_keypair.public.y
        bob.transfer("carol", state.coin_y)
        trail = alice.owned[state.coin_y].relinquishments
        assert len(trail) == 1
        checked = verify_relinquishment(trail[0], net.params, net.judge, state.coin_y)
        assert checked is not None
        holder_y, _seq = checked
        assert holder_y == bob_holder_y

    def test_adjudication_draws_no_randomness(self, funded_trio, monkeypatch):
        # Same bytes, same verdict: the judge never runs the randomized fold
        # that peers and the broker use on the very same envelope.
        import secrets

        net, alice, bob, carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        bob.transfer("carol", state.coin_y)
        (entry,) = alice.owned[state.coin_y].relinquishments

        def no_randomness(*_args):
            raise AssertionError("adjudication drew randomness")

        monkeypatch.setattr(secrets, "randbits", no_randomness)
        monkeypatch.setattr(secrets, "randbelow", no_randomness)
        assert verify_relinquishment(entry, net.params, net.judge, state.coin_y) is not None
        # Swapped responses leave the hint bound (the hash does not cover
        # them): refusing this is the clause arithmetic's job.
        envelope = protocol.decode_dual(entry, net.params)
        signature = envelope.group_signature
        forged = replace(
            signature, responses_r=signature.responses_x, responses_x=signature.responses_r
        )
        tampered = protocol.encode_dual(replace(envelope, group_signature=forged))
        assert verify_relinquishment(tampered, net.params, net.judge, state.coin_y) is None

    def test_garbage_entry_rejected(self, funded_trio):
        net, _alice, _bob, _carol = funded_trio
        assert verify_relinquishment(b"garbage", net.params, net.judge, 123) is None

    def test_wrong_coin_rejected(self, funded_trio):
        net, alice, bob, carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        bob.transfer("carol", state.coin_y)
        trail = alice.owned[state.coin_y].relinquishments
        assert verify_relinquishment(trail[0], net.params, net.judge, coin_y=999) is None


class TestVerdictEdgeCases:
    def test_incomplete_evidence(self, funded_trio):
        net, _alice, _bob, _carol = funded_trio
        event = FraudDetected("x", evidence={})
        verdict = adjudicate_double_deposit(event, [], net.params, net.judge)
        assert verdict.role == "unknown"

    def test_verdict_is_immutable_record(self):
        verdict = Verdict(culprit="x", role="holder", reason="r", opened_identities=("x",))
        with pytest.raises(Exception):
            verdict.culprit = "y"  # frozen dataclass
