"""Member expulsion tests (detect-and-remove, Section 5.1's closing note)."""

import pytest

from repro.core.errors import VerificationFailed
from repro.crypto.group_signature import GroupSignatureError, group_sign, group_verify


class TestRosterExpulsion:
    def test_expelled_member_leaves_current_roster(self, funded_trio):
        net, alice, bob, _carol = funded_trio
        assert net.judge.member_count() == 3
        version = net.judge.expel("bob")
        assert net.judge.member_count() == 2
        assert net.judge.is_expelled("bob")
        assert net.judge.minimum_accepted_version == version

    def test_expelled_member_cannot_sign_current_snapshot(self, funded_trio):
        net, alice, bob, _carol = funded_trio
        net.judge.expel("bob")
        gpk = net.judge.group_public_key()
        with pytest.raises(GroupSignatureError):
            group_sign(gpk, bob.member_key, b"m")

    def test_expelling_unknown_member_fails(self, funded_trio):
        net, _alice, _bob, _carol = funded_trio
        with pytest.raises(GroupSignatureError):
            net.judge.expel("nobody")
        net.judge.expel("bob")
        with pytest.raises(GroupSignatureError):
            net.judge.expel("bob")  # already out

    def test_survivors_still_operate(self, funded_trio):
        net, alice, bob, carol = funded_trio
        state = alice.purchase()
        alice.issue("carol", state.coin_y)
        net.judge.expel("bob")
        # Carol's wallet and alice's serving work fine post-expulsion.
        carol.transfer("alice", state.coin_y)
        assert state.coin_y in alice.wallet
        assert alice.deposit(state.coin_y, payout_to="alice") == 1


class TestRevocationFloor:
    def test_pre_expulsion_snapshot_replay_refused(self, funded_trio):
        # The attack the floor exists for: bob signs with the OLD roster
        # (which still contains him) after being expelled.
        net, alice, bob, _carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        old_gpk = net.judge.group_public_key()  # bob still in this snapshot
        net.judge.expel("bob")
        held = bob.wallet[state.coin_y]
        from repro.core import protocol
        from repro.messages.envelope import group_seal

        operation = protocol.HolderOperation(
            op="deposit",
            coin_cert=held.coin.encode(),
            proof_binding=held.binding.signed.encode(),
            proof_via_broker=held.binding.via_broker,
            payout_to="bob",
        )
        envelope = group_seal(
            held.holder_keypair, bob.member_key, old_gpk, operation.to_payload()
        )
        # The signature itself verifies against the old snapshot…
        assert group_verify(old_gpk, envelope.inner.encode(), envelope.group_signature)
        # …but the broker refuses it by version.
        with pytest.raises(VerificationFailed, match="revoked snapshot"):
            bob.request(net.broker.address, protocol.DEPOSIT, protocol.encode_dual(envelope))

    def test_peers_refuse_stale_snapshots_too(self, funded_trio):
        net, alice, bob, carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        old_gpk = net.judge.group_public_key()
        net.judge.expel("bob")
        held = bob.wallet[state.coin_y]
        from repro.core import protocol
        from repro.core.errors import NotHolder, VerificationFailed as VF
        from repro.crypto.keys import KeyPair
        from repro.messages.envelope import group_seal

        payee_key = KeyPair.generate(net.params)
        operation = protocol.HolderOperation(
            op="transfer",
            coin_cert=held.coin.encode(),
            proof_binding=held.binding.signed.encode(),
            proof_via_broker=held.binding.via_broker,
            new_holder_y=payee_key.public.y,
            nonce=b"n" * 16,
        )
        envelope = group_seal(held.holder_keypair, bob.member_key, old_gpk, operation.to_payload())
        with pytest.raises(VF):
            bob.request(
                alice.address,
                protocol.TRANSFER_REQUEST,
                {"envelope": protocol.encode_dual(envelope), "payee": "carol", "nonce": b"n" * 16},
            )

    def test_later_registrations_do_not_shadow_an_accepted_snapshot(self, funded_trio):
        # Three registrations (v3), an expulsion (v4), two more registrations:
        # v6 has a roster of FOUR.  A peer that filed its current key under
        # the roster length put v6 where v4 lives and then refused an honest
        # envelope signed at the still-accepted v4.
        net, alice, bob, carol = funded_trio
        first, second = alice.purchase(), alice.purchase()
        alice.issue("carol", first.coin_y)
        alice.issue("carol", second.coin_y)
        assert net.judge.expel("bob") == 4
        in_flight_gpk = net.judge.group_public_key()
        held = carol.wallet[first.coin_y]
        from repro.core import protocol
        from repro.core.errors import ProtocolError
        from repro.crypto.keys import KeyPair
        from repro.messages.envelope import group_seal

        payee_key = KeyPair.generate(net.params)
        operation = protocol.HolderOperation(
            op="transfer",
            coin_cert=held.coin.encode(),
            proof_binding=held.binding.signed.encode(),
            proof_via_broker=held.binding.via_broker,
            new_holder_y=payee_key.public.y,
            nonce=b"n" * 16,
        )
        envelope = group_seal(
            held.holder_keypair, carol.member_key, in_flight_gpk, operation.to_payload()
        )
        net.add_peer("dave")
        net.add_peer("erin")
        assert net.judge.group_public_key().version == 6
        assert net.judge.minimum_accepted_version == 4
        # Alice signs as a holder at v6 — the call that cached by length.
        carol.transfer("alice", second.coin_y)
        alice.deposit(second.coin_y, payout_to="alice")
        # The envelope verifies: the request gets as far as the payee, who
        # was never offered this hand-made transfer.
        with pytest.raises(ProtocolError, match="payee rejected the transfer"):
            carol.request(
                alice.address,
                protocol.TRANSFER_REQUEST,
                {"envelope": protocol.encode_dual(envelope), "payee": "dave", "nonce": b"n" * 16},
            )

    def test_historical_evidence_still_opens(self, funded_trio):
        # Expulsion must not destroy the judge's ability to open the
        # culprit's past signatures (the evidence trail).
        net, alice, bob, carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        captured = {}
        original = net.transport.request

        def tap(src, dst, kind, payload):
            if kind == "whopay.transfer_request":
                captured["envelope"] = payload["envelope"]
            return original(src, dst, kind, payload)

        net.transport.request = tap
        bob.transfer("carol", state.coin_y)
        net.judge.expel("bob")
        from repro.core import protocol

        envelope = protocol.decode_dual(captured["envelope"], net.params)
        assert net.judge.open(envelope.group_signature) == "bob"


class TestFullStoryWithAdjudication:
    def test_detect_convict_expel(self, funded_trio):
        """The complete justice pipeline: fraud -> verdict -> expulsion."""
        import copy

        from repro.core.audit import adjudicate_double_deposit
        from repro.core.errors import DoubleSpendDetected

        net, alice, bob, carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        stale = copy.deepcopy(bob.wallet[state.coin_y])
        bob.transfer("carol", state.coin_y)
        bob.wallet[state.coin_y] = stale
        bob.deposit(state.coin_y)
        with pytest.raises(DoubleSpendDetected):
            carol.deposit(state.coin_y)
        verdict = adjudicate_double_deposit(
            net.broker.fraud_events[-1],
            alice.owned[state.coin_y].relinquishments,
            net.params,
            net.judge,
        )
        assert verdict.culprit == "bob"
        net.judge.expel(verdict.culprit)
        assert net.judge.is_expelled("bob")
        # Bob can still RECEIVE (payee-side needs no group signature)…
        s2 = alice.purchase()
        alice.issue("bob", s2.coin_y)
        assert s2.coin_y in bob.wallet
        # …but every holder operation — spend, deposit — is now impossible:
        # he cannot produce a group signature against any accepted snapshot.
        with pytest.raises(GroupSignatureError):
            bob.transfer("carol", s2.coin_y)
        with pytest.raises(GroupSignatureError):
            bob.deposit(s2.coin_y)