"""Adversarial tests: forgery, replay, impersonation attempts must fail.

These encode the paper's security claims (Section 4.3): "nobody other than
the broker can create coins and nobody is able to pose as somebody else, for
example, to spend coins he does not hold or handle transfer of coins he does
not own."
"""

import copy

import pytest

from repro.core import protocol
from repro.core.coin import Coin, CoinBinding
from repro.core.errors import NotHolder, NotOwner, ProtocolError, UnknownCoin, VerificationFailed
from repro.crypto.keys import KeyPair
from repro.messages.envelope import group_seal, seal


class TestCoinForgery:
    def test_self_minted_coin_rejected_by_payee(self, funded_trio):
        net, alice, bob, _carol = funded_trio
        fake_broker = KeyPair.generate(net.params)
        coin_keypair = KeyPair.generate(net.params)
        fake_coin = Coin.build(fake_broker, coin_keypair.public.y, 100, "alice", alice.identity.public.y)
        with pytest.raises(VerificationFailed):
            bob.request(alice.address, protocol.ISSUE_OFFER, fake_coin.encode())

    def test_self_minted_coin_rejected_at_deposit(self, funded_trio):
        net, alice, _bob, _carol = funded_trio
        # Alice forges a coin signed by herself and tries to deposit it.
        coin_keypair = KeyPair.generate(net.params)
        fake_coin = Coin.build(alice.identity, coin_keypair.public.y, 100, "alice", alice.identity.public.y)
        binding = CoinBinding.build(coin_keypair, coin_keypair.public.y, coin_keypair.public.y, 1, 10_000)
        operation = protocol.HolderOperation(
            op="deposit",
            coin_cert=fake_coin.encode(),
            proof_binding=binding.signed.encode(),
            proof_via_broker=False,
            payout_to="alice",
        )
        envelope = group_seal(coin_keypair, alice.member_key, net.judge.group_public_key(), operation.to_payload())
        with pytest.raises(VerificationFailed):
            alice.request(net.broker.address, protocol.DEPOSIT, protocol.encode_dual(envelope))

    def test_unknown_coin_rejected(self, funded_trio):
        net, alice, _bob, _carol = funded_trio
        state = alice.purchase()
        # Broker "forgets" the coin (e.g. a different broker instance).
        del net.broker.valid_coins[state.coin_y]
        binding = CoinBinding.build(state.coin_keypair, state.coin_y, state.coin_keypair.public.y, 1, 10_000)
        operation = protocol.HolderOperation(
            op="deposit",
            coin_cert=state.coin.encode(),
            proof_binding=binding.signed.encode(),
            proof_via_broker=False,
            payout_to="x",
        )
        envelope = group_seal(
            state.coin_keypair, alice.member_key, net.judge.group_public_key(), operation.to_payload()
        )
        with pytest.raises(UnknownCoin):
            alice.request(net.broker.address, protocol.DEPOSIT, protocol.encode_dual(envelope))


class TestImpersonation:
    def test_nonholder_cannot_deposit(self, funded_trio):
        net, alice, bob, carol = funded_trio
        state = alice.purchase(value=5)
        alice.issue("bob", state.coin_y)
        held = bob.wallet[state.coin_y]
        # Carol steals the public half of bob's holding (coin + binding) but
        # not the holder secret, and signs with her own key pair.
        thief_keypair = KeyPair.generate(net.params)
        operation = protocol.HolderOperation(
            op="deposit",
            coin_cert=held.coin.encode(),
            proof_binding=held.binding.signed.encode(),
            proof_via_broker=False,
            payout_to="carol",
        )
        envelope = group_seal(
            thief_keypair, carol.member_key, net.judge.group_public_key(), operation.to_payload()
        )
        with pytest.raises(NotHolder):
            carol.request(net.broker.address, protocol.DEPOSIT, protocol.encode_dual(envelope))
        assert net.broker.balance("carol") == 0

    def test_nonowner_cannot_serve_transfers(self, funded_trio):
        net, alice, bob, carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        held = bob.wallet[state.coin_y]
        # Bob sends a well-formed transfer request to CAROL, who does not
        # own the coin; she must refuse rather than mint a binding.
        payee_keypair = KeyPair.generate(net.params)
        operation = protocol.HolderOperation(
            op="transfer",
            coin_cert=held.coin.encode(),
            proof_binding=held.binding.signed.encode(),
            proof_via_broker=False,
            new_holder_y=payee_keypair.public.y,
            nonce=b"n" * 16,
        )
        envelope = group_seal(
            held.holder_keypair, bob.member_key, net.judge.group_public_key(), operation.to_payload()
        )
        with pytest.raises(NotOwner):
            bob.request(
                carol.address,
                protocol.TRANSFER_REQUEST,
                {"envelope": protocol.encode_dual(envelope), "payee": "alice", "nonce": b"n" * 16},
            )

    def test_payee_rejects_wrong_ownership_proof(self, funded_trio):
        net, alice, bob, _carol = funded_trio
        state = alice.purchase()
        # Mallory (= bob here) intercepts and replays an issue completion
        # with a proof produced by the wrong identity.
        offer = alice.request(bob.address, protocol.ISSUE_OFFER, state.coin.encode())
        binding = CoinBinding.build(
            state.coin_keypair, state.coin_y, offer["holder_y"], 1, net.clock.now() + 1000
        )
        from repro.crypto.schnorr import schnorr_prove

        wrong_prover = KeyPair.generate(net.params)
        proof = schnorr_prove(wrong_prover, b"whopay-owner-proof|" + offer["nonce"] + b"|" + binding.encode())
        result = alice.request(
            bob.address,
            protocol.ISSUE_COMPLETE,
            {
                "coin": state.coin.encode(),
                "binding": binding.encode(),
                "binding_dual": None,
                "via_broker": False,
                "proof_t": proof.commitment,
                "proof_z": proof.response,
                "nonce": offer["nonce"],
            },
        )
        assert not result["ok"] and "proof" in result["reason"]


class TestReplay:
    def test_completion_replay_rejected(self, funded_trio):
        net, alice, bob, _carol = funded_trio
        state = alice.purchase()
        captured = {}
        original = bob._handlers[protocol.ISSUE_COMPLETE]

        def spy(src, payload):
            captured.update(payload)
            return original(src, payload)

        bob._handlers[protocol.ISSUE_COMPLETE] = spy
        alice.issue("bob", state.coin_y)
        # Replaying the captured completion must fail: the nonce was consumed.
        result = alice.request(bob.address, protocol.ISSUE_COMPLETE, dict(captured))
        assert not result["ok"]

    def test_stale_binding_replay_to_broker_rejected(self, funded_trio):
        net, alice, bob, carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        stale_held = copy.deepcopy(bob.wallet[state.coin_y])
        bob.transfer("carol", state.coin_y)
        alice.depart()
        carol.renew(state.coin_y)  # broker now has newer state (downtime renewal)
        bob.wallet[state.coin_y] = stale_held
        with pytest.raises((NotHolder, VerificationFailed)):
            bob.transfer_via_broker("carol", state.coin_y)

    def test_renewal_request_cannot_be_replayed_for_double_bump(self, funded_trio):
        net, alice, bob, _carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        held = bob.wallet[state.coin_y]
        envelope = bob._holder_envelope(held, "renewal")
        data = protocol.encode_dual(envelope)
        first = bob.request(alice.address, protocol.RENEW_REQUEST, data)
        assert first is not None
        # The owner's binding moved past the proof in the replayed request.
        with pytest.raises(NotHolder):
            bob.request(alice.address, protocol.RENEW_REQUEST, data)


class TestTamperedBindings:
    def test_payee_rejects_binding_for_other_holder(self, funded_trio):
        net, alice, bob, _carol = funded_trio
        state = alice.purchase()
        offer = alice.request(bob.address, protocol.ISSUE_OFFER, state.coin.encode())
        mallory_keypair = KeyPair.generate(net.params)
        binding = CoinBinding.build(
            state.coin_keypair, state.coin_y, mallory_keypair.public.y, 1, net.clock.now() + 1000
        )
        from repro.crypto.schnorr import schnorr_prove

        proof = schnorr_prove(
            alice.identity, b"whopay-owner-proof|" + offer["nonce"] + b"|" + binding.encode()
        )
        result = alice.request(
            bob.address,
            protocol.ISSUE_COMPLETE,
            {
                "coin": state.coin.encode(),
                "binding": binding.encode(),
                "binding_dual": None,
                "via_broker": False,
                "proof_t": proof.commitment,
                "proof_z": proof.response,
                "nonce": offer["nonce"],
            },
        )
        assert not result["ok"] and "holder" in result["reason"]

    def test_payee_rejects_expired_binding(self, funded_trio):
        net, alice, bob, _carol = funded_trio
        state = alice.purchase()
        offer = alice.request(bob.address, protocol.ISSUE_OFFER, state.coin.encode())
        binding = CoinBinding.build(
            state.coin_keypair, state.coin_y, offer["holder_y"], 1, exp_date=0.0
        )
        net.advance(1)
        from repro.crypto.schnorr import schnorr_prove

        proof = schnorr_prove(
            alice.identity, b"whopay-owner-proof|" + offer["nonce"] + b"|" + binding.encode()
        )
        result = alice.request(
            bob.address,
            protocol.ISSUE_COMPLETE,
            {
                "coin": state.coin.encode(),
                "binding": binding.encode(),
                "binding_dual": None,
                "via_broker": False,
                "proof_t": proof.commitment,
                "proof_z": proof.response,
                "nonce": offer["nonce"],
            },
        )
        assert not result["ok"] and "expired" in result["reason"]


class TestReissuedBindingAcceptance:
    """Route x tamper matrix for the one check a holder runs on a re-issued
    binding (``Peer._holder_exchange``): signed by the key the route
    dictates, for this coin, naming the expected holder key, ``seq`` strictly
    above the held one.  A refused reply changes nothing on the holder."""

    TAMPERS = (
        "none", "wrong_key", "other_holder", "seq_equal", "seq_below", "other_coin", "other_flavour"
    )

    @pytest.mark.parametrize("tamper", TAMPERS)
    @pytest.mark.parametrize("route", ("owner", "handle", "broker"))
    @pytest.mark.parametrize("op", ("transfer", "renewal"))
    def test_tampered_reply_is_refused_and_changes_nothing(self, tmp_path, op, route, tamper):
        from repro.core.network import PeerConfig, WhoPayNetwork
        from repro.crypto.params import PARAMS_TEST_512
        from repro.indirection.i3 import I3Overlay
        from repro.store.journal import DurableStore
        from tests.core.test_anonymous_owner import add_anonymous_peer

        net = WhoPayNetwork(params=PARAMS_TEST_512)
        if route == "handle":
            i3 = I3Overlay(net.transport, size=2)
            alice, bob, _carol = (
                add_anonymous_peer(net, i3, name, balance=9) for name in ("alice", "bob", "carol")
            )
            state, other = alice.purchase_anonymous(), alice.purchase_anonymous()
        else:
            alice = net.add_peer("alice", PeerConfig(balance=9))
            bob, _carol = net.add_peer("bob"), net.add_peer("carol")
            state, other = alice.purchase(), alice.purchase()
        bob.bind_store(DurableStore(tmp_path / "bob"))
        alice.issue("bob", state.coin_y)
        held = bob.wallet[state.coin_y]
        via_broker = route == "broker"

        def respond(src, payload):
            """What the route's honest server would sign, then one field off."""
            data = payload["envelope"] if isinstance(payload, dict) else payload
            asked = protocol.decode_dual(data, net.params).payload
            fields = {
                "signer": net.broker.keypair if via_broker else state.coin_keypair,
                "coin_y": state.coin_y,
                "holder_y": asked["new_holder_y"] or held.holder_keypair.public.y,
                "seq": held.binding.seq + 1,
            }
            if tamper == "wrong_key":
                fields["signer"] = KeyPair.generate(net.params)
            elif tamper == "other_holder":
                fields["holder_y"] = KeyPair.generate(net.params).public.y
            elif tamper == "seq_equal":
                fields["seq"] = held.binding.seq
            elif tamper == "seq_below":
                fields["seq"] = held.binding.seq - 1
            elif tamper == "other_coin":
                fields["coin_y"] = other.coin_y
            elif tamper == "other_flavour":
                fields["signer"] = state.coin_keypair if via_broker else net.broker.keypair
            raw = CoinBinding.build(exp_date=net.clock.now() + 1000, **fields).encode()
            return {"binding": raw} if isinstance(payload, dict) else raw

        row = protocol.HOLDER_OPS[op]
        server = net.broker if via_broker else alice
        server._handlers[row.broker_kind if via_broker else row.owner_kind] = respond
        if via_broker:
            alice.depart()
        if op == "renewal":
            call, args = bob.renew, (state.coin_y,)
        else:
            call, args = (bob.transfer_via_broker if via_broker else bob.transfer), ("carol", state.coin_y)
        before = (held.coin, held.binding, bob.store.next_lsn, copy.copy(bob.counts))
        if tamper == "none":  # control: the untampered reply is accepted
            assert call(*args).seq == before[1].seq + 1
            assert (state.coin_y in bob.wallet) == (op == "renewal")
            return
        with pytest.raises(VerificationFailed):
            call(*args)
        assert bob.wallet[state.coin_y] is held
        assert (held.coin, held.binding, bob.store.next_lsn, bob.counts) == before
        assert bob._expected_rebinds == set()
