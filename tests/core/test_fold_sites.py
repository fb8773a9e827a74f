"""The sites that decide on several signatures fold them once, and a failed
fold defers to the exact verifiers.

The trigger of the first three classes is a ``sig_c`` hint rewritten in
transit to ``sig_c + q``: it keeps its residue mod ``q``, so the signature
joins a fold and breaks it, yet the signature verifies on its own.  A fold
that fails is a bad hint until an exact verifier says it is a forgery —
at the buyer, at a syncing owner, and at the broker, pooled or not.
"""

import copy
import dataclasses

import pytest

from repro.core import PeerConfig, protocol
from repro.core.audit import verify_relinquishment
from repro.core.errors import DoubleSpendDetected, VerificationFailed
from repro.crypto import primitives
from repro.crypto.dsa import dsa_batch_verify, dsa_digest
from repro.crypto.group_signature import group_verify
from repro.crypto.params import PARAMS_TEST_512
from repro.messages.envelope import group_countersign
from repro.pipeline import JOB_HOLDER, LoadGenerator, ThroughputEngine, VerificationPool
from repro.pipeline.loadgen import WorkloadMix
from repro.store.groupcommit import GroupCommitter

TRANSFERS_ONLY = WorkloadMix(transfer=1.0, renewal=0.0, purchase=0.0)


def _shifted(raw: bytes, params) -> bytes:
    """Signed-envelope bytes whose ``sig_c`` hint moved by ``q``: same residue, not ``g**k``."""
    signed = protocol.decode_signed(raw, params)
    signature = dataclasses.replace(signed.signature, commit=signed.signature.commit + params.q)
    return dataclasses.replace(signed, signature=signature).encode()


def _reinner(envelope, member, gpk, **signature_fields):
    """``envelope`` with its inner DSA signature changed, honestly countersigned again."""
    inner = envelope.inner
    inner = dataclasses.replace(inner, signature=dataclasses.replace(inner.signature, **signature_fields))
    return group_countersign(inner, member, gpk)


class TestCorruptedHintInTransit:
    def test_a_batch_purchase_keeps_every_coin_it_paid_for(self, network, monkeypatch):
        alice = network.add_peer("alice", PeerConfig(balance=10))
        bob = network.add_peer("bob")
        real = alice.broker_client.purchase
        monkeypatch.setattr(
            alice.broker_client, "purchase",
            lambda request, *, account: [_shifted(raw, network.params) for raw in real(request, account=account)],
        )
        states = alice.purchase_batch(count=4, value=2)
        assert sorted(alice.owned) == sorted(state.coin_y for state in states)
        assert set(alice.owned) <= set(network.shards[0].valid_coins)
        assert network.broker.balance("alice") + sum(s.coin.value for s in alice.owned.values()) == 10
        # The kept certificate rides inside the holder's request to the broker.
        alice.issue("bob", states[0].coin_y)
        assert bob.deposit(states[0].coin_y) == 2

    def test_a_sync_adopts_bindings_whose_hints_were_rewritten(self, network, monkeypatch):
        alice = network.add_peer("alice", PeerConfig(balance=10))
        bob = network.add_peer("bob")
        coins = [alice.purchase().coin_y for _ in range(2)]
        for coin_y in coins:
            alice.issue("bob", coin_y)
        alice.depart()
        for coin_y in coins:
            bob.renew(coin_y)  # owner away: the broker re-binds both coins
        real = alice.broker_client.sync
        monkeypatch.setattr(
            alice.broker_client, "sync",
            lambda challenge, *, shard=None: [
                (coin_y, _shifted(raw, network.params)) for coin_y, raw in real(challenge, shard=shard)
            ],
        )
        alice.go_online()
        assert alice.sync_with_broker() == 2

    def test_the_scalar_and_the_engine_broker_agree(self, tmp_path):
        outcomes = {}
        for name in ("scalar", "engine"):
            generator = LoadGenerator(
                peers=3, coins_per_peer=1, params=PARAMS_TEST_512,
                store_dir=tmp_path / name, seed=29, mix=TRANSFERS_ONLY,
            )
            for held in generator.held.values():  # every certificate a holder embeds
                cert = protocol.decode_signed(_shifted(held.coin.encode(), generator.params), generator.params)
                held.coin = dataclasses.replace(held.coin, cert=cert)
            broker = generator.broker
            if name == "scalar":
                engine = ThroughputEngine(broker, verify_batch=4)
            else:
                pool = VerificationPool(generator.params, broker.public_key, [generator._gpk])
                engine = ThroughputEngine(
                    broker, pool=pool, committer=GroupCommitter(broker.store, max_batch=4), verify_batch=4
                )
            rounds = []
            # Owner-signed proofs first, then the broker-signed ones it keeps in state.
            for _ in range(2):
                wire = [(r.kind, r.src, r.data, r.idem) for r in generator.make_round(3)]
                records, _stats = engine.run(wire)
                rounds.append([(record.ok, record.error) for record in records])
                assert generator.absorb(records) == 3
            outcomes[name] = rounds
        assert outcomes["scalar"] == outcomes["engine"] == [[(True, None)] * 3] * 2


class TestForgedInnerSignature:
    """A valid group signature over an inner envelope whose DSA signature is forged."""

    @staticmethod
    def _forged_deposit(net, bob, held):
        gpk = net.judge.group_public_key()
        envelope = bob._holder_envelope(held, "deposit", payout_to="bearer-forged")
        forged = _reinner(envelope, bob.member_key, gpk, s=envelope.inner.signature.s ^ 1)
        assert not forged.inner.verify()
        assert group_verify(gpk, forged.inner.encode(), forged.group_signature)
        return protocol.encode_dual(forged)

    def test_on_a_deposited_coin_it_is_the_double_spend_it_always_was(self, funded_trio):
        net, alice, bob, _carol = funded_trio
        state = alice.purchase(value=3)
        alice.issue("bob", state.coin_y)
        held = copy.deepcopy(bob.wallet[state.coin_y])
        assert bob.deposit(state.coin_y) == 3
        data = self._forged_deposit(net, bob, held)
        with pytest.raises(DoubleSpendDetected):
            net.transport.request("bob", net.shards[0].address, protocol.DEPOSIT, data)
        (event,) = net.broker.fraud_events
        assert event.evidence["second_request"] == data

    def test_on_a_live_coin_it_names_the_holder_envelope(self, funded_trio):
        net, alice, bob, _carol = funded_trio
        state = alice.purchase(value=3)
        alice.issue("bob", state.coin_y)
        data = self._forged_deposit(net, bob, bob.wallet[state.coin_y])
        with pytest.raises(VerificationFailed, match="holder envelope signatures invalid"):
            net.transport.request("bob", net.shards[0].address, protocol.DEPOSIT, data)
        assert not net.broker.fraud_events
        assert state.coin_y in net.shards[0].valid_coins

    def test_the_owner_checks_both_layers(self, funded_trio):
        net, alice, bob, _carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        gpk = net.judge.group_public_key()
        envelope = bob._holder_envelope(bob.wallet[state.coin_y], "renewal")
        signature = envelope.inner.signature
        assert envelope.verify(gpk)
        assert not _reinner(envelope, bob.member_key, gpk, s=signature.s ^ 1).verify(gpk)
        assert _reinner(envelope, bob.member_key, gpk, commit=signature.commit + net.params.q).verify(gpk)

    def test_the_owner_refuses_what_the_judge_refuses(self, funded_trio):
        # The holder signs over a commit R * (p - 1): on the subgroup it is
        # R, so a cofactor-projected fold accepts it; dsa_verify, which the
        # judge runs on a relinquishment record, refuses it.  An owner that
        # folded its inner signature would keep it, and be blamed for the
        # holder's double spend.
        net, alice, bob, _carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        gpk, params = net.judge.group_public_key(), net.params
        held = bob.wallet[state.coin_y]
        envelope = bob._holder_envelope(held, "transfer", new_holder_y=params.pow_g(99))
        k = 4242
        commit = params.pow_g(k) * (params.p - 1) % params.p
        r = commit % params.q
        digest = dsa_digest(params, envelope.inner.payload_bytes)
        s = primitives.modinv(k, params.q) * (digest + held.holder_keypair.x * r) % params.q
        twisted = _reinner(envelope, bob.member_key, gpk, r=r, s=s, commit=commit)
        assert dsa_batch_verify([twisted.inner.triple])
        assert verify_relinquishment(protocol.encode_dual(twisted), params, net.judge, state.coin_y) is None
        assert not twisted.verify(gpk)
        assert verify_relinquishment(protocol.encode_dual(envelope), params, net.judge, state.coin_y)


class TestPoolIsolation:
    @pytest.mark.parametrize("damage,valid", [("signature", False), ("hint", True)])
    def test_exactly_the_forged_request_loses_its_verdict(self, damage, valid):
        generator = LoadGenerator(
            peers=3, coins_per_peer=2, params=PARAMS_TEST_512, seed=23, mix=TRANSFERS_ONLY
        )
        requests = generator.make_round(6)
        jobs = [(JOB_HOLDER, request.data) for request in requests]
        victim = 3
        envelope = protocol.decode_dual(jobs[victim][1], generator.params)
        member = generator.network.peers[requests[victim].src].member_key
        signature = envelope.inner.signature
        change = {"s": signature.s ^ 1} if damage == "signature" else {"commit": signature.commit + generator.params.q}
        jobs[victim] = (JOB_HOLDER, protocol.encode_dual(_reinner(envelope, member, generator._gpk, **change)))
        pool = VerificationPool(generator.params, generator.broker.public_key, [generator._gpk])
        verdicts = pool.verify(jobs)
        assert verdicts == [valid if index == victim else True for index in range(len(jobs))]
