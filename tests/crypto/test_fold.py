"""One fold for every scheme: its verdict is the conjunction of the exact verifiers.

:class:`repro.crypto.fastexp.Fold` takes a site's group-signature clauses,
DSA triples and Schnorr proofs into one small-exponent test.  Here it is
held to ``group_verify_exact``, ``dsa_verify`` and ``schnorr_verify``:
random mixes of honest and damaged signatures get the AND of the exact
verdicts, and one forgery of each kind is rejected wherever it sits.
"""

import dataclasses
import random

import pytest

from repro.crypto import dsa, fastexp, group_signature, primitives, schnorr
from repro.crypto.dsa import DsaSignature, dsa_batch_verify, dsa_digest, dsa_generate, dsa_sign, dsa_verify
from repro.crypto.elgamal import ElGamalCiphertext
from repro.crypto.group_signature import GroupManager, group_sign, group_verify_exact
from repro.crypto.keys import PublicKey
from repro.crypto.params import PARAMS_TEST_512 as P
from repro.crypto.schnorr import SchnorrProof, schnorr_prove, schnorr_verify

ROSTER = 16
GROUP_SIGS, DSA_TRIPLES, SCHNORR_PROOFS = 40, 70, 10


@pytest.fixture(scope="module")
def signed():
    """Honest signatures of every kind, made once: ``(gpk, groups, triples, proofs)``."""
    manager = GroupManager(P)
    members = [manager.register(f"m{i}") for i in range(ROSTER)]
    gpk = manager.public_key()
    groups = [(b"g%d" % i, group_sign(gpk, members[i % ROSTER], b"g%d" % i)) for i in range(GROUP_SIGS)]
    keys = [dsa_generate(P) for _ in range(7)]
    triples = [(keys[i % 7].public, b"d%d" % i, dsa_sign(keys[i % 7], b"d%d" % i)) for i in range(DSA_TRIPLES)]
    proofs = [(keys[i % 7].public, schnorr_prove(keys[i % 7], b"s%d" % i), b"s%d" % i) for i in range(SCHNORR_PROOFS)]
    assert all(group_verify_exact(gpk, message, signature) for message, signature in groups)
    assert all(dsa_verify(*triple) for triple in triples)
    assert all(schnorr_verify(*proof) for proof in proofs)
    return gpk, groups, triples, proofs


def fold_verdict(gpk, groups, triples, proofs) -> bool:
    """One fold over all three kinds, the way a site fills it."""
    fold = fastexp.Fold(P)
    if not group_signature._join(fold, gpk, groups):
        return False
    dsa._join(fold, triples, [None] * len(triples))
    schnorr._join(fold, proofs)
    return fold.decide()


def exact_verdict(gpk, groups, triples, proofs) -> bool:
    return (
        all(group_verify_exact(gpk, message, signature) for message, signature in groups)
        and all(dsa_verify(*triple) for triple in triples)
        and all(schnorr_verify(*proof) for proof in proofs)
    )


def _rebound(gpk, message, signature):
    """Shift one challenge so the Fiat-Shamir hash binds over the hints as they are."""
    total = group_signature._challenge_hash(gpk, signature.ciphertext, signature.commitments, message)
    challenges = list(signature.challenges)
    challenges[0] = (challenges[0] + total - sum(challenges)) % P.q
    return dataclasses.replace(signature, challenges=tuple(challenges))


# -- damage that may or may not break a signature: the exact verifier decides --


def _bad_hint(signature):
    """``signature`` with one clause hint off by a factor ``g``."""
    hints = list(signature.commitments)
    t1, t2, t3 = hints[3]
    hints[3] = (t1 * P.g % P.p, t2, t3)
    return dataclasses.replace(signature, commitments=tuple(hints))


def _damage_group(rng, gpk, item):
    message, signature = item
    kind = rng.choice(["hint", "stripped", "response", "message", "rebound-hint"])
    if kind == "hint":  # unbound: deferred, and valid
        return message, _bad_hint(signature)
    if kind == "stripped":
        return message, dataclasses.replace(signature, commitments=None)
    if kind == "response":
        responses = list(signature.responses_x)
        responses[5] = (responses[5] + 1) % P.q
        return message, dataclasses.replace(signature, responses_x=tuple(responses))
    if kind == "message":
        return message + b"!", signature
    return message, _rebound(gpk, message, _bad_hint(signature))


def _damage_dsa(rng, item):
    public, message, signature = item
    kind = rng.choice(["commit+q", "no-commit", "commit*2", "s", "message"])
    if kind == "commit+q":  # same residue: joins, breaks the fold, verifies alone
        return public, message, dataclasses.replace(signature, commit=signature.commit + P.q)
    if kind == "no-commit":
        return public, message, dataclasses.replace(signature, commit=None)
    if kind == "commit*2":
        return public, message, dataclasses.replace(signature, commit=signature.commit * 2 % P.p)
    if kind == "s":
        return public, message, dataclasses.replace(signature, s=signature.s ^ 1)
    return public, message + b"!", signature


def _damage_schnorr(rng, item):
    public, proof, context = item
    if rng.random() < 0.5:
        return public, proof, context + b"!"
    return public, dataclasses.replace(proof, response=(proof.response + 1) % P.q), context


class TestRandomMixes:
    @pytest.mark.parametrize("seed", range(10))
    def test_verdict_is_the_and_of_the_exact_verifiers(self, signed, seed):
        gpk, groups, triples, proofs = signed
        rng = random.Random(seed)
        if seed == 0:
            sizes = (GROUP_SIGS, DSA_TRIPLES, SCHNORR_PROOFS)
        elif seed == 1:
            sizes = (0, 0, 0)
        else:
            sizes = (rng.randint(0, GROUP_SIGS), rng.randint(0, DSA_TRIPLES), rng.randint(0, SCHNORR_PROOFS))
        mix = [rng.sample(items, size) for items, size in zip((groups, triples, proofs), sizes)]
        kinds = [kind for kind in range(3) if mix[kind]]
        if kinds and seed % 2:
            kind = rng.choice(kinds)
            at = rng.randrange(len(mix[kind]))
            item = mix[kind][at]
            if kind == 0:
                mix[0][at] = _damage_group(rng, gpk, item)
            elif kind == 1:
                mix[1][at] = _damage_dsa(rng, item)
            else:
                mix[2][at] = _damage_schnorr(rng, item)
        assert fold_verdict(gpk, *mix) == exact_verdict(gpk, *mix)

    def test_a_corrupted_hint_never_rejects_at_any_size(self, signed):
        gpk, groups, triples, proofs = signed
        corrupted = [(pk, m, dataclasses.replace(sig, commit=sig.commit + P.q)) for pk, m, sig in triples[:3]]
        assert fold_verdict(gpk, groups[:2], corrupted + triples[3:9], proofs[:2])
        assert dsa_batch_verify(corrupted, groups=[(gpk, groups[:1])])


# -- forgeries, one of each kind --------------------------------------------


def _forged_clause_hint(gpk, item):
    message, signature = item
    signature = _rebound(gpk, message, _bad_hint(signature))
    assert group_signature._hint_binds(gpk, message, signature)  # it joins the fold
    return "group", (message, signature)


def _forged_dsa_commit(_gpk, item):
    public, message, _signature = item
    r = random.Random(7).randrange(1, P.q)
    return "dsa", (public, message, DsaSignature(r=r, s=12345, commit=r))  # not g**k, right residue


def _forged_c1(_gpk, item):
    message, signature = item
    c1 = signature.ciphertext.c1 * (P.p - 1) % P.p
    ciphertext = ElGamalCiphertext(c1=c1, c2=signature.ciphertext.c2)
    return "group", (message, dataclasses.replace(signature, ciphertext=ciphertext))


def _forged_signer_key(_gpk, item):
    public, message, signature = item
    return "dsa", (PublicKey(params=P, y=public.y * (P.p - 1) % P.p), message, signature)


def _forged_schnorr_response(_gpk, item):
    public, proof, context = item
    return "schnorr", (public, dataclasses.replace(proof, response=(proof.response + 1) % P.q), context)


FORGERIES = {
    "clause-hint": (0, _forged_clause_hint),
    "dsa-commit": (1, _forged_dsa_commit),
    "c1-times-minus-one": (0, _forged_c1),
    "order-2-signer-key": (1, _forged_signer_key),
    "schnorr-response": (2, _forged_schnorr_response),
}


class TestForgeries:
    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    @pytest.mark.parametrize("forgery", FORGERIES)
    def test_one_forgery_anywhere_rejects(self, signed, forgery, position):
        gpk, groups, triples, proofs = signed
        mix = [list(groups[:5]), list(triples[:9]), list(proofs[:3])]
        kind, forge = FORGERIES[forgery]
        at = {"first": 0, "middle": len(mix[kind]) // 2, "last": -1}[position]
        _label, mix[kind][at] = forge(gpk, mix[kind][at])
        assert not exact_verdict(gpk, *mix)
        assert not fold_verdict(gpk, *mix)

    def test_each_forgery_alone_is_refused_by_its_exact_verifier(self, signed):
        gpk, groups, triples, proofs = signed
        exact = {
            "group": lambda item: group_verify_exact(gpk, *item),
            "dsa": lambda item: dsa_verify(*item),
            "schnorr": lambda item: schnorr_verify(*item),
        }
        for kind, forge in FORGERIES.values():
            label, item = forge(gpk, (groups, triples, proofs)[kind][0])
            assert not exact[label](item)


# -- the residue the owner stays out of -------------------------------------


def _small_order(order):
    """An element of prime ``order`` dividing the cofactor (2, 3 and 31 do at 512 bit)."""
    return next(e for e in (pow(h, (P.p - 1) // order, P.p) for h in range(2, 100)) if e != 1)


class TestCommitmentsAreReadUpToTheCofactor:
    """What a fold does not decide like the exact verifiers: a signer that
    multiplies its own commitment by an element of small order passes the
    cofactor-projected fold, and ``dsa_verify`` / ``schnorr_verify`` refuse
    it.  Only the signer can make one, and no fold's DSA verdict reaches the
    judge — the owner, whose relinquishment records do, checks its inner
    signature exactly (``tests/core/test_fold_sites.py``)."""

    @pytest.mark.parametrize("order", [2, 3, 31])
    def test_a_signer_twisted_dsa_commit(self, order):
        key, k, message = dsa_generate(P), 12345, b"twisted"
        commit = P.pow_g(k) * _small_order(order) % P.p
        r = commit % P.q
        s = primitives.modinv(k, P.q) * (dsa_digest(P, message) + key.x * r) % P.q
        item = (key.public, message, DsaSignature(r=r, s=s, commit=commit))
        assert not dsa_verify(*item)
        assert dsa_batch_verify([item])

    def test_a_signer_twisted_schnorr_commitment(self):
        key, v, context = dsa_generate(P), 777, b"twisted"
        t = P.pow_g(v) * _small_order(3) % P.p
        z = (v + schnorr._challenge(key.public, t, context) * key.x) % P.q
        item = (key.public, SchnorrProof(commitment=t, response=z), context)
        assert not schnorr_verify(*item)
        assert schnorr.schnorr_batch_verify([item])


class TestOneRandomizerWidth:
    def test_multipliers_are_odd_and_of_the_stated_width(self):
        fold = fastexp.Fold(P)
        multipliers = [fold.hint(P.g) for _ in range(64)]
        assert all(m % 2 == 1 and m.bit_length() <= fastexp.BATCH_RANDOMIZER_BITS for m in multipliers)
        assert not hasattr(dsa, "BATCH_RANDOMIZER_BITS")
        assert not hasattr(group_signature, "BATCH_RANDOMIZER_BITS")
        assert not hasattr(schnorr, "BATCH_RANDOMIZER_BITS")

    def test_an_empty_fold_holds_without_arithmetic(self, monkeypatch):
        def no_arithmetic(*_args, **_kwargs):
            raise AssertionError("an empty fold exponentiated")

        monkeypatch.setattr(fastexp, "multi_exp", no_arithmetic)
        assert fastexp.Fold(P).decide()
        assert dsa_batch_verify([])
