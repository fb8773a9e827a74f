"""Group signature tests: anonymity, verifiability, openability (Section 3.2)."""

import contextlib
import dataclasses
import hashlib
import json
import random
import secrets
import sys
from pathlib import Path

import pytest

from repro.crypto import fastexp, group_signature
from repro.crypto.elgamal import ElGamalCiphertext
from repro.crypto.group_signature import (
    GroupManager,
    GroupPublicKey,
    GroupSignature,
    GroupSignatureError,
    group_batch_verify,
    group_sign,
    group_verify,
)
from repro.crypto.keys import PublicKey
from repro.crypto.params import PARAMS_1024_160, PARAMS_TEST_512
from repro.crypto.shamir import combine_shares

# The parent's signer and the pre-acceleration verifier live on as replicas
# in the crypto micro-benchmark; import the module, not its test_bench_* names.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
import bench_crypto_ops  # noqa: E402

GOLDEN = Path(__file__).with_name("golden_group_signature.json")
PARAM_SETS = {params.name: params for params in (PARAMS_TEST_512, PARAMS_1024_160)}


@contextlib.contextmanager
def seeded_secrets(seed):
    """Feed ``secrets.randbelow``/``randbits`` from ``random.Random(seed)``."""
    rng = random.Random(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(secrets, "randbelow", rng.randrange)
        patch.setattr(secrets, "randbits", rng.getrandbits)
        yield


def _unhex(values):
    return tuple(int(value, 16) for value in values)


def _roster(params, size):
    manager = GroupManager(params)
    members = [manager.register(f"m{i}") for i in range(size)]
    return manager, members, manager.public_key()


@pytest.fixture(scope="module")
def group():
    manager = GroupManager(PARAMS_TEST_512)
    members = {name: manager.register(name) for name in ("alice", "bob", "carol")}
    return manager, members


class TestSignVerify:
    def test_every_member_can_sign(self, group):
        manager, members = group
        gpk = manager.public_key()
        for name, key in members.items():
            sig = group_sign(gpk, key, b"payment")
            assert group_verify(gpk, b"payment", sig), name

    def test_wrong_message_rejected(self, group):
        manager, members = group
        gpk = manager.public_key()
        sig = group_sign(gpk, members["alice"], b"pay 5")
        assert not group_verify(gpk, b"pay 6", sig)

    def test_nonmember_cannot_sign(self, group):
        manager, members = group
        other = GroupManager(PARAMS_TEST_512)
        outsider = other.register("mallory")
        gpk = manager.public_key()
        with pytest.raises(GroupSignatureError):
            group_sign(gpk, outsider, b"m")

    def test_signature_against_foreign_group_fails(self, group):
        manager, members = group
        other = GroupManager(PARAMS_TEST_512)
        other.register("x")
        sig = group_sign(manager.public_key(), members["bob"], b"m")
        assert not group_verify(other.public_key(), b"m", sig)


class TestAnonymity:
    def test_signatures_unlinkable(self, group):
        # Two signatures by the same member share no ciphertext or challenge
        # components — a verifier cannot link them.
        manager, members = group
        gpk = manager.public_key()
        a = group_sign(gpk, members["bob"], b"m")
        b = group_sign(gpk, members["bob"], b"m")
        assert a.ciphertext.c1 != b.ciphertext.c1
        assert a.challenges != b.challenges

    def test_verification_identical_across_signers(self, group):
        # Verification gives a verifier no signer-dependent output: it is a
        # boolean, and signatures from different members have identical shape.
        manager, members = group
        gpk = manager.public_key()
        sigs = [group_sign(gpk, key, b"m") for key in members.values()]
        for sig in sigs:
            assert group_verify(gpk, b"m", sig)
            assert len(sig.challenges) == manager.member_count()


class TestOpening:
    def test_judge_opens_correct_identity(self, group):
        manager, members = group
        gpk = manager.public_key()
        for name, key in members.items():
            sig = group_sign(gpk, key, b"fraudulent tx")
            assert manager.open(sig) == name

    def test_threshold_shares_reconstruct(self, group):
        manager, _members = group
        shares = manager.export_opening_shares(n=5, k=3)
        secret = combine_shares(shares[:3], PARAMS_TEST_512.q)
        assert secret == manager.opening_keypair.secret

    def test_too_few_shares_fail(self, group):
        manager, _members = group
        shares = manager.export_opening_shares(n=5, k=3)
        wrong = combine_shares(shares[:2], PARAMS_TEST_512.q)
        assert wrong != manager.opening_keypair.secret


class TestRosterVersioning:
    def test_old_snapshot_still_verifies_old_signers(self):
        manager = GroupManager(PARAMS_TEST_512)
        alice = manager.register("alice")
        gpk_v1 = manager.public_key()
        sig = group_sign(gpk_v1, alice, b"m")
        manager.register("bob")  # roster grows
        # Verifying against the version the signer used still works.
        assert group_verify(manager.public_key_at(1), b"m", sig)
        # The new snapshot has a different roster hash, so it must not.
        assert not group_verify(manager.public_key(), b"m", sig)

    def test_public_key_at_bounds(self):
        manager = GroupManager(PARAMS_TEST_512)
        manager.register("a")
        with pytest.raises(GroupSignatureError):
            manager.public_key_at(5)
        assert manager.public_key_at(0).roster == ()

    def test_versions_carried_in_snapshots(self):
        manager = GroupManager(PARAMS_TEST_512)
        manager.register("a")
        manager.register("b")
        assert manager.public_key().version == 2
        assert manager.public_key_at(1).version == 1


class TestExpulsion:
    def test_expel_shrinks_roster_and_bumps_version(self):
        manager = GroupManager(PARAMS_TEST_512)
        alice = manager.register("alice")
        bob = manager.register("bob")
        version = manager.expel("alice")
        assert version == 3  # two registrations + one expulsion
        gpk = manager.public_key()
        assert gpk.roster == (bob.h,)
        assert manager.member_count() == 1
        assert manager.is_expelled("alice")

    def test_expelled_cannot_sign_new_snapshot(self):
        manager = GroupManager(PARAMS_TEST_512)
        alice = manager.register("alice")
        manager.register("bob")
        manager.expel("alice")
        with pytest.raises(GroupSignatureError):
            group_sign(manager.public_key(), alice, b"m")

    def test_old_signatures_still_open(self):
        manager = GroupManager(PARAMS_TEST_512)
        alice = manager.register("alice")
        sig = group_sign(manager.public_key(), alice, b"evidence")
        manager.expel("alice")
        assert manager.open(sig) == "alice"

    def test_expel_inactive_member_fails(self):
        manager = GroupManager(PARAMS_TEST_512)
        manager.register("alice")
        with pytest.raises(GroupSignatureError):
            manager.expel("ghost")
        manager.expel("alice")
        with pytest.raises(GroupSignatureError):
            manager.expel("alice")

    def test_register_after_expel(self):
        manager = GroupManager(PARAMS_TEST_512)
        manager.register("alice")
        manager.expel("alice")
        carol = manager.register("carol")
        gpk = manager.public_key()
        sig = group_sign(gpk, carol, b"m")
        assert group_verify(gpk, b"m", sig)
        assert manager.open(sig) == "carol"


class TestTampering:
    def test_tampered_challenge_rejected(self, group):
        manager, members = group
        gpk = manager.public_key()
        sig = group_sign(gpk, members["carol"], b"m")
        challenges = list(sig.challenges)
        challenges[0] = (challenges[0] + 1) % PARAMS_TEST_512.q
        bad = dataclasses.replace(sig, challenges=tuple(challenges))
        assert not group_verify(gpk, b"m", bad)

    def test_tampered_response_rejected(self, group):
        manager, members = group
        gpk = manager.public_key()
        sig = group_sign(gpk, members["carol"], b"m")
        responses = list(sig.responses_x)
        responses[-1] = (responses[-1] + 1) % PARAMS_TEST_512.q
        bad = dataclasses.replace(sig, responses_x=tuple(responses))
        assert not group_verify(gpk, b"m", bad)

    def test_truncated_transcript_rejected(self, group):
        manager, members = group
        gpk = manager.public_key()
        sig = group_sign(gpk, members["alice"], b"m")
        bad = dataclasses.replace(sig, challenges=sig.challenges[:-1])
        assert not group_verify(gpk, b"m", bad)

    def test_swapped_ciphertext_rejected(self, group):
        # Re-encrypting a different member's key under the same proof must
        # fail — otherwise a signer could frame someone else.
        manager, members = group
        gpk = manager.public_key()
        sig_alice = group_sign(gpk, members["alice"], b"m")
        sig_bob = group_sign(gpk, members["bob"], b"m")
        franken = dataclasses.replace(sig_alice, ciphertext=sig_bob.ciphertext)
        assert not group_verify(gpk, b"m", franken)


class TestWitnessAwareSigner:
    """The signer computes the simulated clauses from ``r`` and ``x``; the
    integers it returns are the ones the verifier-style signer returned."""

    # 6 is the roster at which the old signer started building ciphertext tables.
    @pytest.mark.parametrize("params", PARAM_SETS.values(), ids=PARAM_SETS.keys())
    @pytest.mark.parametrize("size", [1, 2, 6, 16])
    def test_equals_parent_signer_under_seeded_entropy(self, params, size):
        _manager, members, gpk = _roster(params, size)
        for index, member in enumerate(members):
            with seeded_secrets(1000 * size + index):
                new = group_sign(gpk, member, b"differential")
            with seeded_secrets(1000 * size + index):
                old = bench_crypto_ops.baseline_group_sign(gpk, member, b"differential")
            for field in dataclasses.fields(GroupSignature):
                assert getattr(new, field.name) == getattr(old, field.name), (index, field.name)
            assert new.encode() == old.encode()

    @pytest.mark.parametrize("size", [1, 2, 6, 16])
    def test_new_signatures_pass_every_other_verifier(self, size, monkeypatch):
        manager, members, gpk = _roster(PARAMS_TEST_512, size)
        messages = [b"msg-%d" % i for i in range(size)]
        items = [(m, group_sign(gpk, member, m)) for m, member in zip(messages, members)]
        for index, (message, signature) in enumerate(items):
            assert bench_crypto_ops.baseline_group_verify(gpk, message, signature)
            assert manager.open(signature) == f"m{index}"

        # The hints must carry the batch on their own: no exact fallback.
        def no_fallback(*_args):
            raise AssertionError("hinted signature fell back to leftover")

        monkeypatch.setattr(group_signature, "group_verify", no_fallback)
        assert group_batch_verify(gpk, items)

    def test_parent_made_signatures_verify(self):
        for vector in json.loads(GOLDEN.read_text())["vectors"]:
            params = PARAM_SETS[vector["params"]]
            gpk = GroupPublicKey(
                params=params,
                opening_key=PublicKey(params=params, y=int(vector["opening_key"], 16)),
                roster=_unhex(vector["roster"]),
                version=vector["version"],
            )
            signature = GroupSignature(
                ciphertext=ElGamalCiphertext(c1=int(vector["c1"], 16), c2=int(vector["c2"], 16)),
                challenges=_unhex(vector["challenges"]),
                responses_r=_unhex(vector["responses_r"]),
                responses_x=_unhex(vector["responses_x"]),
                commitments=tuple(_unhex(c) for c in vector["commitments"]),
            )
            message = vector["message"].encode()
            assert group_verify(gpk, message, signature)
            assert group_batch_verify(gpk, [(message, signature)])
            assert not group_verify(gpk, message + b"!", signature)
            assert hashlib.sha256(signature.encode()).hexdigest() == vector["encode_sha256"]
            # Open: c2 / c1**secret is the signer's roster key.
            mask = pow(signature.ciphertext.c1, -int(vector["opening_secret"], 16), params.p)
            assert (signature.ciphertext.c2 * mask) % params.p == gpk.roster[vector["signer"]]

    def test_roster_of_one_has_no_foreign_clause(self):
        manager, (only,), gpk = _roster(PARAMS_TEST_512, 1)
        signature = group_sign(gpk, only, b"alone")
        assert len(signature.challenges) == 1
        assert group_verify(gpk, b"alone", signature)
        assert manager.open(signature) == "m0"

    def test_stale_snapshot_still_raises(self):
        manager = GroupManager(PARAMS_TEST_512)
        manager.register("early")
        stale = manager.public_key()
        late = manager.register("late")
        with pytest.raises(GroupSignatureError):
            group_sign(stale, late, b"m")

    def test_verify_is_a_deterministic_predicate(self, group):
        manager, members = group
        gpk = manager.public_key()
        signature = group_sign(gpk, members["bob"], b"m")
        assert {group_verify(gpk, b"m", signature) for _ in range(3)} == {True}


@pytest.fixture()
def exponentiations(monkeypatch):
    """Count every ``multi_exp`` and fixed-base ``pow`` while the test runs."""
    calls = []
    for owner, name in ((fastexp, "multi_exp"), (fastexp.FixedBaseTable, "pow")):
        original = getattr(owner, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


class TestFailFast:
    @pytest.mark.parametrize("field", ["challenges", "responses_r", "responses_x"])
    @pytest.mark.parametrize("position", [0, 3, 7])
    @pytest.mark.parametrize("value", [-1, int(PARAMS_TEST_512.q)])
    def test_out_of_range_scalar_costs_no_exponentiation(
        self, field, position, value, exponentiations
    ):
        _manager, members, gpk = _roster(PARAMS_TEST_512, 8)
        signature = group_sign(gpk, members[2], b"m")
        scalars = list(getattr(signature, field))
        scalars[position] = value
        bad = dataclasses.replace(signature, **{field: tuple(scalars)})
        exponentiations.clear()
        assert not group_verify(gpk, b"m", bad)
        assert exponentiations == []
        assert group_verify(gpk, b"m", signature) and exponentiations


class TestMembershipMemo:
    def test_verified_signatures_do_not_churn_the_memo(self, monkeypatch):
        # A memo this small would lose the key to 2 x 100 one-shot halves.
        monkeypatch.setattr(fastexp, "_MAX_MEMBERS", 4)
        _manager, members, gpk = _roster(PARAMS_TEST_512, 3)
        params = gpk.params
        broker_key = params.pow_g(777)
        assert params.is_element(broker_key)
        key = (broker_key, params.q, params.p)
        before = len(fastexp._members)
        items = [(b"%d" % i, group_sign(gpk, members[i % 3], b"%d" % i)) for i in range(100)]
        assert all(group_verify(gpk, message, signature) for message, signature in items)
        assert group_batch_verify(gpk, items)
        assert len(fastexp._members) == before
        assert fastexp._members[key] is True

    def test_unmemoized_check_rejects_the_same_values(self):
        params = PARAMS_TEST_512
        outside = next(x for x in range(2, 50) if pow(x, params.q, params.p) != 1)
        for value in (0, params.p, outside):
            assert not params.is_element(value, memo=False)
            assert not params.is_element(value)
        assert params.is_element(params.pow_g(5), memo=False)
