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
    group_verify_exact,
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


class TestPublicKeyMemo:
    def test_one_object_per_version(self):
        manager = GroupManager(PARAMS_TEST_512)
        manager.register("a")
        assert manager.public_key() is manager.public_key() is manager.public_key_at(1)
        manager.register("b")
        assert manager.public_key() is not manager.public_key_at(1)
        assert manager.public_key_at(1).roster == manager.public_key().roster[:1]

    def test_memo_is_bounded_and_an_evicted_version_is_rebuilt(self):
        manager = GroupManager(PARAMS_TEST_512)
        bound = group_signature.MAX_PUBLIC_KEYS
        for i in range(3 * bound):
            manager.register(f"m{i}")
            manager.public_key()
            assert len(manager._public_keys) <= bound
        first = manager.public_key_at(1)  # long evicted
        assert (first.version, len(first.roster)) == (1, 1)
        assert len(manager._public_keys) <= bound


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


class TestTamperingExact(TestTampering):
    """The same suite, unmodified, over the verifier that never folds."""

    @pytest.fixture(autouse=True)
    def _exact_verifier(self, monkeypatch):
        monkeypatch.setattr(sys.modules[__name__], "group_verify", group_verify_exact)


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
        monkeypatch.setattr(group_signature, "_recompute_clauses", no_fallback)
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
            assert group_verify_exact(gpk, message, signature)
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
    """Count every ``multi_exp``, fixed-base ``pow`` and membership test
    (a native ``pow``) while the test runs."""
    calls = []
    counted_names = ((fastexp, "multi_exp"), (fastexp.FixedBaseTable, "pow"), (fastexp, "is_member"))
    for owner, name in counted_names:
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

    @pytest.mark.parametrize("path", ["hinted", "hintless", "exact", "batch"])
    @pytest.mark.parametrize("field", ["challenges", "responses_r", "responses_x"])
    def test_every_path_refuses_it_before_the_subgroup_checks(self, path, field, exponentiations):
        _manager, members, gpk = _roster(PARAMS_TEST_512, 8)
        good = [(b"%d" % i, group_sign(gpk, members[i], b"%d" % i)) for i in range(3)]
        message, signature = good[-1]
        if path == "hintless":
            signature = dataclasses.replace(signature, commitments=None)
        scalars = list(getattr(signature, field))
        scalars[5] = int(PARAMS_TEST_512.q)
        bad = dataclasses.replace(signature, **{field: tuple(scalars)})
        exponentiations.clear()
        if path == "batch":  # the offender is last: nobody's c1/c2 is tested first
            assert not group_batch_verify(gpk, good[:-1] + [(message, bad)])
        elif path == "exact":
            assert not group_verify_exact(gpk, message, bad)
        else:
            assert not group_verify(gpk, message, bad)
        assert exponentiations == []


def _damaged_hints(hints, foreign, kind, p):
    """The ``commitments`` tuple ``hints`` after one of the hint attacks."""
    hints = list(hints)
    if kind == "stripped":
        return None
    if kind == "short":
        return tuple(hints[:-1])
    if kind == "long":
        return tuple(hints + hints[:1])
    if kind == "zero-entry":
        hints[1] = (0, hints[1][1], hints[1][2])
    elif kind == "p-entry":
        hints[1] = (hints[1][0], p, hints[1][2])
    elif kind == "swapped-clauses":
        hints[0], hints[2] = hints[2], hints[0]
    elif kind == "foreign":
        hints = list(foreign)
    elif kind == "small-order":  # t * (p - 1) == -t: same subgroup component
        hints[1] = (hints[1][0] * (p - 1) % p, hints[1][1], hints[1][2])
        hints[3] = (hints[3][0], hints[3][1], hints[3][2] * (p - 1) % p)
    return tuple(hints)


HINT_ATTACKS = [
    "stripped", "short", "long", "zero-entry", "p-entry", "swapped-clauses", "foreign", "small-order",
]


def _rebound(gpk, message, signature):
    """What a forger who controls the hints does: shift one challenge so the
    Fiat-Shamir hash binds over whatever the hints now say."""
    q = gpk.params.q
    total = group_signature._challenge_hash(
        gpk, signature.ciphertext, signature.commitments, message
    )
    challenges = list(signature.challenges)
    challenges[0] = (challenges[0] + total - sum(challenges)) % q
    rebound = dataclasses.replace(signature, challenges=tuple(challenges))
    assert group_signature._hint_binds(gpk, message, rebound)
    return rebound


def _verdicts(gpk, message, signature):
    """Every verifier's answer: hinted scalar, batch, exact."""
    return (
        group_verify(gpk, message, signature),
        group_batch_verify(gpk, [(message, signature)]),
        group_verify_exact(gpk, message, signature),
    )


class TestHintedVerification:
    """``group_verify`` decides a bound hint by the fold; hints stay untrusted."""

    @pytest.fixture(scope="class")
    def signed(self):
        _manager, members, gpk = _roster(PARAMS_TEST_512, 6)
        return gpk, group_sign(gpk, members[4], b"m"), group_sign(gpk, members[1], b"m")

    @pytest.mark.parametrize("kind", HINT_ATTACKS)
    def test_damaged_hint_on_a_valid_signature_still_accepts(self, signed, kind, monkeypatch):
        gpk, signature, other = signed
        hints = _damaged_hints(signature.commitments, other.commitments, kind, gpk.params.p)
        damaged = dataclasses.replace(signature, commitments=hints)
        # Decided by the exact fallback: the fold never sees an unbound hint.
        monkeypatch.setattr(group_signature, "_fold", lambda _gpk, sigs: not sigs)
        assert _verdicts(gpk, b"m", damaged) == (True, True, True)

    @pytest.mark.parametrize("kind", [None] + HINT_ATTACKS)
    def test_forgery_is_rejected_whatever_the_hint_says(self, signed, kind):
        gpk, signature, other = signed
        responses = list(signature.responses_r)
        responses[2] = (responses[2] + 1) % gpk.params.q
        forged = dataclasses.replace(signature, responses_r=tuple(responses))
        # The challenge hash does not cover the responses: the honest hint
        # still binds, and only the fold stands between this and acceptance.
        assert group_signature._hint_binds(gpk, b"m", forged)
        if kind is not None:
            hints = _damaged_hints(signature.commitments, other.commitments, kind, gpk.params.p)
            forged = dataclasses.replace(forged, commitments=hints)
        assert _verdicts(gpk, b"m", forged) == (False, False, False)

    @pytest.mark.parametrize("kind", ["swapped-clauses", "foreign", "small-order"])
    def test_forger_who_rebinds_the_hash_to_its_hints_is_rejected(self, signed, kind):
        gpk, signature, other = signed
        hints = _damaged_hints(signature.commitments, other.commitments, kind, gpk.params.p)
        forged = _rebound(gpk, b"m", dataclasses.replace(signature, commitments=hints))
        assert _verdicts(gpk, b"m", forged) == (False, False, False)

    def test_small_order_factor_bound_by_the_signer_gets_one_verdict_everywhere(
        self, signed, monkeypatch
    ):
        # A *member* can hash over -t instead of t: the subgroup components
        # satisfy every clause, the fold (which projects the cofactor away)
        # accepts, and a judge who refused it would let a holder frame the
        # owner holding this as a relinquishment.  Peer and judge must agree.
        _manager, members, gpk = _roster(PARAMS_TEST_512, 6)
        p = gpk.params.p
        real_hash = group_signature._challenge_hash
        seen = []

        def hash_over_negated(gpk_, ciphertext, commitments, message):
            seen[:] = _damaged_hints(commitments, None, "small-order", p)
            return real_hash(gpk_, ciphertext, seen, message)

        monkeypatch.setattr(group_signature, "_challenge_hash", hash_over_negated)
        signature = group_sign(gpk, members[0], b"m")
        monkeypatch.setattr(group_signature, "_challenge_hash", real_hash)
        smuggled = dataclasses.replace(signature, commitments=tuple(seen))
        assert _verdicts(gpk, b"m", smuggled) == (True, True, True)
        assert _verdicts(gpk, b"other", smuggled) == (False, False, False)
        # Without its hint it is not a signature at all, for anyone.
        stripped = dataclasses.replace(smuggled, commitments=None)
        assert _verdicts(gpk, b"m", stripped) == (False, False, False)

    def test_exact_verifier_draws_no_randomness(self, signed, monkeypatch):
        gpk, signature, _other = signed

        def no_randomness(*_args):
            raise AssertionError("the exact verifier drew randomness")

        monkeypatch.setattr(secrets, "randbits", no_randomness)
        monkeypatch.setattr(secrets, "randbelow", no_randomness)
        assert group_verify_exact(gpk, b"m", signature)
        assert not group_verify_exact(gpk, b"x", signature)
        with pytest.raises(AssertionError):
            group_verify(gpk, b"m", signature)

    def test_hinted_path_cost_at_roster_16(self, exponentiations, monkeypatch):
        # n + 2 cached-table lookups (g, y, every h_j), two products, and
        # three native pows: c1 and c2 membership, the cofactor projection.
        _manager, members, gpk = _roster(PARAMS_TEST_512, 16)
        signature = group_sign(gpk, members[9], b"m")
        native = []

        def native_pow(*args):
            native.append(args)
            return pow(*args)

        def no_exact(*_args):
            raise AssertionError("a bound hint reached the exact path")

        monkeypatch.setattr(group_signature, "_recompute_clauses", no_exact)
        for module in (fastexp, group_signature):  # shadow the builtin in both
            monkeypatch.setattr(module, "pow", native_pow, raising=False)
        exponentiations.clear()
        assert group_verify(gpk, b"m", signature)
        assert exponentiations.count("pow") <= 16 + 2
        assert exponentiations.count("multi_exp") == 2
        assert len(native) <= 3

    @pytest.mark.parametrize("seed", range(12))
    def test_random_mutations_get_the_exact_verdict(self, signed, seed):
        gpk, signature, other = signed
        rng = random.Random(seed)
        q, n = gpk.params.q, len(gpk.roster)
        for _ in range(6):
            mutant = signature
            for _ in range(rng.choice((1, 1, 2))):
                field = rng.choice(
                    ["challenges", "responses_r", "responses_x", "commitments", "ciphertext"]
                )
                j = rng.randrange(n)
                if field == "ciphertext":
                    mutant = dataclasses.replace(mutant, ciphertext=other.ciphertext)
                elif field == "commitments":
                    kind = rng.choice(HINT_ATTACKS)
                    hints = _damaged_hints(
                        signature.commitments, other.commitments, kind, gpk.params.p
                    )
                    mutant = dataclasses.replace(mutant, commitments=hints)
                    if hints is not None and len(hints) == n and rng.random() < 0.5:
                        with contextlib.suppress(AssertionError):  # 0 / p entries never bind
                            mutant = _rebound(gpk, b"m", mutant)
                else:
                    values = list(getattr(mutant, field))
                    values[j] = rng.randrange(q)
                    mutant = dataclasses.replace(mutant, **{field: tuple(values)})
            hinted, batched, exact = _verdicts(gpk, b"m", mutant)
            assert hinted == batched == exact
            stripped = dataclasses.replace(mutant, commitments=None)
            assert exact == bench_crypto_ops.baseline_group_verify(gpk, b"m", stripped)


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


@pytest.fixture()
def cold_caches():
    fastexp.clear_caches()
    yield
    fastexp.clear_caches()


@pytest.mark.usefixtures("cold_caches")
class TestSystemWideBases:
    """``g`` and the judge's opening key exponentiate through byte-wide
    tables; roster keys (and everything else) keep the cached width."""

    @staticmethod
    def _widths(gpk):
        params = gpk.params
        tables = [fastexp.fixed_base(base, params.p) for base in (params.g, gpk.opening_key.y)]
        return [table and table.window for table in tables]

    def test_signature_lookups_by_table_at_roster_16(self, monkeypatch):
        # Per simulated clause g**u, y**u, g**(-x*c_j), g**s_x on the wide
        # tables and h_j**c_j on the roster's; c1, y**r and the honest
        # clause's three commitments make the other five.
        n = 16
        _manager, members, gpk = _roster(PARAMS_TEST_512, n)
        system = (gpk.params.g, gpk.opening_key.y)
        lookups = []
        original = fastexp.FixedBaseTable.pow

        def counted(table, exponent):
            lookups.append((table.window, table.base in system, table.base in gpk.roster))
            return original(table, exponent)

        monkeypatch.setattr(fastexp.FixedBaseTable, "pow", counted)
        group_sign(gpk, members[9], b"m")
        assert lookups.count((fastexp.SYSTEM_WINDOW, True, False)) == 4 * (n - 1) + 5
        assert lookups.count((fastexp.CACHED_WINDOW, False, True)) == n - 1
        assert len(lookups) == 5 * (n - 1) + 5

    @pytest.mark.parametrize("first_call", ["sign", "verify", "verify_exact", "batch_verify"])
    def test_first_call_after_cleared_caches_finds_both_wide_tables(self, first_call):
        _manager, members, gpk = _roster(PARAMS_TEST_512, 4)
        signature = group_sign(gpk, members[1], b"m")
        fastexp.clear_caches()
        assert self._widths(gpk) == [None, None]
        if first_call == "sign":
            signature = group_sign(gpk, members[2], b"m")
        elif first_call == "verify":
            assert group_verify(gpk, b"m", signature)
        elif first_call == "verify_exact":
            assert group_verify_exact(gpk, b"m", signature)
        else:
            assert group_batch_verify(gpk, [(b"m", signature)])
        assert self._widths(gpk) == [fastexp.SYSTEM_WINDOW] * 2

    @pytest.mark.parametrize("coins", [0, 4], ids=["roster_only", "coin_keys_promoted_meanwhile"])
    def test_roster_larger_than_the_cache_builds_nothing_once_warm(self, monkeypatch, coins):
        # The cliff: a roster past _MAX_TABLES had every signature evict
        # registered roster tables to promote the keys that missed, which the
        # rest of the same loop evicted again before their second use.  With
        # coin keys promoted while the roster still fitted, a registration
        # that evicted a roster table and kept a promoted slot left the same
        # rotation running through that slot.
        monkeypatch.setattr(fastexp, "_MAX_TABLES", 12)
        built = []
        original = fastexp.FixedBaseTable.__init__

        def counted(table, base, modulus, max_bits, window=fastexp.CACHED_WINDOW, order=None):
            if window != fastexp.EPHEMERAL_WINDOW:  # the exact verifier's c1/c2, never cached
                built.append(base)
            original(table, base, modulus, max_bits, window=window, order=order)

        monkeypatch.setattr(fastexp.FixedBaseTable, "__init__", counted)
        params = PARAMS_TEST_512
        manager, members, gpk = _roster(params, 6)
        assert group_verify(gpk, b"early", group_sign(gpk, members[0], b"early"))
        coin_keys = [params.pow_g(1000 + i) for i in range(coins)]
        for key in coin_keys:  # used after the last roster loop: newer than every h_j
            for _ in range(fastexp.PROMOTE_AFTER):
                fastexp.mod_pow(key, 7, params.p, order=params.q)
        assert len(fastexp._tables) == 8 + coins  # g, y, six roster keys, the coin keys
        members += [manager.register(f"late{i}") for i in range(8)]  # roster 14 + g + y > 12
        gpk = manager.public_key()
        assert not any(fastexp.fixed_base(key, params.p) for key in coin_keys)
        signature = group_sign(gpk, members[0], b"warm")  # brings the opening key back
        assert group_verify_exact(gpk, b"warm", signature)
        resident = set(fastexp._tables)
        assert resident == fastexp._registered and len(resident) == 12
        assert self._widths(gpk) == [fastexp.SYSTEM_WINDOW] * 2
        built.clear()
        for index in (3, 12):
            signature = group_sign(gpk, members[index], b"m")
            assert group_verify_exact(gpk, b"m", signature)
            assert group_verify(gpk, b"m", signature)
            assert self._widths(gpk) == [fastexp.SYSTEM_WINDOW] * 2
        assert built == []
        assert set(fastexp._tables) == resident
