"""Judge tests: registration, opening, threshold escrow."""

import pytest

from repro.core.errors import VerificationFailed
from repro.core.judge import Judge
from repro.crypto.group_signature import group_sign
from repro.crypto.params import PARAMS_TEST_512


@pytest.fixture()
def judge():
    return Judge(PARAMS_TEST_512)


class TestRegistration:
    def test_register_grows_roster(self, judge):
        assert judge.member_count() == 0
        judge.register("alice")
        judge.register("bob")
        assert judge.member_count() == 2
        assert len(judge.group_public_key().roster) == 2

    def test_versioned_snapshots(self, judge):
        alice = judge.register("alice")
        v1 = judge.group_public_key_at(1)
        judge.register("bob")
        assert len(judge.group_public_key_at(1).roster) == 1
        assert len(judge.group_public_key_at(2).roster) == 2
        sig = group_sign(v1, alice, b"m")
        from repro.crypto.group_signature import group_verify

        assert group_verify(judge.group_public_key_at(1), b"m", sig)


class TestVerificationKey:
    """What owner, payee and broker all ask before checking a group signature."""

    def test_accepted_version_is_the_audit_key(self, judge):
        judge.register("alice")
        assert judge.verification_key(1) is judge.group_public_key_at(1)

    def test_unissued_and_revoked_versions_raise_one_type(self, judge):
        judge.register("alice")
        judge.register("bob")
        with pytest.raises(VerificationFailed, match="roster version 1000000"):
            judge.verification_key(10**6)
        floor = judge.expel("bob")
        with pytest.raises(VerificationFailed, match="revoked snapshot"):
            judge.verification_key(floor - 1)
        # The audit path still looks below the floor.
        assert len(judge.group_public_key_at(floor - 1).roster) == 2
        assert judge.verification_key(floor).version == floor


class TestOpening:
    def test_open_reveals_signer(self, judge):
        alice = judge.register("alice")
        judge.register("bob")
        sig = group_sign(judge.group_public_key(), alice, b"tx")
        assert judge.open(sig) == "alice"
        assert judge.openings_performed == 1

    def test_threshold_open_with_enough_shares(self, judge):
        alice = judge.register("alice")
        sig = group_sign(judge.group_public_key(), alice, b"tx")
        shares = judge.export_opening_shares(n=5, k=3)
        assert judge.threshold_open(shares[1:4], sig) == "alice"

    def test_threshold_open_with_too_few_shares_fails(self, judge):
        alice = judge.register("alice")
        sig = group_sign(judge.group_public_key(), alice, b"tx")
        shares = judge.export_opening_shares(n=5, k=3)
        assert judge.threshold_open(shares[:2], sig) is None
