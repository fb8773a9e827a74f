"""PKI tests: certificate issuance, verification, revocation, integration."""

import pytest

from repro.core.errors import VerificationFailed
from repro.crypto.keys import KeyPair
from repro.crypto.params import PARAMS_TEST_512
from repro.pki import CertificateAuthority, CertificateError
from repro.core.network import PeerConfig

P = PARAMS_TEST_512


@pytest.fixture()
def ca():
    return CertificateAuthority(P, validity=1000.0)


class TestIssuance:
    def test_issue_and_verify(self, ca):
        subject = KeyPair.generate(P)
        cert = ca.issue("alice", subject.public, now=0.0)
        assert cert.verify(ca.public_key, now=500.0)
        assert cert.subject == "alice"
        assert cert.subject_y == subject.public.y

    def test_expired_certificate_rejected(self, ca):
        subject = KeyPair.generate(P)
        cert = ca.issue("alice", subject.public, now=0.0)
        assert not cert.verify(ca.public_key, now=1001.0)

    def test_not_yet_valid_rejected(self, ca):
        subject = KeyPair.generate(P)
        cert = ca.issue("alice", subject.public, now=100.0)
        assert not cert.verify(ca.public_key, now=50.0)

    def test_wrong_ca_rejected(self, ca):
        other_ca = CertificateAuthority(P)
        subject = KeyPair.generate(P)
        cert = ca.issue("alice", subject.public, now=0.0)
        assert not cert.verify(other_ca.public_key, now=10.0)

    def test_self_issued_rejected(self, ca):
        mallory = KeyPair.generate(P)
        forged_ca = CertificateAuthority(P)
        forged_ca.keypair = mallory  # mallory signs her own cert
        cert = forged_ca.issue("broker", mallory.public, now=0.0)
        assert not cert.verify(ca.public_key, now=10.0)

    def test_invalid_subject_key_rejected(self, ca):
        from repro.crypto.keys import PublicKey

        with pytest.raises(CertificateError):
            ca.issue("x", PublicKey(params=P, y=P.p - 1), now=0.0)


class TestBrokerIntegration:
    def test_network_issues_certificates(self, network):
        alice = network.add_peer("alice", PeerConfig(balance=3))
        assert alice.certificate.verify(network.ca.public_key, now=network.clock.now())
        assert alice.certificate.subject == "alice"
        # The account identity came from the certificate.
        assert network.shards[0].accounts["alice"].identity.y == alice.identity.public.y

    def test_certified_purchase_works(self, network):
        alice = network.add_peer("alice", PeerConfig(balance=3))
        state = alice.purchase()
        assert state.coin_y in network.shards[0].valid_coins

    def test_broker_rejects_bad_certificate(self, network):
        from repro.pki import CertificateAuthority

        rogue_ca = CertificateAuthority(network.params)
        identity = KeyPair.generate(network.params)
        cert = rogue_ca.issue("mallory", identity.public, now=0.0)
        with pytest.raises(VerificationFailed):
            network.broker.open_account_from_certificate(cert, network.ca.public_key, 100)
        assert "mallory" not in network.shards[0].accounts

    def test_broker_rejects_expired_certificate(self, network):
        identity = KeyPair.generate(network.params)
        cert = network.ca.issue("latecomer", identity.public, now=0.0)
        network.advance(400 * 24 * 3600.0)  # past the 1-year validity
        with pytest.raises(VerificationFailed):
            network.broker.open_account_from_certificate(cert, network.ca.public_key, 5)
