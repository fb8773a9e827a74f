"""Public-key certificates (paper Section 4.2, Purchase).

    "He keeps sk_CU to himself and sends pk_CU along with his identity
    (e.g., in the form of a public key certificate) signed by his private
    key to the broker."

The paper assumes a PKI binding user identities to keys; this module is
that PKI: a certificate authority signs ``(subject, public key, validity)``
statements, and anyone holding the CA's key verifies them.  The broker uses
certificates to authenticate purchase/sync requests without pre-registered
key tables, and peers can use them to authenticate coin owners.

Deliberately minimal — one CA, no chains, no revocation — because WhoPay
needs exactly "a certificate authority exists"; the protocol security never
rests on PKI subtleties.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Any

from repro.crypto.keys import KeyPair, PublicKey
from repro.crypto.params import DlogParams
from repro.messages.envelope import SignedMessage, seal


class CertificateError(Exception):
    """Certificate issuance/verification failure."""


@dataclass(frozen=True)
class IdentityCertificate:
    """A CA-signed binding of a subject name to a public key."""

    signed: SignedMessage

    @property
    def payload(self) -> dict[str, Any]:
        """Decoded certificate body."""
        return self.signed.payload

    @property
    def subject(self) -> str:
        """The certified identity (a transport address in this system)."""
        return self.payload["subject"]

    @property
    def subject_y(self) -> int:
        """The certified public key value."""
        return self.payload["subject_y"]

    def subject_key(self, params: DlogParams) -> PublicKey:
        """The certified key as a verification key."""
        return PublicKey(params=params, y=self.subject_y)

    def verify(self, ca_key: PublicKey, now: float) -> bool:
        """Check the CA signature, shape, and validity window."""
        if self.signed.signer.y != ca_key.y or not self.signed.verify():
            return False
        payload = self.payload
        if not isinstance(payload, dict) or payload.get("kind") != "pki.identity_cert":
            return False
        if not isinstance(payload.get("subject"), str) or not isinstance(payload.get("subject_y"), int):
            return False
        return float(payload["not_before"]) <= now <= float(payload["not_after"])


class CertificateAuthority:
    """The (single) certificate authority."""

    def __init__(self, params: DlogParams, validity: float = 365 * 24 * 3600.0) -> None:
        self.params = params
        self.validity = validity
        self.keypair = KeyPair.generate(params)

    @property
    def public_key(self) -> PublicKey:
        """The CA verification key (distributed out of band)."""
        return self.keypair.public

    def issue(self, subject: str, subject_key: PublicKey, now: float) -> IdentityCertificate:
        """Certify that ``subject`` controls ``subject_key``.

        A real CA would demand proof of possession; here the enrollment
        channel (WhoPayNetwork.add_peer) constructs the key locally, which
        serves the same purpose.
        """
        if not self.params.is_element(subject_key.y):
            raise CertificateError("subject key is not a valid group element")
        serial = secrets.token_bytes(12)
        certificate = IdentityCertificate(
            signed=seal(
                self.keypair,
                {
                    "kind": "pki.identity_cert",
                    "subject": subject,
                    "subject_y": subject_key.y,
                    "serial": serial,
                    "not_before": int(now),
                    "not_after": int(now + self.validity),
                },
            )
        )
        return certificate
