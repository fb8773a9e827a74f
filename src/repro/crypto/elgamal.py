"""ElGamal encryption over the shared Schnorr groups.

Used by the group-signature scheme: every group signature carries an ElGamal
encryption of the signer's membership public key under the judge's *opening
key*, which is what lets the judge — and only the judge — de-anonymize a
signature (the paper's fairness property, Section 2).

Plaintexts are group elements.  The helpers :func:`encode_int_element` /
``exponent`` plaintexts are not needed here because WhoPay only ever encrypts
membership keys, which are already subgroup elements.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto import fastexp, primitives
from repro.crypto.keys import KeyPair, PublicKey
from repro.crypto.params import DlogParams, default_params


@dataclass(frozen=True)
class ElGamalKeyPair:
    """An ElGamal key pair; ``secret`` is the decryption exponent."""

    keypair: KeyPair

    @property
    def public(self) -> PublicKey:
        """The encryption key."""
        return self.keypair.public

    @property
    def secret(self) -> int:
        """The decryption exponent."""
        return self.keypair.x


@dataclass(frozen=True)
class ElGamalCiphertext:
    """An ElGamal ciphertext ``(c1, c2) = (g^r, m * y^r)``."""

    c1: int
    c2: int

    def encode(self) -> bytes:
        """Stable byte encoding."""
        return primitives.int_to_bytes(self.c1) + b"|" + primitives.int_to_bytes(self.c2)


def elgamal_generate(params: DlogParams | None = None) -> ElGamalKeyPair:
    """Generate an ElGamal key pair."""
    return ElGamalKeyPair(keypair=KeyPair.generate(params or default_params()))


def elgamal_encrypt(public: PublicKey, element: int, nonce: int | None = None) -> ElGamalCiphertext:
    """Encrypt the subgroup element ``element`` to ``public``.

    ``nonce`` may be supplied by callers that need the encryption randomness
    for an accompanying zero-knowledge proof (the group-signature scheme
    does); otherwise a fresh one is drawn.
    """
    params = public.params
    if not params.is_element(element):
        raise ValueError("ElGamal plaintext must be a subgroup element")
    r = params.random_exponent() if nonce is None else nonce
    c1 = params.pow_g(r)
    c2 = (element * fastexp.mod_pow(public.y, r, params.p, order=params.q)) % params.p
    return ElGamalCiphertext(c1=c1, c2=c2)


def elgamal_decrypt(key: ElGamalKeyPair, ciphertext: ElGamalCiphertext) -> int:
    """Recover the plaintext subgroup element."""
    params = key.keypair.params
    shared = pow(ciphertext.c1, key.secret, params.p)
    return (ciphertext.c2 * primitives.modinv(shared, params.p)) % params.p
