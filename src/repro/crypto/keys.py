"""Key-pair abstractions and fingerprints.

WhoPay identifies coins by public keys (Section 4.1), so key material shows
up everywhere: user identity keys, per-coin keys minted on every issue and
transfer, the broker's signing key, and group membership keys.  This module
provides the common ``KeyPair``/``PublicKey`` shape all of them share, plus
the stable fingerprint used when a key has to act as a dictionary key or a
DHT key.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto import primitives
from repro.crypto.params import DlogParams


@dataclass(frozen=True)
class PublicKey:
    """A public key ``y = g^x mod p`` in a named Schnorr group."""

    params: DlogParams
    y: int

    def encode(self) -> bytes:
        """Stable byte encoding (group constants + y), suitable for hashing."""
        return self.params.encode() + b"|" + primitives.int_to_bytes(self.y)

    def fingerprint(self) -> bytes:
        """20-byte identifier for this key (truncated SHA-256 of encoding)."""
        return primitives.sha256(self.encode())[:20]

    def validate(self) -> None:
        """Raise :class:`ValueError` unless ``y`` is in the right subgroup."""
        if not self.params.is_element(self.y):
            raise ValueError("public key is not a subgroup element")


@dataclass(frozen=True)
class KeyPair:
    """A secret exponent ``x`` with its public point ``y = g^x mod p``."""

    params: DlogParams
    x: int
    public: PublicKey

    @classmethod
    def generate(cls, params: DlogParams) -> "KeyPair":
        """Mint a fresh key pair in ``params``."""
        x = params.random_exponent()
        y = params.pow_g(x)
        return cls(params=params, x=x, public=PublicKey(params=params, y=y))

    @classmethod
    def from_secret(cls, params: DlogParams, x: int) -> "KeyPair":
        """Rebuild a key pair from a stored secret exponent."""
        if not 0 < x < params.q:
            raise ValueError("secret exponent out of range")
        y = params.pow_g(x)
        return cls(params=params, x=x, public=PublicKey(params=params, y=y))

    def fingerprint(self) -> bytes:
        """Fingerprint of the public half."""
        return self.public.fingerprint()


def fingerprint(key: PublicKey | KeyPair) -> bytes:
    """Fingerprint of a key or key pair (module-level convenience)."""
    return key.fingerprint()
