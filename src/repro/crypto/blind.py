"""Chaum blind signatures (the paper's reference [9]).

The primitive behind the classical anonymous e-cash systems WhoPay's
introduction surveys: a client obtains the mint's RSA signature on a message
the mint never sees.

    blinded   = H(m) · r^e  mod n          (client, random r)
    signed    = blinded^d   mod n          (mint — a raw exponentiation)
    signature = signed · r^-1 mod n        (client)
    check:      signature^e == H(m)  mod n

Unlinkability: the mint's view (``blinded``) is uniformly random and
independent of ``m``, so it cannot connect a withdrawal to the coin later
deposited — the property :mod:`repro.baselines.ecash` builds on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.crypto import fastexp, primitives
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey, hash_to_modulus, rsa_sign_raw, rsa_verify


@dataclass(frozen=True)
class BlindingState:
    """Client-side secret state between blinding and unblinding."""

    message: bytes
    r: int


def blind(public: RsaPublicKey, message: bytes) -> tuple[int, BlindingState]:
    """Blind ``message`` for signing; returns (blinded value, secret state)."""
    n = public.n
    while True:
        r = primitives.rand_range(2, n - 1)
        if math.gcd(r, n) == 1:
            break
    # Routed through the kernel like every power of the substrate (RSA
    # moduli are odd; fastexp keeps one Montgomery context per modulus).
    blinded = (hash_to_modulus(message, n) * fastexp.mod_pow(r, public.e, n)) % n
    return blinded, BlindingState(message=message, r=r)


def sign_blinded(keypair: RsaKeyPair, blinded: int) -> int:
    """Mint side: sign a blinded value (sees nothing about the message)."""
    return rsa_sign_raw(keypair, blinded)


def unblind(public: RsaPublicKey, state: BlindingState, blind_signature: int) -> int:
    """Client side: strip the blinding factor; returns a normal FDH signature."""
    r_inv = primitives.modinv(state.r, public.n)
    return (blind_signature * r_inv) % public.n


def verify_unblinded(public: RsaPublicKey, message: bytes, signature: int) -> bool:
    """An unblinded signature verifies exactly like an ordinary one."""
    return rsa_verify(public, message, signature)
