"""Signed message envelopes.

WhoPay's protocols (Section 4.2) use two signing patterns:

* ``{M}_sk`` — a single DSA signature (broker signing coins, owners signing
  bindings, identity signatures during purchase/sync).
  → :class:`SignedMessage`, built with :func:`seal`.
* ``{{M}_skC}_gk`` — holder operations: the coin's secret key proves
  holdership, the group key proves (anonymously) that the holder is a
  legitimate user and lets the judge recover the identity on fraud.
  → :class:`DualSignedMessage`, built with :func:`group_seal`.

Payloads are codec values (see :mod:`repro.messages.codec`); the envelope
stores the canonical encoding so signatures stay valid across re-serialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.crypto.dsa import DsaSignature, dsa_sign, dsa_verify
from repro.crypto.group_signature import GroupMemberKey, GroupPublicKey, GroupSignature, group_sign, group_verify
from repro.crypto.keys import KeyPair, PublicKey
from repro.crypto.params import DlogParams
from repro.messages.codec import decode, encode


@dataclass(frozen=True)
class SignedMessage:
    """A payload plus one DSA signature by ``signer``."""

    payload_bytes: bytes
    signer: PublicKey
    signature: DsaSignature

    @property
    def payload(self) -> Any:
        """The decoded payload value (memoized: the fields are frozen)."""
        cached = self.__dict__.get("_payload_memo")
        if cached is None:
            cached = decode(self.payload_bytes)
            object.__setattr__(self, "_payload_memo", cached)
        return cached

    @property
    def triple(self) -> tuple[PublicKey, bytes, DsaSignature]:
        """``(signer, payload_bytes, signature)``, as the DSA verifiers take it."""
        return self.signer, self.payload_bytes, self.signature

    def verify(self) -> bool:
        """True iff the signature matches the payload and claimed signer."""
        return dsa_verify(*self.triple)

    def encode(self) -> bytes:
        """Canonical encoding of the whole envelope (for nesting/transport).

        ``sig_c`` is the signature's nonce-commitment hint (``g**k mod p``);
        it travels with the envelope so downstream verifiers can use the
        randomized batch test (:func:`repro.crypto.dsa.dsa_batch_verify`)
        instead of per-envelope verification.  It is untrusted metadata:
        dropping or corrupting it can never turn an invalid signature valid.
        """
        cached = self.__dict__.get("_encode_memo")
        if cached is None:
            cached = encode(
                {
                    "payload": self.payload_bytes,
                    "signer_y": self.signer.y,
                    "sig_r": self.signature.r,
                    "sig_s": self.signature.s,
                    "sig_c": self.signature.commit,
                }
            )
            object.__setattr__(self, "_encode_memo", cached)
        return cached


def decode_signed(data: bytes, params: DlogParams) -> SignedMessage:
    """Rebuild a :class:`SignedMessage` from its ``encode()`` output."""
    fields = decode(data)
    payload, hint = fields["payload"], fields.get("sig_c")
    scalars = (fields["signer_y"], fields["sig_r"], fields["sig_s"], 0 if hint is None else hint)
    if not isinstance(payload, bytes) or not all(isinstance(v, int) for v in scalars):
        raise ValueError("signed envelope carries a mistyped field")
    return SignedMessage(
        payload_bytes=payload,
        signer=PublicKey(params=params, y=fields["signer_y"]),
        # ``sig_c`` (the batch-verification hint) is optional: envelopes
        # sealed by older peers simply verify one at a time.
        signature=DsaSignature(r=fields["sig_r"], s=fields["sig_s"], commit=hint),
    )


@dataclass(frozen=True)
class DualSignedMessage:
    """A payload signed with a coin key and countersigned with a group key.

    The group signature covers the *coin-signed envelope*, matching the
    paper's ``{{pk_CW, C_V}_skCV}_gkV`` structure: tampering with either
    layer invalidates the outer signature.

    ``roster_version`` records which roster snapshot the signer used, so a
    verifier who registered earlier/later can fetch exactly that snapshot
    from the judge and verify.
    """

    inner: SignedMessage
    group_signature: GroupSignature
    roster_version: int = 0

    @property
    def payload(self) -> Any:
        """The decoded payload value."""
        return self.inner.payload

    @property
    def coin_signer(self) -> PublicKey:
        """The coin public key whose holder signed the inner envelope."""
        return self.inner.signer

    def verify(self, gpk: GroupPublicKey) -> bool:
        """Check both layers; pure predicate.

        The inner signature is checked exactly, not folded with the group
        layer: a fold reads its commit hint up to the cofactor, so it would
        accept a signature its own holder twisted there, which the judge's
        ``dsa_verify`` refuses on the owner's relinquishment record — and
        an exact fold saves nothing here (DESIGN.md §1.1, "One fold").
        """
        return self.inner.verify() and group_verify(gpk, self.inner.encode(), self.group_signature)


def seal(keypair: KeyPair, payload: Any, nonce_pool: Any = None) -> SignedMessage:
    """Encode ``payload`` and sign it with ``keypair``.

    ``nonce_pool`` (a :class:`repro.crypto.dsa.DsaNoncePool`) lets hot
    signers — the broker minting bindings per group-commit flush — draw a
    precomputed nonce triple instead of deriving one per signature.
    """
    payload_bytes = encode(payload)
    return SignedMessage(
        payload_bytes=payload_bytes,
        signer=keypair.public,
        signature=dsa_sign(keypair, payload_bytes, pool=nonce_pool),
    )


def group_seal(
    coin_keypair: KeyPair,
    member: GroupMemberKey,
    gpk: GroupPublicKey,
    payload: Any,
) -> DualSignedMessage:
    """Build the dual-signed holder envelope ``{{payload}_skC}_gk``."""
    return group_countersign(seal(coin_keypair, payload), member, gpk)


def group_countersign(
    inner: SignedMessage, member: GroupMemberKey, gpk: GroupPublicKey
) -> DualSignedMessage:
    """Countersign an already sealed envelope with the group key — the one
    place that stamps which roster snapshot the signature was made against."""
    return DualSignedMessage(
        inner=inner,
        group_signature=group_sign(gpk, member, inner.encode()),
        roster_version=gpk.version,
    )
