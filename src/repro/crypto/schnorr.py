"""Schnorr proofs of knowledge of a discrete logarithm.

WhoPay's issue and transfer protocols contain an ownership challenge:
"U … answers a challenge by V to prove he is the owner of the coin"
(Section 4.2).  Because coins are public keys, the natural instantiation is
a Schnorr proof of knowledge of the coin's secret key, made non-interactive
with the Fiat–Shamir transform and bound to a verifier-chosen challenge
nonce (so transcripts cannot be replayed to a different verifier).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.crypto import fastexp, primitives
from repro.crypto.keys import KeyPair, PublicKey


@dataclass(frozen=True)
class SchnorrProof:
    """A non-interactive Schnorr proof ``(commitment, response)``."""

    commitment: int  # t = g^v mod p
    response: int  # z = v + c*x mod q

    def encode(self) -> bytes:
        """Stable byte encoding."""
        return primitives.int_to_bytes(self.commitment) + b"|" + primitives.int_to_bytes(self.response)


def _challenge(public: PublicKey, commitment: int, context: bytes) -> int:
    params = public.params
    return primitives.hash_to_int(
        b"schnorr-v1",
        public.encode(),
        primitives.int_to_bytes(commitment),
        context,
        modulus=params.q,
    )


def schnorr_prove(keypair: KeyPair, context: bytes) -> SchnorrProof:
    """Prove knowledge of ``keypair.x``, bound to ``context``.

    ``context`` should include the verifier's fresh nonce plus any protocol
    state the proof must commit to (coin id, session id); this is what makes
    the ownership challenge unreplayable.
    """
    params = keypair.params
    v = params.random_exponent()
    t = params.pow_g(v)
    c = _challenge(keypair.public, t, context)
    z = (v + c * keypair.x) % params.q
    return SchnorrProof(commitment=t, response=z)


def schnorr_verify(public: PublicKey, proof: SchnorrProof, context: bytes) -> bool:
    """Check a proof against the same ``context`` the prover used."""
    params = public.params
    if not params.is_element(public.y):
        return False
    if not (0 < proof.commitment < params.p) or not (0 <= proof.response < params.q):
        return False
    c = _challenge(public, proof.commitment, context)
    lhs = params.pow_g(proof.response)
    rhs = (
        proof.commitment * fastexp.mod_pow(public.y, c, params.p, order=params.q)
    ) % params.p
    return lhs == rhs


def _join(fold: fastexp.Fold, items: Sequence[tuple[PublicKey, SchnorrProof, bytes]]) -> None:
    """Count ``(public, proof, context)`` triples into ``fold``: ``t**l *
    y**(l*c) * g**(-l*z) == 1`` with the commitment ``t`` as the hint term,
    or :func:`schnorr_verify` for a value out of range or a foreign key."""
    params = fold.params
    for public, proof, context in items:
        in_range = 0 < proof.commitment < params.p and 0 <= proof.response < params.q
        if not (in_range and public.params == params and params.is_element(public.y)):
            fold.defer(schnorr_verify, public, proof, context)
            continue
        c = _challenge(public, proof.commitment, context)
        multiplier = fold.hint(proof.commitment)
        fold.add(public.y, multiplier * c)
        fold.add(params.g, -multiplier * proof.response)
        fold.join(schnorr_verify, public, proof, context)


def schnorr_batch_verify(
    items: Sequence[tuple[PublicKey, SchnorrProof, bytes]],
) -> bool:
    """Verify many ``(public, proof, context)`` triples at once.

    One randomized small-exponent test (:class:`repro.crypto.fastexp.Fold`)
    over the equations ``g**z_i == t_i * y_i**c_i``; :func:`schnorr_verify`
    for a proof that cannot join, and for all of them should it fail.

    Pure predicate: ``True`` iff every proof verifies.
    """
    items = list(items)
    if not items:
        return True
    fold = fastexp.Fold(items[0][0].params)
    _join(fold, items)
    return fold.decide()
