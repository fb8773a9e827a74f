"""DSA signatures (FIPS 186 style) over the shared Schnorr groups.

This is the workhorse signature scheme of the reproduction — the paper's
Table 2 benchmarks exactly these three operations (key generation, signature
generation, signature verification) at the 1024/160 parameter size.

Nonces are derived deterministically from the secret key and message (an
RFC 6979 flavoured HMAC construction) so that signing is safe against nonce
reuse and reproducible under test, while remaining indistinguishable from
random-nonce DSA to verifiers.

Performance engineering (DESIGN.md §1.1, "One exponentiation kernel", "One fold"):

* Verification computes ``g**u1 * y**u2`` as one product
  (:func:`repro.crypto.fastexp.multi_exp`) on the exponentiation kernel.
* Signatures carry an optional ``commit`` hint — the full ``R = g**k mod p``
  whose reduction ``R mod q`` is ``r``.  Individual verification ignores it;
  :func:`dsa_batch_verify` uses it to verify many signatures — and the group
  signatures beside them — with one randomized linear combination (the
  small-exponent test of :class:`repro.crypto.fastexp.Fold`).
* :func:`dsa_digest` exposes the per-message digest so callers that sign
  *and* verify the same message (or verify in batches) hash it only once.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.crypto import fastexp, group_signature, primitives
from repro.crypto.group_signature import GroupPublicKey, GroupSignature
from repro.crypto.keys import KeyPair, PublicKey
from repro.crypto.params import DlogParams, default_params


@dataclass(frozen=True)
class DsaSignature:
    """A DSA signature pair ``(r, s)``, both in ``[1, q)``.

    ``commit`` is the full nonce commitment ``R = g**k mod p`` (so that
    ``r == R mod q``).  It is a *verification accelerator*, not part of the
    signature's security: honest signers attach it, verifiers never trust it
    beyond the randomized batch test, and individual verification ignores it
    entirely.  Signatures without it (e.g. minted by an older peer) remain
    fully valid — batch verification just falls back to per-signature
    checking for them.
    """

    r: int
    s: int
    commit: int | None = None

    def encode(self) -> bytes:
        """Stable byte encoding (used when signatures are nested in messages)."""
        parts = primitives.int_to_bytes(self.r) + b"|" + primitives.int_to_bytes(self.s)
        if self.commit is not None:
            parts += b"|" + primitives.int_to_bytes(self.commit)
        return parts


class DsaKeyPair(KeyPair):
    """A :class:`~repro.crypto.keys.KeyPair` intended for DSA use."""


def dsa_generate(params: DlogParams | None = None) -> KeyPair:
    """Generate a DSA key pair (Table 2 row 1: "DSA key generation")."""
    return KeyPair.generate(params or default_params())


def dsa_digest(params: DlogParams, message: bytes) -> int:
    """The per-message digest both signing and verification consume.

    Hoisted out so protocol code that signs and immediately verifies (or
    batch-verifies) the same payload hashes it exactly once.
    """
    return primitives.hash_to_int(message, modulus=params.q)


def _derive_nonce(params: DlogParams, x: int, digest: int) -> int:
    """Deterministic nonce in ``[1, q)`` from the key and message digest.

    A simplified RFC 6979: HMAC-SHA256 keyed by the secret exponent over the
    message digest, in counter mode.  Candidate nonces follow RFC 6979's
    ``bits2int`` + retry-on-overflow rule: take the leftmost ``qlen`` bits of
    the MAC output and *reject* (rather than reduce) candidates outside
    ``[1, q)``.  A plain ``% q`` reduction is detectably biased once ``q``
    approaches the MAC width — at 256-bit ``q`` (the 2048/256 group) roughly
    half the nonce range would be twice as likely as the other half.
    """
    key = primitives.int_to_bytes(x).rjust(32, b"\x00")
    msg = primitives.int_to_bytes(digest).rjust(32, b"\x00")
    qlen = params.q.bit_length()
    shift = max(0, 256 - qlen)
    counter = 0
    while True:
        mac = hmac.new(key, msg + counter.to_bytes(4, "big"), hashlib.sha256).digest()
        k = int.from_bytes(mac, "big") >> shift
        if 0 < k < params.q:
            return k
        counter += 1


def dsa_sign(
    keypair: KeyPair,
    message: bytes,
    digest: int | None = None,
    pool: "DsaNoncePool | None" = None,
) -> DsaSignature:
    """Sign ``message`` (Table 2 row 2: "DSA signature generation").

    ``digest`` may be precomputed with :func:`dsa_digest`; otherwise it is
    derived here.  With ``pool`` given and non-empty, the nonce, its
    commitment, and its inverse come precomputed from the
    :class:`DsaNoncePool` (flush-amortized signing); a dry pool falls back
    to the deterministic derivation below.
    """
    params = keypair.params
    if digest is None:
        digest = dsa_digest(params, message)
    if pool is not None:
        if pool.keypair.x != keypair.x:
            raise ValueError("nonce pool belongs to a different signing key")
        triple = pool.take()
        if triple is not None:
            k, commit, r_s_k_inv = triple
            r = commit % params.q
            s = (r_s_k_inv * (digest + keypair.x * r)) % params.q
            if r != 0 and s != 0:
                return DsaSignature(r=r, s=s, commit=commit)
            # r/s == 0 (astronomically unlikely): discard the triple and
            # fall through to the deterministic re-derivation path.
    while True:
        k = _derive_nonce(params, keypair.x, digest)
        commit = params.pow_g(k)
        r = commit % params.q
        if r == 0:
            digest = (digest + 1) % params.q  # vanishingly unlikely; re-derive
            continue
        k_inv = primitives.modinv(k, params.q)
        s = (k_inv * (digest + keypair.x * r)) % params.q
        if s == 0:
            digest = (digest + 1) % params.q
            continue
        return DsaSignature(r=r, s=s, commit=commit)


def dsa_sign_batch(
    keypair: KeyPair, messages: Sequence[bytes], digests: Sequence[int] | None = None
) -> list[DsaSignature]:
    """Sign many messages, bit-identical to per-message :func:`dsa_sign`.

    Nonces stay the deterministic RFC 6979-flavoured derivation (so the
    output is byte-for-byte what sequential signing would produce — replay
    fingerprints don't move), but the per-signature modular inversion of
    ``k`` is done for the whole batch with one :func:`_batch_modinv` call.
    The vanishingly-unlikely ``r == 0`` / ``s == 0`` re-derivation cases
    fall back to :func:`dsa_sign` for just that message.
    """
    params = keypair.params
    if digests is None:
        digest_list = [dsa_digest(params, message) for message in messages]
    else:
        digest_list = list(digests)
        if len(digest_list) != len(messages):
            raise ValueError("digests, when given, must match messages 1:1")
    nonces = [_derive_nonce(params, keypair.x, digest) for digest in digest_list]
    commits = [params.pow_g(k) for k in nonces]
    inverses = primitives.batch_modinv(nonces, params.q)
    signatures: list[DsaSignature] = []
    for message, digest, commit, k_inv in zip(messages, digest_list, commits, inverses):
        r = commit % params.q
        s = (k_inv * (digest + keypair.x * r)) % params.q if r else 0
        if r == 0 or s == 0:
            signatures.append(dsa_sign(keypair, message, digest=digest))
            continue
        signatures.append(DsaSignature(r=r, s=s, commit=commit))
    return signatures


class DsaNoncePool:
    """Precomputed signing nonces: the flush-amortized half of reply signing.

    Each entry is a ready ``(k, R = g**k, k_inv)`` triple, so a pooled
    :func:`dsa_sign` costs two modular multiplications — the expensive
    exponentiation and inversion were done in bulk by :meth:`ensure`
    (the kernel for the commits, Montgomery batch inversion for the
    inverses), once per group-commit flush.

    Nonce safety: entries derive from an HMAC chain keyed by the secret
    exponent *and* a per-pool random salt, so nonces are unpredictable and
    can never repeat across pools (process restarts, crash recoveries) —
    the classic counter-only pitfall of reusing ``k`` against two different
    messages, which leaks the key, is structurally excluded.  The cost is
    that pooled signatures are not RFC 6979-reproducible; only the
    throughput pipeline installs a pool, so the deterministic default path
    (and the chaos suite's bit-identical replay fingerprints) are
    untouched.
    """

    def __init__(self, keypair: KeyPair, salt: bytes | None = None) -> None:
        self.keypair = keypair
        self._salt = secrets.token_bytes(16) if salt is None else salt
        self._counter = 0
        self._triples: list[tuple[int, int, int]] = []
        self.refills = 0
        self.generated = 0
        self.served = 0

    def __len__(self) -> int:
        return len(self._triples)

    def _next_nonce(self) -> int:
        """Next chain nonce in ``[1, q)`` (bits2int + rejection, as signing)."""
        params = self.keypair.params
        key = primitives.int_to_bytes(self.keypair.x).rjust(32, b"\x00") + self._salt
        qlen = params.q.bit_length()
        shift = max(0, 256 - qlen)
        while True:
            mac = hmac.new(
                key, b"nonce-pool|" + self._counter.to_bytes(8, "big"), hashlib.sha256
            ).digest()
            self._counter += 1
            k = int.from_bytes(mac, "big") >> shift
            if 0 < k < params.q:
                return k

    def ensure(self, count: int) -> int:
        """Top the pool up to at least ``count`` entries; returns how many
        triples were generated (0 when the pool already covers the need)."""
        need = count - len(self._triples)
        if need <= 0:
            return 0
        params = self.keypair.params
        nonces: list[int] = []
        commits: list[int] = []
        while len(nonces) < need:
            k = self._next_nonce()
            commit = params.pow_g(k)
            if commit % params.q == 0:
                continue  # r would be 0; astronomically unlikely, skip
            nonces.append(k)
            commits.append(commit)
        inverses = primitives.batch_modinv(nonces, params.q)
        self._triples.extend(zip(nonces, commits, inverses))
        self.refills += 1
        self.generated += need
        return need

    def take(self) -> tuple[int, int, int] | None:
        """Pop one ready triple, or ``None`` when the pool is dry."""
        self.served += 1 if self._triples else 0
        return self._triples.pop() if self._triples else None


def dsa_verify(
    public: PublicKey, message: bytes, signature: DsaSignature, digest: int | None = None
) -> bool:
    """Verify a signature (Table 2 row 3: "DSA signature verification").

    Returns ``False`` (never raises) on any malformed input, so protocol code
    can treat verification as a pure predicate.  ``signature.commit`` plays
    no role here — only the randomized batch test uses it.
    """
    params = public.params
    r, s = signature.r, signature.s
    if not (0 < r < params.q and 0 < s < params.q):
        return False
    if not params.is_element(public.y):
        return False
    if digest is None:
        digest = dsa_digest(params, message)
    w = primitives.modinv(s, params.q)
    u1 = (digest * w) % params.q
    u2 = (r * w) % params.q
    v = fastexp.multi_exp(((params.g, u1), (public.y, u2)), params.p, order=params.q)
    return v % params.q == r


def _join(
    fold: fastexp.Fold,
    items: Sequence[tuple[PublicKey, bytes, DsaSignature]],
    digests: Sequence[int | None],
) -> None:
    """Count ``(public, message, signature)`` triples into ``fold``.

    One joins with ``R**l * g**(-l*u1) * y**(-l*u2) == 1`` (``R`` its
    ``commit`` hint), every ``s`` inverted by one batch inversion.  The rest
    go to :func:`dsa_verify`: no hint or one that is not ``r`` mod ``q``, a
    scalar out of range, a key outside the subgroup or from another group.
    """
    params = fold.params
    p, q = params.p, params.q
    joining = []
    for (public, message, signature), digest in zip(items, digests):
        r, s, commit = signature.r, signature.s, signature.commit
        hinted = commit is not None and 0 < commit < p and commit % q == r
        if hinted and 0 < r < q and 0 < s < q and public.params == params and params.is_element(public.y):
            joining.append((public, message, signature, digest))
        else:
            fold.defer(dsa_verify, public, message, signature, digest)
    inverses = primitives.batch_modinv([signature.s for _, _, signature, _ in joining], q)
    for (public, message, signature, digest), w in zip(joining, inverses):
        if digest is None:
            digest = dsa_digest(params, message)
        multiplier = fold.hint(signature.commit)
        fold.add(params.g, -multiplier * (digest * w % q))
        fold.add(public.y, -multiplier * (signature.r * w % q))
        fold.join(dsa_verify, public, message, signature, digest)


def dsa_batch_verify(
    items: Sequence[tuple[PublicKey, bytes, DsaSignature]],
    digests: Iterable[int] | None = None,
    groups: Sequence[tuple[GroupPublicKey, Sequence[tuple[bytes, GroupSignature]]]] = (),
) -> bool:
    """Verify many ``(public, message, signature)`` triples at once.

    One randomized test (:class:`repro.crypto.fastexp.Fold`) replaces a
    double exponentiation per signature with a consistent ``commit`` hint;
    :func:`dsa_verify` decides the rest, and all of them if the fold fails.
    ``groups`` are ``(gpk, [(message, group_signature), …])`` pairs, the
    arguments of :func:`~repro.crypto.group_signature.group_batch_verify`,
    decided in the same fold: a holder envelope's two layers (§4.2), or a
    drain of them, cost one test.

    Pure predicate: ``True`` iff *every* item verifies.  Callers needing to
    identify the offender re-check individually after a ``False``.
    """
    items = list(items)
    digest_list = list(digests) if digests is not None else [None] * len(items)
    if len(digest_list) != len(items):
        raise ValueError("digests, when given, must match items 1:1")
    if not items and not groups:
        return True
    fold = fastexp.Fold((groups[0][0] if groups else items[0][0]).params)
    if not all(group_signature._join(fold, gpk, list(pairs)) for gpk, pairs in groups):
        return False
    _join(fold, items, digest_list)
    return fold.decide()
