"""Group signatures with judge opening (Section 3.2 of the paper).

The paper requires a scheme with three properties:

* **Anonymity / unlinkability** — a verifier learns only that *some*
  registered member signed; two signatures by the same member cannot be
  linked.
* **Public verifiability** — anyone holding the group public key can check
  membership.
* **Openability** — the judge (holder of the opening key) can recover the
  signer's identity from any valid signature.

The construction implemented here is a *ring signature with an escrowed
opening key*:

1. Every member ``i`` is registered by the judge with a membership key
   ``h_i = g^{x_i}``; the judge records ``h_i → identity``.
2. A signature on message ``M`` is an ElGamal encryption ``(c1, c2) =
   (g^r, h_i · y_J^r)`` of the signer's membership key under the judge's
   opening key ``y_J``, together with a Fiat–Shamir OR-proof
   (Cramer–Damgård–Schoenmakers composition) over the member roster that,
   for **some** ``j``, the prover knows ``(r, x_j)`` with::

       c1 = g^r   ∧   c2 / h_j = y_J^r   ∧   h_j = g^{x_j}

   The proof is bound to ``M`` through the challenge hash.
3. The judge opens a signature by decrypting ``(c1, c2)`` and looking up the
   resulting ``h_i`` in its registry.

Clause arithmetic.  Clause ``j`` of the OR-proof commits to::

    t1 = g^s_r · c1^-c_j     t2 = y_J^s_r · (c2/h_j)^-c_j     t3 = g^s_x · h_j^-c_j

A verifier evaluates these inversion-free (``base^-c == base^(q-c)`` for
order-``q`` bases) with ``w_j = h_j^c_j`` computed once, used in ``t2`` and,
inverted, in ``t3``: six exponentiations per clause instead of seven, all
``w_j^-1`` from one modular inversion.  The signer simulating the foreign
clauses chose ``r`` and holds ``x``, so ``c1^-c = g^(-rc)`` and ``c2^-c =
g^(-xc) · y_J^(-rc)``; with ``u = s_r - r·c_j mod q``::

    t1 = g^u     t2 = y_J^u · g^(-x·c_j) · w_j     t3 = g^s_x · w_j^-1

— five exponentiations per clause, all on long-lived cached tables, and the
same integers: ``c_j, s_r, s_x`` are the same uniform draws.

Deviation note (recorded in DESIGN.md §4): the paper assumes a hypothetical
"efficient group signature scheme" with constant-size signatures and guesses
its cost at 2x DSA (Table 3).  Our scheme is a real, working one but its
sign/verify cost is linear in the roster size.  The simulator therefore pins
the paper's 2x cost model (``repro.sim.costs``); the measured cost of this
scheme is reported separately by ``benchmarks/bench_table3_relative_cost.py``.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Sequence

from repro.crypto import fastexp, primitives
from repro.crypto.elgamal import ElGamalCiphertext, ElGamalKeyPair, elgamal_generate
from repro.crypto.keys import KeyPair, PublicKey
from repro.crypto.params import DlogParams, default_params


class GroupSignatureError(Exception):
    """Raised on malformed group-signature operations (never on bad sigs)."""


@dataclass(frozen=True)
class GroupPublicKey:
    """What a verifier needs: the group, the opening key, and the roster.

    The roster is a tuple of membership keys ``h_j``.  Membership keys are
    pseudonymous — only the judge can map one back to a real identity — so
    publishing the roster leaks nothing about identities.

    ``version`` identifies the roster snapshot (it advances on every
    registration *and* every expulsion), letting verifiers fetch exactly the
    snapshot a signer used and letting the system enforce a revocation
    floor: signatures minted against pre-expulsion snapshots can be refused.
    """

    params: DlogParams
    opening_key: PublicKey
    roster: tuple[int, ...]
    version: int = 0

    def encode(self) -> bytes:
        """Stable byte encoding hashed into every challenge (memoized —
        the fields are frozen, and verifiers hash it once per signature)."""
        cached = self.__dict__.get("_encode_memo")
        if cached is None:
            parts = [self.params.encode(), self.opening_key.encode()]
            parts.extend(primitives.int_to_bytes(h) for h in self.roster)
            cached = b"|".join(parts)
            object.__setattr__(self, "_encode_memo", cached)
        return cached

    def roster_index(self, h: int) -> int | None:
        """Index of membership key ``h`` in the roster, or ``None``."""
        try:
            return self.roster.index(h)
        except ValueError:
            return None


@dataclass(frozen=True)
class GroupMemberKey:
    """A member's group private key ``gk_U``: secret exponent + roster entry."""

    params: DlogParams
    x: int
    h: int  # = g^x mod p, the membership (roster) key

    @property
    def membership_key(self) -> int:
        """The public roster entry for this member."""
        return self.h


@dataclass(frozen=True)
class GroupSignature:
    """A group signature: ciphertext + per-clause OR-proof transcripts.

    ``commitments`` is the per-clause ``(t1, t2, t3)`` commitment list — a
    *verification accelerator*, not part of the signature's security.  The
    signer computes these values anyway (the challenge hash covers them), so
    attaching them is free; :func:`group_batch_verify` uses them to replace
    the per-clause equation recomputation with one randomized batch check.
    Verifiers never trust them beyond that randomized test, individual
    verification (:func:`group_verify`) ignores them entirely, and
    signatures without them (minted by an older peer, or stripped in
    transit) remain fully valid — the batch path falls back to exact
    per-signature verification for those.  Mirrors ``DsaSignature.commit``.
    """

    ciphertext: ElGamalCiphertext
    challenges: tuple[int, ...]
    responses_r: tuple[int, ...]
    responses_x: tuple[int, ...]
    commitments: tuple[tuple[int, int, int], ...] | None = None

    def encode(self) -> bytes:
        """Stable byte encoding.

        ``commitments`` is deliberately excluded: it is untrusted metadata
        that transports may strip, and the bytes here must stay identical
        for the same underlying signature either way.
        """
        parts = [self.ciphertext.encode()]
        for seq in (self.challenges, self.responses_r, self.responses_x):
            parts.extend(primitives.int_to_bytes(v) for v in seq)
        return b"|".join(parts)


class GroupManager:
    """The judge's side of the scheme: registration and opening.

    In WhoPay there is a single group containing every user (Section 3.2,
    footnote 1).  The manager can also split its opening key among ``N``
    judges with :meth:`export_opening_shares` (Shamir, Section 3.2).
    """

    def __init__(self, params: DlogParams | None = None) -> None:
        self.params = params or default_params()
        self._opening = elgamal_generate(self.params)
        # The opening key is exponentiated in every clause of every signature
        # for the lifetime of the group: precompute its fixed-base table now.
        fastexp.precompute(
            self._opening.public.y, self.params.p, self.params.q_bits, order=self.params.q
        )
        self._registry: dict[int, str] = {}  # h -> identity
        # Snapshot history: version v is _snapshots[v].  Every registration
        # and every expulsion appends a snapshot, so old signatures remain
        # verifiable against the exact roster they were minted under.
        self._snapshots: list[tuple[int, ...]] = [()]
        self._expelled: dict[str, int] = {}  # identity -> expulsion version

    @property
    def opening_keypair(self) -> ElGamalKeyPair:
        """The judge's ElGamal opening key pair (keep secret)."""
        return self._opening

    def public_key(self) -> GroupPublicKey:
        """Snapshot of the current group public key (roster included)."""
        return self.public_key_at(len(self._snapshots) - 1)

    def public_key_at(self, version: int) -> GroupPublicKey:
        """The group public key as of roster version ``version``.

        A verifier can reconstruct exactly the snapshot a signer used (the
        signer's envelope records its roster version).
        """
        if not 0 <= version < len(self._snapshots):
            raise GroupSignatureError(f"unknown roster version {version}")
        return GroupPublicKey(
            params=self.params,
            opening_key=self._opening.public,
            roster=self._snapshots[version],
            version=version,
        )

    @property
    def current_version(self) -> int:
        """The latest roster version."""
        return len(self._snapshots) - 1

    def register(self, identity: str) -> GroupMemberKey:
        """Enroll ``identity``: mint a membership key and record the mapping.

        The paper has the judge assign each user a distinct private key
        (Section 3.2); we follow that and generate the key on the judge's
        side, returning it for delivery to the member.
        """
        member = KeyPair.generate(self.params)
        if member.public.y in self._registry:  # astronomically unlikely
            raise GroupSignatureError("membership key collision")
        # Roster keys are exponentiated on every sign/verify from now on.
        fastexp.precompute(member.public.y, self.params.p, self.params.q_bits, order=self.params.q)
        self._registry[member.public.y] = identity
        self._snapshots.append(self._snapshots[-1] + (member.public.y,))
        return GroupMemberKey(params=self.params, x=member.x, h=member.public.y)

    def expel(self, identity: str) -> int:
        """Remove ``identity`` from the roster; returns the new version.

        The member can no longer produce signatures that verify against
        current (or later) snapshots.  Its registry entry is kept so the
        judge can still open the member's *historical* signatures — expelling
        a fraudster must not destroy the evidence trail.
        """
        targets = [h for h, name in self._registry.items() if name == identity]
        current = self._snapshots[-1]
        live = [h for h in targets if h in current]
        if not live:
            raise GroupSignatureError(f"{identity!r} is not an active member")
        self._snapshots.append(tuple(h for h in current if h not in live))
        self._expelled[identity] = self.current_version
        return self.current_version

    def is_expelled(self, identity: str) -> bool:
        """True if ``identity`` has been removed from the current roster."""
        return identity in self._expelled

    def member_count(self) -> int:
        """Number of currently enrolled members."""
        return len(self._snapshots[-1])

    def open(self, signature: GroupSignature) -> str | None:
        """Reveal the signer's identity (fairness).

        Returns the registered identity, or ``None`` if the decrypted
        membership key is not in the registry (which cannot happen for a
        signature that verified against this group's public key).
        """
        from repro.crypto.elgamal import elgamal_decrypt

        h = elgamal_decrypt(self._opening, signature.ciphertext)
        return self._registry.get(h)

    def export_opening_shares(self, n: int, k: int) -> list[tuple[int, int]]:
        """Split the opening exponent into ``n`` Shamir shares, threshold ``k``.

        Any ``k`` judges can jointly rebuild the opening key via
        :func:`repro.crypto.shamir.combine_shares`; fewer learn nothing.
        """
        from repro.crypto.shamir import split_secret

        return split_secret(self._opening.secret, n=n, k=k, modulus=self.params.q)


def _challenge_hash(
    gpk: GroupPublicKey,
    ciphertext: ElGamalCiphertext,
    commitments: list[tuple[int, int, int]],
    message: bytes,
) -> int:
    parts: list[bytes] = [b"group-sig-v1", gpk.encode(), ciphertext.encode()]
    for t1, t2, t3 in commitments:
        parts.append(primitives.int_to_bytes(t1))
        parts.append(primitives.int_to_bytes(t2))
        parts.append(primitives.int_to_bytes(t3))
    parts.append(message)
    return primitives.hash_to_int(*parts, modulus=gpk.params.q)


#: The verifier builds per-signature fixed-base tables for the ciphertext
#: elements once the roster reaches this size (below it, table construction
#: outweighs the lookups it saves).  The signer needs none.
_EPHEMERAL_TABLE_MIN_ROSTER = 6


def _ciphertext_tables(
    params: DlogParams, c1: int, c2: int, n: int
) -> dict[int, fastexp.FixedBaseTable]:
    """Ephemeral fixed-base tables for ``c1``/``c2``, used ``n`` times each.

    Verifier-side only: every clause :func:`group_verify` recomputes
    exponentiates both ciphertext halves, so a roster of ``n`` members
    amortizes the one-off table build ``n`` times.
    """
    if n < _EPHEMERAL_TABLE_MIN_ROSTER:
        return {}
    return {
        base: fastexp.FixedBaseTable(
            base, params.p, params.q_bits, window=fastexp.EPHEMERAL_WINDOW, order=params.q
        )
        for base in (c1, c2)  # keyed dict dedupes c1 == c2 deterministically
    }


def group_sign(gpk: GroupPublicKey, member: GroupMemberKey, message: bytes) -> GroupSignature:
    """Sign ``message`` anonymously on behalf of the group.

    The signer must appear in ``gpk.roster``; signing against a stale roster
    snapshot that predates the member's registration raises
    :class:`GroupSignatureError`.

    The simulated clauses are computed over the signer's witness (module
    docstring, "Clause arithmetic"): cached bases ``g``, ``y``, ``h_j`` only,
    one modular inversion per signature, no table for ``c1``/``c2``.
    """
    params = gpk.params
    p, q = params.p, params.q
    y = gpk.opening_key.y
    idx = gpk.roster_index(member.h)
    if idx is None:
        raise GroupSignatureError("signer is not in the roster snapshot")

    # ElGamal-encrypt the signer's membership key, keeping the nonce for the proof.
    r = params.random_exponent()
    c1 = params.pow_g(r)
    c2 = (member.h * fastexp.mod_pow(y, r, p, order=q)) % p
    ciphertext = ElGamalCiphertext(c1=c1, c2=c2)

    n = len(gpk.roster)
    challenges: list[int] = [0] * n
    responses_r: list[int] = [0] * n
    responses_x: list[int] = [0] * n
    commitments: list[tuple[int, int, int]] = [(0, 0, 0)] * n

    # Simulate every non-signer clause with a random challenge.
    foreign = [j for j in range(n) if j != idx]
    for j in foreign:
        challenges[j] = primitives.randbelow(q)
        responses_r[j] = primitives.randbelow(q)
        responses_x[j] = primitives.randbelow(q)
    ws = [fastexp.mod_pow(gpk.roster[j], challenges[j], p, order=q) for j in foreign]
    pow_g = params.fixed_g().pow
    for j, w, w_inv in zip(foreign, ws, primitives.batch_modinv(ws, p)):
        # t1 = g**u ; t2 = y**u * g**(-x*c_j) * w_j ; t3 = g**s_x * w_j**-1
        c_j = challenges[j]
        u = (responses_r[j] - r * c_j) % q
        commitments[j] = (
            pow_g(u),
            (fastexp.mod_pow(y, u, p, order=q) * pow_g(-member.x * c_j) * w) % p,
            (pow_g(responses_x[j]) * w_inv) % p,
        )

    # Honest commitment for the signer's clause.
    a = params.random_exponent()
    b = params.random_exponent()
    commitments[idx] = (pow_g(a), fastexp.mod_pow(y, a, p, order=q), pow_g(b))

    total = _challenge_hash(gpk, ciphertext, commitments, message)
    c_idx = (total - sum(challenges)) % q
    challenges[idx] = c_idx
    responses_r[idx] = (a + c_idx * r) % q
    responses_x[idx] = (b + c_idx * member.x) % q

    return GroupSignature(
        ciphertext=ciphertext,
        challenges=tuple(challenges),
        responses_r=tuple(responses_r),
        responses_x=tuple(responses_x),
        commitments=tuple(commitments),
    )


def group_verify(gpk: GroupPublicKey, message: bytes, signature: GroupSignature) -> bool:
    """Verify a group signature against the roster in ``gpk``.

    Pure predicate: returns ``False`` on any malformed input, and refuses
    an out-of-range scalar before the first exponentiation.  The clause
    equations are the verifier's form in the module docstring.

    Both ciphertext halves must be order-``q`` subgroup elements.  Honest
    signers always produce such ciphertexts; the explicit check (absent from
    the original verifier) rejects malformed ones outright *and* licenses
    the inversion-free ``base**-c == base**(q-c)`` rewriting that turns
    every clause into table lookups.  Roster keys and the opening key are
    trusted verifier inputs (they come from the judge), exactly as before.
    """
    params = gpk.params
    p, q, g = params.p, params.q, params.g
    y = gpk.opening_key.y
    n = len(gpk.roster)
    scalars = (signature.challenges, signature.responses_r, signature.responses_x)
    if not all(len(seq) == n and all(0 <= v < q for v in seq) for seq in scalars):
        return False
    c1, c2 = signature.ciphertext.c1, signature.ciphertext.c2
    if not (params.is_element(c1, memo=False) and params.is_element(c2, memo=False)):
        return False

    clauses = zip(gpk.roster, signature.challenges)
    ws = [fastexp.mod_pow(h_j, c_j, p, order=q) for h_j, c_j in clauses]
    w_invs = primitives.batch_modinv(ws, p)
    tables = _ciphertext_tables(params, c1, c2, n)
    pow_g = params.fixed_g().pow
    commitments: list[tuple[int, int, int]] = []
    for c_j, s_r, s_x, w, w_inv in zip(*scalars, ws, w_invs):
        # t1 = g**s_r * c1**-c_j ; t2 = y**s_r * c2**-c_j * w_j ; t3 = g**s_x * w_j**-1
        t1 = fastexp.multi_exp(((g, s_r), (c1, q - c_j)), p, order=q, tables=tables)
        t2 = fastexp.multi_exp(((y, s_r), (c2, q - c_j)), p, order=q, tables=tables)
        commitments.append((t1, (t2 * w) % p, (pow_g(s_x) * w_inv) % p))

    total = _challenge_hash(gpk, signature.ciphertext, commitments, message)
    return sum(signature.challenges) % q == total


#: Bit width of the per-clause randomizers in the batched equation test.
#: A forged clause survives the combination with probability ~2**-64 —
#: the same bound (and the same small-exponent technique) as
#: ``repro.crypto.dsa.dsa_batch_verify``.
BATCH_RANDOMIZER_BITS = 64


def group_batch_verify(
    gpk: GroupPublicKey, items: Sequence[tuple[bytes, GroupSignature]]
) -> bool:
    """Verify many ``(message, signature)`` pairs against one roster at once.

    The exact verifier recomputes every clause commitment ``(t1, t2, t3)``
    with three multi-exponentiations per roster member.  When a signature
    carries its ``commitments`` hint, the verifier can instead (a) check the
    Fiat–Shamir challenge hash against the *claimed* commitments — an exact,
    cheap check — and (b) confirm the claimed commitments satisfy the clause
    equations

        g**s_r           == t1 * c1**c_j
        y**s_r * h_j**c_j == t2 * c2**c_j
        g**s_x           == t3 * h_j**c_j

    with one randomized linear combination over *all* clauses of *all*
    hinted signatures: per-clause random odd 64-bit multipliers
    ``(a, b, d)`` weight the three equations, the cached bases
    (``g``, ``y``, roster keys) fold into single accumulated exponents, and
    the per-signature bases (``t*``, ``c1``, ``c2``) join one bucket-method
    product.  The final equality is checked after raising to the group
    cofactor, which projects away any small-order component an adversary
    might smuggle into a hint; the subgroup components — the only thing the
    proof system speaks about — must then cancel exactly, so a batch
    containing even one forged signature passes with probability at most
    ~2**-64.

    Two checks stay exact per signature because batching them is unsound or
    pointless: subgroup membership of ``c1``/``c2`` (cofactor components of
    *independent* ciphertexts could cancel pairwise inside a combined
    product, and fairness — judge opening — needs well-formed ciphertexts),
    and the challenge hash itself (already cheap, and it is what binds the
    claimed commitments).

    Hints are untrusted metadata: signatures whose hints are missing,
    malformed, or inconsistent with the challenge hash are verified
    individually via :func:`group_verify`, so a stripped or corrupted hint
    can never reject an honest signature — nor accept a forged one.

    Pure predicate: ``True`` iff *every* pair verifies.  Callers needing to
    identify the offender re-check individually after a ``False``.
    """
    items = list(items)
    if not items:
        return True
    params = gpk.params
    p, q, g = params.p, params.q, params.g
    y = gpk.opening_key.y
    n = len(gpk.roster)

    leftover: list[int] = []  # indices that need individual verification
    agg_g = 0  # exponent of g on the equation LHS
    agg_y = 0  # exponent of y on the equation LHS
    agg_h = [0] * n  # exponent of h_j on the LHS (E2) minus the RHS (E3)
    adhoc: list[tuple[int, int]] = []  # per-signature bases for the RHS
    for index, (message, signature) in enumerate(items):
        if not (
            len(signature.challenges)
            == len(signature.responses_r)
            == len(signature.responses_x)
            == n
        ):
            return False
        c1, c2 = signature.ciphertext.c1, signature.ciphertext.c2
        if not (params.is_element(c1, memo=False) and params.is_element(c2, memo=False)):
            return False
        if not all(
            0 <= c_j < q and 0 <= s_r < q and 0 <= s_x < q
            for c_j, s_r, s_x in zip(
                signature.challenges, signature.responses_r, signature.responses_x
            )
        ):
            return False
        hints = signature.commitments
        if (
            hints is None
            or len(hints) != n
            or not all(
                isinstance(hint, tuple)
                and len(hint) == 3
                and all(isinstance(t, int) and 0 < t < p for t in hint)
                for hint in hints
            )
        ):
            leftover.append(index)
            continue
        total = _challenge_hash(gpk, signature.ciphertext, list(hints), message)
        if sum(signature.challenges) % q != total:
            # The hash does not match the *claimed* commitments.  The hint
            # may be corrupt while the signature is valid — decide exactly.
            leftover.append(index)
            continue
        e_c1 = 0  # exponent of this signature's c1 on the RHS
        e_c2 = 0  # exponent of this signature's c2 on the RHS
        for j in range(n):
            c_j = signature.challenges[j]
            s_r = signature.responses_r[j]
            s_x = signature.responses_x[j]
            t1, t2, t3 = hints[j]
            a = secrets.randbits(BATCH_RANDOMIZER_BITS) | 1
            b = secrets.randbits(BATCH_RANDOMIZER_BITS) | 1
            d = secrets.randbits(BATCH_RANDOMIZER_BITS) | 1
            agg_g += a * s_r + d * s_x
            agg_y += b * s_r
            agg_h[j] += (b - d) * c_j
            e_c1 += a * c_j
            e_c2 += b * c_j
            adhoc.append((t1, a))
            adhoc.append((t2, b))
            adhoc.append((t3, d))
        adhoc.append((c1, e_c1 % q))
        adhoc.append((c2, e_c2 % q))

    if adhoc:
        # RHS * LHS**-1, inversion-free: every LHS base is order-q, so its
        # exponent negates as q - e.  The t* hints have unknown order — they
        # stay on the RHS with their (positive, < q) random multipliers.
        pairs = adhoc + [(g, (-agg_g) % q), (y, (-agg_y) % q)]
        pairs.extend((h_j, (-agg_h[j]) % q) for j, h_j in enumerate(gpk.roster))
        ratio = fastexp.multi_exp(pairs, p, order=q, promote=False)
        if pow(ratio, params.cofactor, p) != 1:
            return False

    return all(group_verify(gpk, *items[index]) for index in leftover)
