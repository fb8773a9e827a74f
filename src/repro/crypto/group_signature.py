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

Every signature carries its ``(t1, t2, t3)`` list as a hint, so a verifier
normally recomputes nothing: it checks the challenge hash over the claimed
commitments exactly and the clause equations (:func:`_fold`) by the one
randomized test (:class:`fastexp.Fold`: one product of ``3n`` hints with
64-bit exponents and one of ``n + 4`` order-``q`` bases, soundness
``2^-64``).  Without a usable hint, or when the fold fails, it evaluates the clauses inversion-free (``base^-c ==
base^(q-c)`` for order-``q`` bases) with ``w_j = h_j^c_j`` computed once,
used in ``t2`` and, inverted, in ``t3``: six exponentiations per clause,
all ``w_j^-1`` from one modular inversion (:func:`group_verify_exact`).
The signer simulating the foreign
clauses chose ``r`` and holds ``x`` with ``h = g^x``, so ``c1^-c =
g^(-rc)`` and ``c2^-c = h^-c · y_J^(-rc)``; with ``u = s_r - r·c_j``, ``v =
s_x - x·c_j`` (mod ``q``) and ``z_j = (h_j · h^-1)^c_j``::

    t1 = g^u     t2 = y_J^u · z_j     t3 = g^v · z_j^-1

— four exponentiations per clause where the verifier's form takes seven,
none of them on the fresh ``c1``/``c2``, and the same integers: ``c_j, s_r,
s_x`` are the same uniform draws.  A signature is one kernel pass: every
draw first, in the order the proof has always made them, then all ``4(n-1)
+ 5`` powers in one :func:`fastexp.powers` call.  Neither inversion runs in
the interpreter per signature: ``h^-1`` lives in the member key's
``h_j · h^-1`` list, built once per roster snapshot, and the ``z_j`` are
inverted from their product's ``(q-1)``-th power on the kernel (every
``z_j`` has order ``q``: roster keys are ``g^x``).

Deviation note (recorded in DESIGN.md §4): the paper assumes a hypothetical
"efficient group signature scheme" with constant-size signatures and guesses
its cost at 2x DSA (Table 3).  Our scheme is a real, working one but its
sign/verify cost is linear in the roster size.  The simulator therefore pins
the paper's 2x cost model (``repro.sim.costs``); the measured cost of this
scheme is reported separately by ``benchmarks/bench_table3_relative_cost.py``.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class GroupSignature:
    """A group signature: ciphertext + per-clause OR-proof transcripts.

    ``commitments`` is the per-clause ``(t1, t2, t3)`` commitment list — a
    *verification accelerator*, not part of the signature's security.  The
    signer computes these values anyway (the challenge hash covers them), so
    attaching them is free; :func:`group_verify` and
    :func:`group_batch_verify` use them to replace the per-clause equation
    recomputation with one randomized fold.  Verifiers never trust them
    beyond that randomized test, and signatures without them (minted by an
    older peer, or stripped in transit) remain fully valid — both verifiers
    fall back to exact recomputation for those.  Mirrors
    ``DsaSignature.commit``.
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


#: Roster versions whose :class:`GroupPublicKey` the manager keeps built:
#: the current one and the few in flight (an older one is rebuilt on demand).
MAX_PUBLIC_KEYS = 8


class GroupManager:
    """The judge's side of the scheme: registration and opening.

    In WhoPay there is a single group containing every user (Section 3.2,
    footnote 1).  The manager can also split its opening key among ``N``
    judges with :meth:`export_opening_shares` (Shamir, Section 3.2).
    """

    def __init__(self, params: DlogParams | None = None) -> None:
        self.params = params or default_params()
        self._opening = elgamal_generate(self.params)
        self._registry: dict[int, str] = {}  # h -> identity
        # Snapshot history: version v is _snapshots[v].  Every registration
        # and every expulsion appends a snapshot, so old signatures remain
        # verifiable against the exact roster they were minted under.
        self._snapshots: list[tuple[int, ...]] = [()]
        # version -> its one GroupPublicKey (the object memoises the roster encoding)
        self._public_keys: dict[int, GroupPublicKey] = {}
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
        signer's envelope records its roster version).  One object per
        version (the :data:`MAX_PUBLIC_KEYS` latest built), so all who sign or
        verify against a snapshot share its memoised roster encoding.
        """
        gpk = self._public_keys.get(version)
        if gpk is None:
            if not 0 <= version < len(self._snapshots):
                raise GroupSignatureError(f"unknown roster version {version}")
            gpk = self._public_keys[version] = GroupPublicKey(
                params=self.params,
                opening_key=self._opening.public,
                roster=self._snapshots[version],
                version=version,
            )
            if len(self._public_keys) > MAX_PUBLIC_KEYS:
                del self._public_keys[next(iter(self._public_keys))]
        return gpk

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


def _quotients(gpk: GroupPublicKey, member: GroupMemberKey) -> list[int]:
    """``h_j * h**-1`` for every roster key ``h_j`` of ``gpk``: the bases of
    the signer's ``z_j``, kept on ``member`` for the one roster snapshot they
    were built from and rebuilt when the snapshot changes, so ``h`` is
    inverted once per roster, not once per signature."""
    memo = member.__dict__.get("_quotient_memo")
    if memo is None or memo[0] != gpk.roster:
        p = gpk.params.p
        h_inv = primitives.modinv(member.h, p)
        memo = (gpk.roster, [h_j * h_inv % p for h_j in gpk.roster])
        object.__setattr__(member, "_quotient_memo", memo)
    return memo[1]


def group_sign(gpk: GroupPublicKey, member: GroupMemberKey, message: bytes) -> GroupSignature:
    """Sign ``message`` anonymously on behalf of the group.

    The signer must appear in ``gpk.roster``; signing against a stale roster
    snapshot that predates the member's registration raises
    :class:`GroupSignatureError`.

    The simulated clauses are computed over the signer's witness (module
    docstring, "Clause arithmetic"): every draw first, then every power in
    one kernel pass, then the ``z_j`` inverted by one more kernel power.
    """
    params = gpk.params
    p, q, g = params.p, params.q, params.g
    y = gpk.opening_key.y
    idx = gpk.roster_index(member.h)
    if idx is None:
        raise GroupSignatureError("signer is not in the roster snapshot")
    quotients = _quotients(gpk, member)

    # The draws, in the order the proof has always made them: the ElGamal
    # nonce, each simulated clause's (c_j, s_r, s_x), the honest (a, b).
    r = params.random_exponent()
    n = len(gpk.roster)
    challenges: list[int] = [0] * n
    responses_r: list[int] = [0] * n
    responses_x: list[int] = [0] * n
    foreign = [j for j in range(n) if j != idx]
    for j in foreign:
        challenges[j] = primitives.randbelow(q)
        responses_r[j] = primitives.randbelow(q)
        responses_x[j] = primitives.randbelow(q)
    a = params.random_exponent()
    b = params.random_exponent()

    # c1 = g**r, y**r (c2's mask), the honest clause's g**a, y**a, g**b, then
    # per simulated clause z_j = (h_j/h)**c_j, g**u, y**u, g**v: one pass.
    terms = [(g, r), (y, r), (g, a), (y, a), (g, b)]
    for j in foreign:
        c_j = challenges[j]
        u = (responses_r[j] - r * c_j) % q
        v = (responses_x[j] - member.x * c_j) % q
        terms += ((quotients[j], c_j), (g, u), (y, u), (g, v))
    powers = fastexp.powers(terms, p)
    ciphertext = ElGamalCiphertext(c1=powers[0], c2=member.h * powers[1] % p)

    commitments: list[tuple[int, int, int]] = [(0, 0, 0)] * n
    commitments[idx] = (powers[2], powers[3], powers[4])
    zs = powers[5::4]
    # Roster keys are g**x (GroupManager.register), so every z_j has order q.
    z_invs = primitives.batch_modinv(zs, p, order=q)
    clauses = zip(foreign, zs, z_invs, powers[6::4], powers[7::4], powers[8::4])
    for j, z, z_inv, g_u, y_u, g_v in clauses:
        # t1 = g**u ; t2 = y**u * z_j ; t3 = g**v * z_j**-1
        commitments[j] = (g_u, y_u * z % p, g_v * z_inv % p)

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


def _well_formed(gpk: GroupPublicKey, signatures: Sequence[GroupSignature]) -> bool:
    """The front both verifiers share: lengths, scalar ranges, then subgroup.

    Ordered by cost, over *all* signatures before the next stage, so an
    out-of-range scalar anywhere is refused before the first exponentiation.
    The subgroup checks of ``c1``/``c2`` stay exact and per signature:
    cofactor components of independent ciphertexts could cancel pairwise
    inside a combined product, and judge opening needs well-formed
    ciphertexts.  They also license ``base**-c == base**(q-c)`` below.
    """
    params = gpk.params
    n, q = len(gpk.roster), params.q
    for signature in signatures:
        scalars = (signature.challenges, signature.responses_r, signature.responses_x)
        if not all(len(seq) == n and all(0 <= v < q for v in seq) for seq in scalars):
            return False
    return all(
        params.is_element(half, memo=False)
        for signature in signatures
        for half in (signature.ciphertext.c1, signature.ciphertext.c2)
    )


def _hash_binds(
    gpk: GroupPublicKey, message: bytes, signature: GroupSignature, commitments
) -> bool:
    """True iff the challenges sum to the Fiat-Shamir hash over ``commitments``."""
    total = _challenge_hash(gpk, signature.ciphertext, commitments, message)
    return sum(signature.challenges) % gpk.params.q == total


def _hint_binds(gpk: GroupPublicKey, message: bytes, signature: GroupSignature) -> bool:
    """True iff the ``commitments`` hint is well-formed and is exactly what
    the challenge hash of this signature commits to (an exact, cheap check)."""
    hints = signature.commitments
    p = gpk.params.p
    return (
        hints is not None
        and len(hints) == len(gpk.roster)
        and all(
            isinstance(hint, tuple)
            and len(hint) == 3
            and all(isinstance(t, int) and 0 < t < p for t in hint)
            for hint in hints
        )
        and _hash_binds(gpk, message, signature, hints)
    )


def _fold(gpk: GroupPublicKey, signatures: Sequence[GroupSignature]) -> fastexp.Fold:
    """The clause equations of well-formed, bound-hint ``signatures``, as one fold.

    Every clause ``j`` of a signature whose hint passed :func:`_hint_binds`
    must satisfy

        g**s_r            == t1 * c1**c_j
        y**s_r * h_j**c_j == t2 * c2**c_j
        g**s_x            == t3 * h_j**c_j

    The hints ``t*`` are hint terms whose multipliers ``(a, b, d)`` weight
    the three equations; ``c1``/``c2`` (per signature), ``g``, ``y`` and the
    roster keys (over all of them) collect order-``q`` exponents.  Each
    equation is added as RHS / LHS: an LHS base is order-``q``, so its
    exponent just negates.
    """
    params = gpk.params
    fold = fastexp.Fold(params)
    agg_g = 0  # exponent of g on the equation LHS
    agg_y = 0  # exponent of y on the equation LHS
    agg_h = [0] * len(gpk.roster)  # exponent of h_j on the LHS (E2) minus the RHS (E3)
    for signature in signatures:
        e_c1 = 0  # exponent of this signature's c1 on the RHS
        e_c2 = 0  # exponent of this signature's c2 on the RHS
        clauses = zip(
            signature.challenges,
            signature.responses_r,
            signature.responses_x,
            signature.commitments,
        )
        for j, (c_j, s_r, s_x, (t1, t2, t3)) in enumerate(clauses):
            a, b, d = fold.hint(t1), fold.hint(t2), fold.hint(t3)
            agg_g += a * s_r + d * s_x
            agg_y += b * s_r
            agg_h[j] += (b - d) * c_j
            e_c1 += a * c_j
            e_c2 += b * c_j
        fold.add(signature.ciphertext.c1, e_c1)
        fold.add(signature.ciphertext.c2, e_c2)
    fold.add(params.g, -agg_g)
    fold.add(gpk.opening_key.y, -agg_y)
    for h_j, e in zip(gpk.roster, agg_h):
        fold.add(h_j, -e)
    return fold


def _recompute_clauses(
    gpk: GroupPublicKey, signature: GroupSignature
) -> list[tuple[int, int, int]]:
    """Every clause commitment of a well-formed signature, recomputed exactly
    (the verifier's form in the module docstring).  No randomness, no hint."""
    params = gpk.params
    p, q, g = params.p, params.q, params.g
    y = gpk.opening_key.y
    c1, c2 = signature.ciphertext.c1, signature.ciphertext.c2
    scalars = (signature.challenges, signature.responses_r, signature.responses_x)

    clauses = zip(gpk.roster, signature.challenges)
    ws = [fastexp.mod_pow(h_j, c_j, p, order=q) for h_j, c_j in clauses]
    w_invs = primitives.batch_modinv(ws, p)
    pow_g = params.pow_g
    commitments: list[tuple[int, int, int]] = []
    for c_j, s_r, s_x, w, w_inv in zip(*scalars, ws, w_invs):
        # t1 = g**s_r * c1**-c_j ; t2 = y**s_r * c2**-c_j * w_j ; t3 = g**s_x * w_j**-1
        t1 = fastexp.multi_exp(((g, s_r), (c1, q - c_j)), p, order=q)
        t2 = fastexp.multi_exp(((y, s_r), (c2, q - c_j)), p, order=q)
        commitments.append((t1, (t2 * w) % p, (pow_g(s_x) * w_inv) % p))
    return commitments


def group_verify_exact(gpk: GroupPublicKey, message: bytes, signature: GroupSignature) -> bool:
    """:func:`group_verify` without randomness: the same verdict for the
    same bytes, every time.  For adjudication (:mod:`repro.core.audit`) and
    as the reference the hinted path is tested against.

    Accepts iff the challenge hash binds over the recomputed commitments,
    or over a hint that equals them up to a factor the cofactor kills —
    exactly what :func:`_fold` accepts, so a judge never refuses evidence a
    peer was right to accept (docs/SECURITY.md, "Hinted verification").
    """
    if not _well_formed(gpk, (signature,)):
        return False
    exact = _recompute_clauses(gpk, signature)
    if _hash_binds(gpk, message, signature, exact):
        return True
    p, cofactor = gpk.params.p, gpk.params.cofactor
    return _hint_binds(gpk, message, signature) and all(
        pow(t, cofactor, p) == pow(t_exact, cofactor, p)
        for hint, clause in zip(signature.commitments, exact)
        for t, t_exact in zip(hint, clause)
    )


def group_verify(gpk: GroupPublicKey, message: bytes, signature: GroupSignature) -> bool:
    """Verify a group signature against the roster in ``gpk``.

    Pure predicate: returns ``False`` on any malformed input, and refuses
    an out-of-range scalar before the first exponentiation.  Both ciphertext
    halves must be order-``q`` subgroup elements (:func:`_well_formed`).
    Roster keys and the opening key are trusted verifier inputs (they come
    from the judge).

    A signature whose ``commitments`` hint binds — well-formed and exactly
    what the challenge hash commits to — is decided by the randomized clause
    fold (:func:`_fold`, soundness 2**-64).  Hints are untrusted: a missing,
    malformed or hash-inconsistent one, or a failed fold, leaves the verdict
    to :func:`group_verify_exact`: :func:`group_batch_verify` of one.
    """
    return group_batch_verify(gpk, [(message, signature)])


def _join(
    fold: fastexp.Fold, gpk: GroupPublicKey, items: Sequence[tuple[bytes, GroupSignature]]
) -> bool:
    """Count ``(message, signature)`` pairs into ``fold``: those whose hint
    binds join with their clauses, the rest go to :func:`group_verify_exact`.
    ``False``, counting nothing, if one is malformed (:func:`_well_formed`)."""
    if not _well_formed(gpk, [signature for _, signature in items]):
        return False
    same_group = gpk.params == fold.params
    joined = []
    for message, signature in items:
        if same_group and _hint_binds(gpk, message, signature):
            fold.join(group_verify_exact, gpk, message, signature)
            joined.append(signature)
        else:
            fold.defer(group_verify_exact, gpk, message, signature)
    if joined:
        fold.merge(_fold(gpk, joined))
    return True


def group_batch_verify(
    gpk: GroupPublicKey, items: Sequence[tuple[bytes, GroupSignature]]
) -> bool:
    """Verify many ``(message, signature)`` pairs against one roster at once.

    One shared well-formedness front, then one fold (:class:`fastexp.Fold`)
    over every signature whose hint binds, exact verification for the rest
    and for all of them should the fold fail.

    Pure predicate: ``True`` iff *every* pair verifies.  Callers needing to
    identify the offender re-check individually after a ``False``.
    """
    fold = fastexp.Fold(gpk.params)
    return _join(fold, gpk, list(items)) and fold.decide()
