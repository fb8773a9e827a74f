"""Audit trails and fraud adjudication (paper Sections 2, 4.3).

WhoPay's security model is *detect-and-punish*: "fraud such as double
spending is either prevented, or detectable and punishable", and "the audit
trails of peers and the broker ensure they will be detected and the culprits
identified and punished".  This module is the adjudication machinery:

* :func:`adjudicate_double_deposit` — given the broker's double-deposit
  evidence, decide whether a *holder* spent a coin after relinquishing it
  (the relinquishment record in the owner's audit trail convicts them) or
  the *owner* double-issued (no relinquishment exists), and have the judge
  open exactly the group signatures involved — fairness in action.
* :func:`verify_relinquishment` — check one audit-trail entry: a dual-signed
  transfer request proving the then-holder gave the coin up.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import protocol
from repro.core.errors import FraudDetected, ProtocolError
from repro.core.judge import Judge
from repro.crypto.group_signature import GroupSignatureError, group_verify_exact
from repro.crypto.params import DlogParams


@dataclass(frozen=True)
class Verdict:
    """The outcome of an adjudication."""

    culprit: str | None  # registered identity, or None if undecidable
    role: str  # "holder" | "owner" | "unknown"
    reason: str
    opened_identities: tuple[str, ...]


def verify_relinquishment(
    data: bytes, params: DlogParams, judge: Judge, coin_y: int
) -> tuple[int, int] | None:
    """Validate one relinquishment record from an owner's audit trail.

    Returns ``(holder_y, proof_seq)`` for a valid dual-signed transfer (or
    deposit) request concerning ``coin_y``, else ``None``.
    """
    try:
        request = protocol.open_holder_request(data, params)
        envelope = request.envelope
        gpk = judge.group_public_key_at(envelope.roster_version)
    except (ProtocolError, GroupSignatureError):
        return None
    # Adjudication is exact: same bytes, same verdict, no randomized fold.
    if not envelope.inner.verify():
        return None
    if not group_verify_exact(gpk, envelope.inner.encode(), envelope.group_signature):
        return None
    if request.coin.coin_y != coin_y or envelope.coin_signer.y != request.proof.holder_y:
        return None
    return request.proof.holder_y, request.proof.seq


def adjudicate_double_deposit(
    event: FraudDetected,
    owner_trail: list[bytes],
    params: DlogParams,
    judge: Judge,
) -> Verdict:
    """Decide who double-spent, given a double-deposit fraud event.

    ``event.evidence`` carries the two deposit envelopes the broker saw;
    ``owner_trail`` is the coin owner's relinquishment audit trail (the
    owner is motivated to produce it — without it, the blame defaults to the
    owner, whose identity is already exposed in the coin).

    Logic: each depositor proved holdership under some binding with a holder
    key and sequence number.  A deposit whose exact ``(holder_y, seq)`` also
    appears in a valid relinquishment (the holder demonstrably asked for the
    coin to be moved on) is holder fraud — the judge opens exactly that
    depositor's group signature.  If neither deposit is covered by a
    relinquishment, the owner produced two live bindings — owner fraud (the
    owner's identity is already exposed in the coin, so no opening needed).
    """
    coin_y = event.evidence.get("coin_y")
    deposits = [
        event.evidence.get("first_deposit"),
        event.evidence.get("second_request"),
    ]
    if coin_y is None or any(d is None for d in deposits):
        return Verdict(culprit=None, role="unknown", reason="incomplete evidence", opened_identities=())

    relinquishments: set[tuple[int, int]] = set()
    for entry in owner_trail:
        checked = verify_relinquishment(entry, params, judge, coin_y)
        if checked is not None:
            relinquishments.add(checked)

    culprits: list[str] = []
    for deposit in deposits:
        try:
            request = protocol.open_holder_request(deposit, params)
        except ProtocolError:
            continue
        key = (request.proof.holder_y, request.proof.seq)
        if key in relinquishments:
            identity = judge.open(request.envelope.group_signature)
            if identity is not None:
                culprits.append(identity)

    if culprits:
        return Verdict(
            culprit=culprits[0],
            role="holder",
            reason="deposited a coin after a signed relinquishment at the same sequence",
            opened_identities=tuple(culprits),
        )
    return Verdict(
        culprit=None,  # caller maps the coin to its (exposed) owner identity
        role="owner",
        reason="no relinquishment covers either deposited binding; owner double-issued",
        opened_identities=(),
    )
