"""Protocol message kinds and payload helpers (paper Section 4.2).

Each of the ten coarse-grained WhoPay operations maps to one or more typed
request/response exchanges.  This module centralizes the message *kind*
strings, the payload construction, and the payload-shape validation, so the
broker and peer endpoint code stays focused on protocol logic.

Network-anonymity note: the paper assumes network-level anonymity (onion
routing / Tarzan, Section 4.3) is layered underneath when desired; transport
addresses here are therefore treated as routing artifacts, not identities.
Application-level identity is carried only by keys and signatures, which is
what the anonymity analysis is about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple

from repro.core.coin import Coin, CoinBinding
from repro.core.errors import ProtocolError
from repro.crypto.dsa import DsaSignature
from repro.crypto.group_signature import GroupSignature
from repro.crypto.keys import PublicKey
from repro.crypto.params import DlogParams
from repro.messages.codec import decode, encode
from repro.messages.envelope import DualSignedMessage, SignedMessage, decode_signed

# -- message kinds ------------------------------------------------------------

# peer -> broker
PURCHASE = "whopay.purchase"
TOP_UP = "whopay.top_up"
DEPOSIT = "whopay.deposit"
DOWNTIME_TRANSFER = "whopay.downtime_transfer"
DOWNTIME_RENEWAL = "whopay.downtime_renewal"
SYNC_CHALLENGE = "whopay.sync_challenge"
SYNC = "whopay.sync"
BINDING_QUERY = "whopay.binding_query"  # lazy-sync check against the broker

# broker shard -> broker shard (federation; see docs/FEDERATION.md)
XSHARD_PREPARE = "whopay.xshard_prepare"

# peer -> peer
ISSUE_OFFER = "whopay.issue_offer"
ISSUE_COMPLETE = "whopay.issue_complete"
TRANSFER_OFFER = "whopay.transfer_offer"
TRANSFER_REQUEST = "whopay.transfer_request"
TRANSFER_COMPLETE = "whopay.transfer_complete"
RENEW_REQUEST = "whopay.renew_request"

# real-time detection
BINDING_UPDATE = "binding.update"


# -- envelope (de)serialization -------------------------------------------------
#
# Envelopes cross the transport as canonical bytes; these helpers rebuild the
# typed objects on the receiving side (``decode_signed`` lives beside
# ``SignedMessage``, so the binding store decodes with it too).


def encode_dual(message: DualSignedMessage) -> bytes:
    """Bytes form of a dual-signed (holder) envelope.

    ``gs_t`` carries the group signature's per-clause commitment hints:
    every verifier — a peer or the broker checking one envelope, the
    pipeline checking a batch (each through one fold,
    :func:`repro.crypto.dsa.dsa_batch_verify`) — folds them instead of
    recomputing the clauses.  Like ``sig_c`` on the inner envelope it is
    untrusted accelerator metadata — stripping it merely costs the receiver
    exact verification.
    """
    gs = message.group_signature
    fields = {
        "inner": message.inner.encode(),
        "roster_version": message.roster_version,
        "gs_c1": gs.ciphertext.c1,
        "gs_c2": gs.ciphertext.c2,
        "gs_challenges": list(gs.challenges),
        "gs_responses_r": list(gs.responses_r),
        "gs_responses_x": list(gs.responses_x),
    }
    if gs.commitments is not None:
        fields["gs_t"] = [list(hint) for hint in gs.commitments]
    return encode(fields)


def decode_dual(data: bytes, params: DlogParams) -> DualSignedMessage:
    """Rebuild a :class:`DualSignedMessage` from :func:`encode_dual` output."""
    from repro.crypto.elgamal import ElGamalCiphertext

    fields = decode(data)
    inner = decode_signed(fields["inner"], params)
    scalars = [fields["roster_version"], fields["gs_c1"], fields["gs_c2"]]
    for name in ("gs_challenges", "gs_responses_r", "gs_responses_x"):
        scalars.extend(fields[name])
    if not all(isinstance(v, int) for v in scalars):
        raise ValueError("dual envelope carries a mistyped field")
    hints = fields.get("gs_t")
    signature = GroupSignature(
        ciphertext=ElGamalCiphertext(c1=fields["gs_c1"], c2=fields["gs_c2"]),
        challenges=tuple(fields["gs_challenges"]),
        responses_r=tuple(fields["gs_responses_r"]),
        responses_x=tuple(fields["gs_responses_x"]),
        commitments=None if hints is None else tuple(tuple(hint) for hint in hints),
    )
    return DualSignedMessage(
        inner=inner,
        group_signature=signature,
        roster_version=fields["roster_version"],
    )


# -- payload shapes -----------------------------------------------------------


class CoinSpec(NamedTuple):
    """One coin of a purchase: its key, its value, and — for the Section 5.2
    approach-3 ownerless coin — the i3 rendezvous handle reaching its owner."""

    coin_y: int
    value: int
    handle: bytes | None = None


@dataclass(frozen=True)
class PurchaseRequest:
    """Body of the identity-signed purchase message (Section 4.2).

    One signature and one round trip buy every coin in ``coins``; a coin
    bought alone is a batch of one (the paper: "It should be straightforward
    to modify this procedure to purchase coins in batch").  A spec with a
    handle asks for an ownerless coin: the broker signs ``{h_CU, pk_CU}``
    with no owner identity inside.  The *purchase* itself stays identified
    (the broker debits a named account either way — the paper accepts that
    "the broker knows who made the initial purchase").
    """

    account: str
    coins: tuple[CoinSpec, ...]

    def to_payload(self) -> dict[str, Any]:
        """Codec-ready dict."""
        return {
            "kind": "whopay.purchase_request",
            "account": self.account,
            "coins": [list(spec) for spec in self.coins],
        }

    @classmethod
    def from_payload(cls, payload: Any) -> "PurchaseRequest":
        """Validate and rebuild; raises ``ValueError`` on bad shape."""
        if not isinstance(payload, dict) or payload.get("kind") != "whopay.purchase_request":
            raise ValueError("not a purchase request")
        raw = payload.get("coins")
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ValueError("a purchase needs at least one coin")
        coins = []
        for entry in raw:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
                raise ValueError("malformed coin spec")
            spec = CoinSpec(*entry)
            if not isinstance(spec.coin_y, int) or not isinstance(spec.value, int):
                raise ValueError("malformed coin spec")
            if spec.value <= 0:
                raise ValueError("coin value must be positive")
            if spec.handle is not None and not isinstance(spec.handle, bytes):
                raise ValueError("an ownerless coin needs a bytes handle")
            coins.append(spec)
        if len({spec.coin_y for spec in coins}) != len(coins):
            raise ValueError("duplicate coin keys in purchase")
        return cls(account=str(payload["account"]), coins=tuple(coins))


@dataclass(frozen=True)
class HolderOpRow:
    """One row of :data:`HOLDER_OPS`: who serves the operation and what it does."""

    #: Wire kind under which the coin's *owner* serves it (``None``: broker only).
    owner_kind: str | None
    #: Wire kind under which the *broker* serves it.
    broker_kind: str
    #: Fields the request must carry beyond coin, proof binding and flavour:
    #: name -> (type, what a request without it is missing).
    required: dict[str, tuple[type, str]]
    #: What the holder's wallet does on success: ``"delete"`` the entry, or
    #: replace its ``"binding"`` / its ``"coin"`` certificate with the reply.
    wallet: str


#: The four holder operations (Section 4.2) — the one statement of which
#: endpoint may serve which, read by both servers, the pool, the judge and
#: the holder's side (docs/PROTOCOL.md, "Holder operations").  The downtime
#: kinds answer *the same dual-signed request* the owner would have.
HOLDER_OPS: dict[str, HolderOpRow] = {
    "transfer": HolderOpRow(
        TRANSFER_REQUEST, DOWNTIME_TRANSFER, {"new_holder_y": (int, "a new holder key")}, "delete"
    ),
    "renewal": HolderOpRow(RENEW_REQUEST, DOWNTIME_RENEWAL, {}, "binding"),
    "deposit": HolderOpRow(None, DEPOSIT, {"payout_to": (str, "a payout account")}, "delete"),
    "top_up": HolderOpRow(
        None,
        TOP_UP,
        {"delta": (int, "a positive delta"), "funding_auth": (bytes, "a funding authorization")},
        "coin",
    ),
}


@dataclass(frozen=True)
class HolderOperation:
    """Body of a dual-signed holder message (one row of :data:`HOLDER_OPS`).

    ``op`` selects the operation; the coin and the holder's current proof
    binding travel as encoded envelopes; ``new_holder_y`` is present for
    transfers; ``payout_to`` for deposits; ``nonce`` binds the exchange to
    the payee's freshness challenge.
    """

    op: str
    coin_cert: bytes
    proof_binding: bytes
    proof_via_broker: bool
    new_holder_y: int | None = None
    payout_to: str | None = None
    nonce: bytes = b""
    #: top_up only: how much value to add and the signed debit authorization
    #: (an identity-signed ``debit_auth`` envelope for the funding account).
    delta: int | None = None
    funding_auth: bytes | None = None

    def to_payload(self) -> dict[str, Any]:
        """Codec-ready dict."""
        return {
            "kind": "whopay.holder_op",
            "op": self.op,
            "coin_cert": self.coin_cert,
            "proof_binding": self.proof_binding,
            "proof_via_broker": self.proof_via_broker,
            "new_holder_y": self.new_holder_y,
            "payout_to": self.payout_to,
            "nonce": self.nonce,
            "delta": self.delta,
            "funding_auth": self.funding_auth,
        }

    @classmethod
    def from_payload(cls, payload: Any) -> "HolderOperation":
        """Validate against the op's table row and rebuild; ``ValueError`` on bad shape."""
        if not isinstance(payload, dict) or payload.get("kind") != "whopay.holder_op":
            raise ValueError("not a holder operation")
        op = payload.get("op")
        if not isinstance(op, str) or op not in HOLDER_OPS:
            raise ValueError(f"unknown holder op {op!r}")
        for name, (kind, what) in HOLDER_OPS[op].required.items():
            value = payload.get(name)
            if not isinstance(value, kind) or (kind is int and value <= 0):
                raise ValueError(f"{op} needs {what}")
        if not all(isinstance(payload.get(n, b""), bytes) for n in ("coin_cert", "proof_binding", "nonce")):
            raise ValueError("coin certificate, proof binding and nonce must be bytes")
        return cls(
            op=op,
            coin_cert=payload["coin_cert"],
            proof_binding=payload["proof_binding"],
            proof_via_broker=bool(payload["proof_via_broker"]),
            new_holder_y=payload.get("new_holder_y"),
            payout_to=payload.get("payout_to"),
            nonce=payload.get("nonce", b""),
            delta=payload.get("delta"),
            funding_auth=payload.get("funding_auth"),
        )


@dataclass(frozen=True)
class HolderRequest:
    """A holder request as :func:`open_holder_request` opened it: every
    nested envelope decoded and shape-checked, **nothing verified yet**."""

    envelope: DualSignedMessage
    operation: HolderOperation
    coin: Coin
    proof: CoinBinding
    #: The decoded ``debit_auth`` envelope of a top-up (``None`` otherwise).
    funding_auth: SignedMessage | None

    def dsa_triples(self) -> list[tuple[PublicKey, bytes, DsaSignature]]:
        """The request's DSA signatures as ``(signer, message, signature)``,
        always in this order: holder envelope, coin certificate, proof binding."""
        return [signed.triple for signed in (self.envelope.inner, self.coin.cert, self.proof.signed)]

    def require_served_as(self, kind: str) -> None:
        """``ProtocolError`` unless the table lets an endpoint of wire ``kind`` serve this op."""
        row = HOLDER_OPS[self.operation.op]
        if kind not in (row.owner_kind, row.broker_kind):
            raise ProtocolError(f"a {self.operation.op} request cannot be served as {kind}")


def open_holder_request(data: Any, params: DlogParams, kind: str | None = None) -> HolderRequest:
    """Open the bytes of a holder request — the one place that does.

    Both servers, the verification pool and the judge call this, so they
    agree on what is malformed: *every* decode or shape failure, at any
    nesting depth (envelope, operation, coin certificate, proof binding,
    funding authorization), is a :class:`ProtocolError`.  With ``kind`` —
    the wire kind of the endpoint that received the bytes — the op must be
    one the table lets that endpoint serve.  Nothing is verified here.
    """
    try:
        envelope = decode_dual(data, params)
        operation = HolderOperation.from_payload(envelope.payload)
        coin = Coin(cert=decode_signed(operation.coin_cert, params))
        proof = CoinBinding(
            signed=decode_signed(operation.proof_binding, params),
            via_broker=operation.proof_via_broker,
        )
        binding = proof.payload
        if not coin.verify_unsigned() or not isinstance(binding, dict) or not all(
            isinstance(binding.get(name), int) for name in ("coin_y", "holder_y", "seq", "exp_date")
        ):
            raise ValueError("coin certificate or proof binding has a malformed payload")
        funding_auth = None
        if operation.funding_auth is not None:
            funding_auth = decode_signed(operation.funding_auth, params)
            if not isinstance(funding_auth.payload, dict):
                raise ValueError("funding authorization has a malformed payload")
    except (ValueError, KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed holder request: {exc}") from exc
    request = HolderRequest(envelope, operation, coin, proof, funding_auth)
    if kind is not None:
        request.require_served_as(kind)
    return request
