"""Coins, bindings, and wallet state (paper Section 4.1).

The WhoPay data model in one sentence: a **coin** is a broker-signed public
key, and who currently holds it is conveyed by a **binding** — an owner- (or
broker-)signed statement "coin ``pk_CU`` is now represented by ``pk_CV``" —
whose corresponding private key is known only to the holder.

Three views of a coin exist in the system:

* :class:`Coin` — the broker certificate ``C`` everyone can check.
* :class:`CoinBinding` — the latest ``{C, pk_holder, seq, exp_date}``
  signature; the holder keeps it as proof, the owner keeps it as state, and
  (with the Section 5.1 extension) the DHT publishes it to the world.
* wallet entries — :class:`HeldCoin` on the holder side (includes the holder
  secret key) and :class:`OwnedCoinState` on the owner side (includes the
  coin secret key and the relinquishment audit trail).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.crypto.keys import KeyPair, PublicKey
from repro.crypto.params import DlogParams
from repro.messages.envelope import SignedMessage, seal


@dataclass(frozen=True)
class Coin:
    """The broker-signed coin certificate ``C``.

    Basic WhoPay (Section 4): ``C = {U, pk_CU}_skB`` — the owner's identity
    is inside the coin.  The owner-anonymous extension (Section 5.2,
    approach 3) drops the identity and optionally adds an i3 ``handle``:
    ``C = {h_CU, pk_CU}_skB``.
    """

    cert: SignedMessage

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        broker_keypair: KeyPair,
        coin_y: int,
        value: int,
        owner_address: str | None,
        owner_y: int | None,
        handle: bytes | None = None,
    ) -> "Coin":
        """Mint (sign) a coin certificate.  Broker-side only."""
        payload: dict[str, Any] = {
            "kind": "whopay.coin",
            "coin_y": coin_y,
            "value": value,
            "owner": owner_address,
            "owner_y": owner_y,
            "handle": handle,
        }
        return cls(cert=seal(broker_keypair, payload))

    @classmethod
    def build_batch(
        cls,
        broker_keypair: KeyPair,
        specs: list[dict[str, Any]],
    ) -> list["Coin"]:
        """Mint many certificates with one batched signing pass.

        ``specs`` entries carry the :meth:`build` keyword arguments
        (``coin_y``, ``value``, ``owner_address``, ``owner_y``, ``handle``).
        Output is bit-identical to calling :meth:`build` per spec — the
        batching only amortizes the signing-side modular inversions
        (:func:`repro.crypto.dsa.dsa_sign_batch`).
        """
        from repro.crypto.dsa import dsa_sign_batch
        from repro.messages.codec import encode

        payload_bytes = [
            encode(
                {
                    "kind": "whopay.coin",
                    "coin_y": spec["coin_y"],
                    "value": spec["value"],
                    "owner": spec.get("owner_address"),
                    "owner_y": spec.get("owner_y"),
                    "handle": spec.get("handle"),
                }
            )
            for spec in specs
        ]
        signatures = dsa_sign_batch(broker_keypair, payload_bytes)
        return [
            cls(
                cert=SignedMessage(
                    payload_bytes=raw,
                    signer=broker_keypair.public,
                    signature=signature,
                )
            )
            for raw, signature in zip(payload_bytes, signatures)
        ]

    # -- accessors ----------------------------------------------------------

    @property
    def payload(self) -> dict[str, Any]:
        """The decoded certificate payload."""
        return self.cert.payload

    @property
    def coin_y(self) -> int:
        """The coin's identifying public key value ``pk_CU``."""
        return self.payload["coin_y"]

    @property
    def value(self) -> int:
        """Denomination assigned at purchase."""
        return self.payload["value"]

    @property
    def owner_address(self) -> str | None:
        """Owner's network identity, or ``None`` for ownerless coins."""
        return self.payload["owner"]

    @property
    def owner_y(self) -> int | None:
        """Owner's identity public key, or ``None`` for ownerless coins."""
        return self.payload["owner_y"]

    @property
    def handle(self) -> bytes | None:
        """i3 handle for owner-anonymous coins, else ``None``."""
        return self.payload["handle"]

    @property
    def is_ownerless(self) -> bool:
        """True for Section 5.2 approach-3 coins."""
        return self.owner_address is None

    def coin_public_key(self, params: DlogParams) -> PublicKey:
        """The coin's public key as a verification key."""
        return PublicKey(params=params, y=self.coin_y)

    def verify_unsigned(self) -> bool:
        """Payload-shape check alone (no signature); pure predicate.

        Used by callers that fold the certificate signature into a
        randomized DSA batch with a request's other signatures.
        """
        payload = self.payload
        return (
            isinstance(payload, dict)
            and payload.get("kind") == "whopay.coin"
            and isinstance(payload.get("coin_y"), int)
            and isinstance(payload.get("value"), int)
            and payload["value"] > 0
        )

    def verify(self, broker_key: PublicKey) -> bool:
        """Check the broker's signature and payload shape; pure predicate."""
        if self.cert.signer.y != broker_key.y:
            return False
        if not self.cert.verify():
            return False
        return self.verify_unsigned()

    def encode(self) -> bytes:
        """Canonical bytes (for nesting in other payloads)."""
        return self.cert.encode()


@dataclass(frozen=True)
class CoinBinding:
    """``Coin_state = {C, pk_holder, seq, exp_date}`` signed by owner or broker.

    ``via_broker`` distinguishes the downtime flavour: the broker signs with
    its own key instead of the coin key (Section 4.2, downtime protocols).
    """

    signed: SignedMessage
    via_broker: bool

    @classmethod
    def build(
        cls,
        signer: KeyPair,
        coin_y: int,
        holder_y: int,
        seq: int,
        exp_date: float,
        via_broker: bool = False,
        nonce_pool: Any = None,
    ) -> "CoinBinding":
        """Sign a fresh binding.  ``signer`` is the coin keypair or broker's.

        ``nonce_pool`` threads through to :func:`repro.messages.envelope.seal`
        so the broker's per-flush binding minting can draw precomputed
        nonces (see :class:`repro.crypto.dsa.DsaNoncePool`).
        """
        payload = {
            "kind": "whopay.binding",
            "coin_y": coin_y,
            "holder_y": holder_y,
            "seq": seq,
            "exp_date": int(exp_date),
        }
        return cls(signed=seal(signer, payload, nonce_pool=nonce_pool), via_broker=via_broker)

    @property
    def payload(self) -> dict[str, Any]:
        """The decoded binding payload."""
        return self.signed.payload

    @property
    def coin_y(self) -> int:
        """Which coin this binding is about."""
        return self.payload["coin_y"]

    @property
    def holder_y(self) -> int:
        """The current holder's coin-local public key ``pk_CH``."""
        return self.payload["holder_y"]

    @property
    def seq(self) -> int:
        """Monotonic sequence number (fresh issue picks a random start)."""
        return self.payload["seq"]

    @property
    def exp_date(self) -> float:
        """Expiry timestamp; the coin must be renewed before it."""
        return float(self.payload["exp_date"])

    def verify_unsigned(self, coin_key: PublicKey, broker_key: PublicKey) -> bool:
        """Every check except the signature itself; pure predicate.

        Split out so callers holding *many* bindings from the same signer
        (the sync protocol) can do the structural checks per binding and
        hand all the signatures to one randomized batch verification
        (:func:`repro.crypto.dsa.dsa_batch_verify`).
        """
        expected = broker_key if self.via_broker else coin_key
        if self.signed.signer.y != expected.y:
            return False
        payload = self.payload
        return (
            isinstance(payload, dict)
            and payload.get("kind") == "whopay.binding"
            and payload.get("coin_y") == coin_key.y
            and isinstance(payload.get("holder_y"), int)
            and isinstance(payload.get("seq"), int)
        )

    def verify(self, coin_key: PublicKey, broker_key: PublicKey) -> bool:
        """Check the signature against the appropriate signer; pure predicate."""
        return self.verify_unsigned(coin_key, broker_key) and self.signed.verify()

    def encode(self) -> bytes:
        """Canonical bytes."""
        return self.signed.encode()


@dataclass
class HeldCoin:
    """Holder-side wallet entry: the coin, my secret, and my proof."""

    coin: Coin
    holder_keypair: KeyPair
    binding: CoinBinding

    @property
    def coin_y(self) -> int:
        """The held coin's identifying key."""
        return self.coin.coin_y

    @property
    def value(self) -> int:
        """Denomination."""
        return self.coin.value

    def is_expired(self, now: float) -> bool:
        """True once the binding's expiry has passed."""
        return now > self.binding.exp_date

    def needs_renewal(self, now: float, window: float) -> bool:
        """True when inside the renewal window before expiry."""
        return not self.is_expired(now) and (self.binding.exp_date - now) <= window


@dataclass
class OwnedCoinState:
    """Owner-side state for one coin the peer purchased.

    ``relinquishments`` is the audit trail the paper requires: every transfer
    request the owner served, proving the previous holder gave the coin up.
    ``dirty`` marks coins whose authoritative binding may live at the broker
    (a downtime operation happened); lazy synchronization clears it.
    """

    coin: Coin
    coin_keypair: KeyPair
    binding: CoinBinding | None = None  # None until first issued
    relinquishments: list[bytes] = field(default_factory=list)
    dirty: bool = False
    #: Highest sequence number ever signed for this coin, including bindings
    #: from *failed* issue attempts that may already be on the public list;
    #: retries must stay above it or the DHT's rollback protection (rightly)
    #: rejects them.
    seq_floor: int = 0
    #: How much of ``relinquishments`` the owner's journal already holds: the
    #: next ``owned_put`` writes the trail from here on (bookkeeping of the
    #: peer's store, not coin state — it stays out of comparisons).
    trail_journaled: int = field(default=0, compare=False)

    @property
    def coin_y(self) -> int:
        """The coin's identifying key."""
        return self.coin.coin_y

    @property
    def issued(self) -> bool:
        """True once the coin has been issued at least once."""
        return self.binding is not None
