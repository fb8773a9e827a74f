"""Access-controlled public coin-binding storage (paper Section 5.1).

The policy the paper specifies:

    "only users who know sk_CU (which, supposedly, is only the owner of the
    coin) can write to the id pk_CU (by providing the right signature, which
    can be published along with the binding to back it up), but anyone can
    read the id pk_CU … the broker should also be allowed to write to any id."

The published value is the signed binding itself: the bytes of its
:class:`~repro.messages.envelope.SignedMessage` (``encode()``, commit hint
included), so a fetched binding is byte-equal to the one the payee was
handed.  Who signed decides the flavour: the coin key is an owner write,
``pk_B`` a broker (downtime) write, and any other signer is refused.
:class:`BindingStore` wires the policy into a Chord ring as each node's
``put_validator``.  Rollback protection: a write whose sequence number is not
above the stored one is rejected, so a fraudulent owner cannot quietly
re-point a coin at an old holder.  There is no exception, not even for the
broker: a broker that died before journaling a downtime binding it had
published adopts the published bytes on the holder's retry
(``Broker._record_downtime_binding``) rather than re-signing over them.
"""

from __future__ import annotations

from typing import Any

from repro.crypto.keys import PublicKey
from repro.crypto.params import DlogParams
from repro.dht.chord import ChordRing, key_to_id
from repro.messages.envelope import SignedMessage, decode_signed


class WriteRejected(Exception):
    """A put failed the access-control or monotonicity policy."""


class BindingStore:
    """The coin-binding service on a Chord ring.

    Chord is the one fabric: a second, XOR-metric fabric cost about twice
    its messages per publish and per fetch (17.9 and 11.9 against 9.2 and
    5.2 at 12 nodes), and Chord's own replication already survives node
    crashes (``tests/dht/test_replication.py``).
    """

    def __init__(self, ring: ChordRing, params: DlogParams, broker_key: PublicKey) -> None:
        self.ring = ring
        self.params = params
        self.broker_key = broker_key
        for node in ring.nodes:
            node.put_validator = self._validate

    # -- policy -------------------------------------------------------------

    def _validate(self, key_id: int, stored: Any, value: Any) -> str | None:
        """Chord put validator: return a rejection reason or ``None``."""
        try:
            signed = decode_signed(value, self.params)
            binding = signed.payload
            coin_y, holder_y, seq = binding["coin_y"], binding["holder_y"], binding["seq"]
        except Exception:
            return "malformed binding"
        if not all(isinstance(v, int) for v in (coin_y, holder_y, seq)) or coin_y <= 0:
            return "malformed binding"
        if key_to_id(self._coin_key_bytes(coin_y)) != key_id:
            return "binding published under the wrong DHT key"
        # Access control: the coin key itself (owner write) or the broker
        # key (downtime write) — nobody else.
        if signed.signer.y not in (coin_y, self.broker_key.y):
            return "binding not signed by the coin key or the broker"
        if not signed.verify():
            return "bad signature"
        if stored is not None:
            try:
                if seq <= decode_signed(stored, self.params).payload["seq"]:
                    return "stale sequence number"
            except Exception:
                pass  # corrupt stored state never blocks a valid overwrite
        return None

    def _coin_key_bytes(self, coin_y: int) -> bytes:
        return b"whopay-binding|" + coin_y.to_bytes((coin_y.bit_length() + 7) // 8 or 1, "big")

    # -- API ------------------------------------------------------------------

    def publish(self, signed: SignedMessage, src: str = "client") -> None:
        """Publish a signed binding; raises :class:`WriteRejected` on policy failure."""
        result = self.ring.put(
            self._coin_key_bytes(signed.payload["coin_y"]), signed.encode(), src=src
        )
        if not result["ok"]:
            raise WriteRejected(result["reason"])

    def fetch(self, coin_y: int, src: str = "client") -> SignedMessage | None:
        """Read the current public binding of coin ``coin_y`` (anyone may)."""
        raw = self.ring.get(self._coin_key_bytes(coin_y), src=src)
        return None if raw is None else decode_signed(raw, self.params)
