"""Typed endpoint facades over the protocol's message kinds.

Every internal caller used to hand-roll ``transport.request(src, dst, kind,
payload)``; these facades are now the only internal way protocol traffic is
sent.  One method per message kind — except the holder operations, whose
kinds are rows of :data:`repro.core.protocol.HOLDER_OPS`: one method per
facade (:meth:`BrokerClient.holder_op`, :meth:`PeerClient.holder_request`)
sends whichever kind the row names — so:

* idempotency keys and the call's deadline are threaded in exactly one place
  (every *mutating* exchange gets a fresh key; reads go bare);
* retry exhaustion maps to one structured error,
  :class:`~repro.core.errors.ServiceUnavailable`, instead of each caller
  interpreting raw transport exceptions;
* the retry policy is configured once per endpoint (default: single
  attempt — raw transport semantics and wire format — with chaos-grade
  policies opt-in via the ``policy`` argument).

A facade binds either to a :class:`~repro.net.node.Node` (normal protocol
endpoints; traffic follows the node's ``send_raw``, so onion-routed nodes
stay onion-routed) or to a bare transport with an explicit source address
(infrastructure senders like the DHT notification hub).
"""

from __future__ import annotations

from typing import Any, TYPE_CHECKING

from repro.core import protocol
from repro.core.errors import ServiceUnavailable
from repro.net.rpc import (
    RetriesExhausted,
    RetryPolicy,
    RpcClient,
    RpcTimeout,
    new_idempotency_key,
)
from repro.net.transport import Transport

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.sharding import ShardMap  # imports repro.dht, which imports us
    from repro.net.node import Node


class EndpointClient:
    """Shared plumbing: an RPC client plus the exhaustion→error mapping."""

    def __init__(
        self,
        node: "Node | None" = None,
        *,
        transport: Transport | None = None,
        src: str | None = None,
        policy: RetryPolicy | None = None,
    ) -> None:
        self._rpc = RpcClient(node=node, transport=transport, policy=policy)
        self._src = src

    @property
    def stats(self):
        """The underlying RPC telemetry (retries, recoveries, backoff)."""
        return self._rpc.stats

    def _call(
        self,
        dst: str,
        kind: str,
        payload: Any,
        *,
        mutating: bool,
    ) -> Any:
        key = new_idempotency_key() if mutating else None
        try:
            return self._rpc.call(
                dst,
                kind,
                payload,
                src=self._src,
                idempotency_key=key,
                deadline=None,  # unbounded until admission control (ROADMAP item 11 (3))
            )
        except (RetriesExhausted, RpcTimeout) as exc:
            raise ServiceUnavailable(
                f"{kind} to {dst} unavailable after {exc.attempts} attempt(s)",
                attempts=exc.attempts,
                last_error=exc.last_error,
            ) from exc


class BrokerClient(EndpointClient):
    """Peer→broker operations, one method per kind (one for the four holder kinds).

    Mutating operations (everything that moves value or commits broker
    state — including :meth:`sync_challenge`, whose handler mints a pending
    nonce) carry idempotency keys when the policy retries.

    The ``shard_map`` ring is the only broker address book, a lone broker
    being a ring of one.  Every call routes to the shard owning the
    operation's anchor key — purchases to the *account's* home (it debits
    there), holder operations and binding queries to the *coin's* home
    (circulation state lives there), syncs to the shard the caller names
    (owners fan out over the shards holding their coins).
    """

    def __init__(
        self,
        node: "Node",
        shard_map: "ShardMap",
        policy: RetryPolicy | None = None,
    ) -> None:
        super().__init__(node, policy=policy)
        self.shard_map = shard_map

    def purchase(self, signed_request: bytes, *, account: str) -> Any:
        """Mint the coins of a purchase request; returns their encoded
        certificates, in request order."""
        return self._call(
            self.shard_map.shard_for_account(account),
            protocol.PURCHASE,
            signed_request,
            mutating=True,
        )

    def holder_op(self, op: str, dual_envelope: bytes, *, coin_y: int) -> Any:
        """One of the four holder operations, under the broker kind its row of
        :data:`protocol.HOLDER_OPS` names; returns the broker's reply (a new
        binding, a re-certified coin, or the deposit's result dict)."""
        return self._call(
            self.shard_map.shard_for_coin(coin_y),
            protocol.HOLDER_OPS[op].broker_kind,
            dual_envelope,
            mutating=True,
        )

    def sync_challenge(self, *, shard: str) -> bytes:
        """Start a proactive sync with ``shard``; returns its freshness nonce."""
        return self._call(
            shard,
            protocol.SYNC_CHALLENGE,
            None,
            mutating=True,
        )

    def sync(self, signed_challenge: bytes, *, shard: str) -> Any:
        """Complete a proactive sync with ``shard``; returns the missed-binding list."""
        return self._call(
            shard,
            protocol.SYNC,
            signed_challenge,
            mutating=True,
        )

    def binding_query(self, coin_y: int) -> bytes | None:
        """Lazy-sync read of one coin's authoritative binding (idempotent read)."""
        return self._call(
            self.shard_map.shard_for_coin(coin_y),
            protocol.BINDING_QUERY,
            coin_y,
            mutating=False,
        )


class PeerClient(EndpointClient):
    """Peer→peer operations, one method per kind (one for the two an owner serves).

    The offer steps are mutating (the payee mints a holder key and records
    pending state), so a retried offer returns the *same* holder key and
    nonce instead of leaking abandoned pending entries.
    """

    def issue_offer(self, payee: str, coin_cert: bytes) -> dict[str, Any]:
        """Open an issue exchange; returns {holder_y, nonce}."""
        return self._call(payee, protocol.ISSUE_OFFER, coin_cert, mutating=True)

    def issue_complete(self, payee: str, payload: dict[str, Any]) -> dict[str, Any]:
        """Deliver the signed binding closing an issue; returns {ok, reason}."""
        return self._call(payee, protocol.ISSUE_COMPLETE, payload, mutating=True)

    def transfer_offer(self, payee: str, coin_cert: bytes) -> dict[str, Any]:
        """Open a transfer exchange; returns {holder_y, nonce}."""
        return self._call(payee, protocol.TRANSFER_OFFER, coin_cert, mutating=True)

    def holder_request(self, owner: str, kind: str, payload: Any) -> Any:
        """Ask the owner to serve a holder operation it may serve — ``kind``
        is ``TRANSFER_REQUEST`` (returns {binding}) or ``RENEW_REQUEST``
        (returns the new binding)."""
        return self._call(owner, kind, payload, mutating=True)

    def transfer_complete(self, payee: str, payload: dict[str, Any]) -> dict[str, Any]:
        """Deliver the new binding closing a transfer; returns {ok, reason}."""
        return self._call(payee, protocol.TRANSFER_COMPLETE, payload, mutating=True)

    def binding_update(self, subscriber: str, record_bytes: bytes) -> None:
        """Push a public-binding change to a monitoring holder."""
        return self._call(subscriber, protocol.BINDING_UPDATE, record_bytes, mutating=True)
