"""Node base class: an addressed, handler-dispatching network endpoint."""

from __future__ import annotations

from typing import Any, Callable

from repro.net.rpc import ReplayCache, RpcClient, unwrap_idempotent
from repro.net.transport import NetworkError, Transport

Handler = Callable[[str, Any], Any]


class Node:
    """An endpoint on a :class:`~repro.net.transport.Transport`.

    Subclasses (peers, the broker, DHT servers, i3 servers) register
    handlers per message kind with :meth:`on`; ``handle`` dispatches.
    The ``online`` flag models churn: while ``False`` the transport
    refuses delivery, exactly like an unreachable host.

    Two resilience hooks live here so every endpoint gets them uniformly:

    * **outbound** — :meth:`request` routes through ``self.rpc`` (an
      :class:`~repro.net.rpc.RpcClient`), whose transport touchpoint is
      :meth:`send_raw`.  Overlays that re-route a node's traffic (onion
      circuits) override ``send_raw``; retries then ride the overlay too.
    * **inbound** — :meth:`handle` consults a bounded
      :class:`~repro.net.rpc.ReplayCache` for idempotency-keyed requests,
      so a retried request whose original reply was lost is answered from
      the cache instead of re-running the handler (exactly-once effects).

    ``REPLAY_CACHE_CAPACITY`` bounds the dedupe cache; endpoints that serve
    many clients (the broker) override it with a larger bound.
    """

    REPLAY_CACHE_CAPACITY = 512

    def __init__(self, transport: Transport, address: str) -> None:
        self.transport = transport
        self.address = address
        self.online = True
        self._handlers: dict[str, Handler] = {}
        self.replay_cache = ReplayCache(self.REPLAY_CACHE_CAPACITY)
        self.replays_served = 0
        self.rpc = RpcClient(node=self)
        transport.register(self)

    # -- lifecycle ---------------------------------------------------------

    def go_offline(self) -> None:
        """Leave the network (requests to this node will fail)."""
        self.online = False

    def go_online(self) -> None:
        """Rejoin the network."""
        self.online = True

    # -- dispatch ----------------------------------------------------------

    def on(self, kind: str, handler: Handler) -> None:
        """Register ``handler`` for message ``kind`` (one handler per kind)."""
        if kind in self._handlers:
            raise ValueError(f"{self.address}: duplicate handler for {kind!r}")
        self._handlers[kind] = handler

    def handle(self, kind: str, src: str, payload: Any) -> Any:
        """Dispatch an incoming request (called by the transport).

        Idempotency-keyed requests are deduplicated: the first successful
        execution is cached under (kind, key) and replayed to retries and
        network duplicates.  Handler exceptions are never cached — a retry
        after an application-level rejection runs the handler again.
        """
        idem, body = unwrap_idempotent(payload)
        if idem is None:
            return self._dispatch(kind, src, payload)
        cache_key = (kind, idem)
        hit, cached = self.replay_cache.lookup(cache_key)
        if hit:
            self.replays_served += 1
            return cached
        result = self._dispatch(kind, src, body)
        self.replay_cache.store(cache_key, result)
        return result

    def _dispatch(self, kind: str, src: str, payload: Any) -> Any:
        try:
            handler = self._handlers[kind]
        except KeyError:
            raise NetworkError(f"{self.address}: no handler for message kind {kind!r}") from None
        return handler(src, payload)

    # -- outbound ----------------------------------------------------------

    def send_raw(self, dst: str, kind: str, payload: Any) -> Any:
        """The node's single transport touchpoint (overlays override this)."""
        return self.transport.request(self.address, dst, kind, payload)

    def request(self, dst: str, kind: str, payload: Any) -> Any:
        """Convenience: send a request from this node (via its RPC client)."""
        return self.rpc.call(dst, kind, payload)
