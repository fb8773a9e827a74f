"""Register/notify on top of the DHT (paper Section 5.1).

    "To monitor this DHT-based public binding list, peers can either poll
    the bindings of interest periodically or use a register/notify mechanism
    such as Bayeux, Scribe, or CAN-mc."

This module is the Scribe stand-in: a subscriber registers interest in a
coin's binding id; every accepted put for that id is pushed to all online
subscribers as a ``binding.update`` message.  Offline subscribers simply
miss updates (and are expected to re-check when they rejoin — which is what
WhoPay's holder-side monitoring does anyway).

Notifications go through the typed :class:`~repro.core.clients.PeerClient`
facade with a light retry policy: each push carries an idempotency key, so
a duplicated or retried delivery cannot make a holder raise the same
double-spend alarm twice.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from repro.core.clients import PeerClient
from repro.dht.binding_store import BindingStore
from repro.dht.chord import key_to_id
from repro.net.rpc import RetryPolicy
from repro.net.transport import NetworkError, NodeOffline

#: One quick retry per push: notifications are best-effort (a missed one is
#: reconciled at the holder's next sync), but a cheap second attempt rides
#: out most single-message losses.
NOTIFY_POLICY = RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.05)


class NotificationHub:
    """Subscription registry + push fan-out for binding updates."""

    def __init__(self, store: BindingStore) -> None:
        self.store = store
        self._subscribers: dict[int, set[str]] = defaultdict(set)
        self.notifications_sent = 0
        self.notifications_failed = 0
        self._client = PeerClient(
            transport=store.ring.transport, src="dht-notify", policy=NOTIFY_POLICY
        )
        for node in store.ring.nodes:
            node.after_put = self._fan_out

    def subscribe(self, coin_y: int, subscriber: str) -> None:
        """Register ``subscriber`` (a transport address) for coin updates."""
        self._subscribers[self._key_id(coin_y)].add(subscriber)

    def unsubscribe(self, coin_y: int, subscriber: str) -> None:
        """Remove a registration (no-op if absent)."""
        self._subscribers[self._key_id(coin_y)].discard(subscriber)

    def subscriber_count(self, coin_y: int) -> int:
        """How many addresses watch this coin."""
        return len(self._subscribers[self._key_id(coin_y)])

    def _key_id(self, coin_y: int) -> int:
        return key_to_id(self.store._coin_key_bytes(coin_y))

    def _fan_out(self, key_id: int, value: Any) -> None:
        for subscriber in sorted(self._subscribers.get(key_id, ())):
            if not self.store.ring.transport.is_online(subscriber):
                continue
            try:
                self._client.binding_update(subscriber, value)
                self.notifications_sent += 1
            except (NodeOffline, NetworkError):
                # Best-effort push; the subscriber reconciles on next sync.
                self.notifications_failed += 1
                continue
