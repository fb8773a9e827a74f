"""Real-time double-spending detection (paper Section 5.1).

The mechanism in the paper's words:

    "The idea is to make every peer's coin binding list globally readable.
    To make sure every coin owner publishes its list faithfully, a peer does
    not accept payment until verifying that the relevant public binding has
    been properly updated.  Each peer constantly monitors the public
    bindings for the coins it currently holds, and any unexpected update can
    trigger appropriate actions."

:class:`DetectionService` wires the pieces together:

* owners (and the broker, during downtime) publish each new binding to the
  access-controlled DHT *before* completing the payment;
* payees verify the public binding matches the binding they were handed
  before accepting (enforced in ``Peer._handle_payment_complete``);
* holders subscribe to their coins through the notification hub; an update
  that re-binds a coin away from the subscriber's holder key raises an
  :class:`~repro.core.peer.Alarm` on the victim — in real time, not at
  deposit time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.coin import CoinBinding
from repro.dht.binding_store import BindingStore, WriteRejected
from repro.dht.notify import NotificationHub

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.peer import Peer


class DetectionService:
    """Publish/verify/monitor façade over the DHT binding store."""

    def __init__(self, store: BindingStore, hub: NotificationHub) -> None:
        self.store = store
        self.hub = hub
        self.publishes = 0
        self.rejected_publishes = 0

    # -- publishing ----------------------------------------------------------

    def publish(self, binding: CoinBinding, src: str) -> None:
        """Publish a binding the owner (issue, transfer, renewal) or the
        broker (downtime transfer, renewal) just signed.

        The DHT's validator re-checks the signer, the signature and ``seq``
        monotonicity; a rejection (a rollback, a double-spend through the
        broker) is surfaced as :class:`WriteRejected`, not swallowed.
        """
        try:
            self.store.publish(binding.signed, src=src)
            self.publishes += 1
        except WriteRejected:
            self.rejected_publishes += 1
            raise

    # -- reading ----------------------------------------------------------------

    def fetch_binding(self, src: str, coin_y: int) -> CoinBinding | None:
        """Read the public binding of ``coin_y`` (payee check, owner check);
        its flavour is its signer's: ``pk_B`` signs only downtime bindings."""
        signed = self.store.fetch(coin_y, src=src)
        if signed is None:
            return None
        return CoinBinding(signed=signed, via_broker=signed.signer.y == self.store.broker_key.y)

    # -- monitoring ----------------------------------------------------------------

    def subscribe(self, peer: "Peer", coin_y: int) -> None:
        """Register a holder for push updates on its coin."""
        self.hub.subscribe(coin_y, peer.address)

    def unsubscribe(self, peer: "Peer", coin_y: int) -> None:
        """Stop watching a coin (after spending/depositing it)."""
        self.hub.unsubscribe(coin_y, peer.address)
