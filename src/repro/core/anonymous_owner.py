"""Owner-anonymous coins (paper Section 5.2, approach 3).

The basic design exposes the coin owner's identity inside the coin; this
extension removes it.  Coins become ``C = {h_CU, pk_CU}_skB`` where ``h_CU``
is an i3 handle; payers contact the owner *through the handle*, so "the
payee cannot tell whether the payer is the coin owner or some random peer".

The three broken dependencies the paper identifies, and how this module
restores them:

1. *Reaching the owner for transfers* → the i3 indirection overlay
   (:mod:`repro.indirection.i3`); the owner registers a trigger for each of
   its coin handles.
2. *Broker synchronization* → impossible (the broker cannot map coins to
   owners), replaced by **lazy synchronization**: the owner checks the
   public binding (or broker state) for a coin when it first serves a
   request for it after rejoining.
3. *Fraud attribution* → issuers group-sign their issue messages, so the
   judge can still open a cheating anonymous owner.

On the *holder's* side the extension is one seam: how the owner is reached
(:meth:`AnonymousOwnerPeer._ask_owner`).  What a holder sends, what it
accepts back and what its wallet then does are :class:`Peer`'s, the same
for an ownerless coin as for a basic one.
"""

from __future__ import annotations

from typing import Any

from repro.core.coin import HeldCoin, OwnedCoinState
from repro.core.errors import UnknownCoin
from repro.core.peer import Peer
from repro.crypto.keys import KeyPair
from repro.crypto.primitives import int_to_bytes
from repro.indirection.i3 import I3Overlay
from repro.net.transport import NetworkError, NodeOffline


class AnonymousOwnerPeer(Peer):
    """A peer that can own and spend ownerless (handle-addressed) coins.

    Also fully interoperates with basic coins; only coins purchased through
    :meth:`purchase_anonymous` use the extension paths.  Instances force
    lazy synchronization — there is nothing the broker could proactively
    sync for coins it cannot attribute.
    """

    def __init__(self, *args: Any, i3: I3Overlay, **kwargs: Any) -> None:
        kwargs["sync_mode"] = "lazy"
        super().__init__(*args, **kwargs)
        self.i3 = i3
        self._handle_tokens: dict[int, bytes] = {}  # coin_y -> claim token

    # -- owner side --------------------------------------------------------------

    def purchase_anonymous(self, value: int = 1, account: str | None = None) -> OwnedCoinState:
        """Buy an ownerless coin and claim its i3 handle."""
        coin_keypair = KeyPair.generate(self.params)
        handle, token = I3Overlay.mint_handle(int_to_bytes(coin_keypair.x))
        state = self._purchase(coin_keypair, value, account, handle)
        self.i3.insert_trigger(handle, token, self.address, src=self.address)
        self._handle_tokens[state.coin_y] = token
        return state

    def release_handle(self, coin_y: int) -> None:
        """Remove the i3 trigger for a coin (after it is fully retired)."""
        state = self.owned.get(coin_y)
        token = self._handle_tokens.get(coin_y)
        if state is None or token is None or state.coin.handle is None:
            raise UnknownCoin(f"no handle state for coin {coin_y:#x}")
        self.i3.remove_trigger(state.coin.handle, token, src=self.address)

    # -- holder side -------------------------------------------------------------

    def _ask_owner(self, held: HeldCoin, kind: str, payload: Any) -> Any:
        """Reach an ownerless coin's owner through its i3 handle.

        The only thing approach 3 changes on the holder's side is how the
        owner is *reached*; what is sent and what is accepted back are
        :meth:`Peer._holder_exchange`'s, as for a basic coin.  A dead-end
        trigger (owner offline) surfaces as ``NodeOffline``, on which a
        renewal falls back to the broker and a transfer is ``pay``'s call.
        """
        if not held.coin.is_ownerless:
            return super()._ask_owner(held, kind, payload)
        try:
            return self.i3.send(self.address, held.coin.handle, kind, payload)
        except NetworkError as exc:
            raise NodeOffline(f"owner unreachable via handle: {exc}") from exc
