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
"""

from __future__ import annotations

from typing import Any

from repro.core import protocol
from repro.core.coin import CoinBinding, OwnedCoinState
from repro.core.errors import CoinExpired, NotHolder, ProtocolError, UnknownCoin, VerificationFailed
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
        request = protocol.PurchaseRequest(
            coin_y=coin_keypair.public.y,
            value=value,
            account=account if account is not None else self.address,
            anonymous=True,
            handle=handle,
        )
        from repro.messages.envelope import seal

        signed = seal(self.identity, request.to_payload())
        coin_bytes = self.broker_client.purchase(signed.encode(), account=request.account)
        from repro.core.coin import Coin

        coin = Coin(cert=protocol.decode_signed(coin_bytes, self.params))
        if not coin.verify(self.broker_key) or coin.handle != handle:
            raise VerificationFailed("broker returned an invalid anonymous coin")
        self.i3.insert_trigger(handle, token, self.address, src=self.address)
        state = OwnedCoinState(coin=coin, coin_keypair=coin_keypair)
        self.owned[coin.coin_y] = state
        self._wal_owned(state)
        self._handle_tokens[coin.coin_y] = token
        self.counts.purchases += 1
        return state

    def depart(self) -> None:
        """Go offline; i3 triggers stay registered but dead-end until rejoin."""
        super().depart()

    def release_handle(self, coin_y: int) -> None:
        """Remove the i3 trigger for a coin (after it is fully retired)."""
        state = self.owned.get(coin_y)
        token = self._handle_tokens.get(coin_y)
        if state is None or token is None or state.coin.handle is None:
            raise UnknownCoin(f"no handle state for coin {coin_y:#x}")
        self.i3.remove_trigger(state.coin.handle, token, src=self.address)

    # -- payer side ----------------------------------------------------------------

    def transfer(self, payee: str, coin_y: int | None = None) -> CoinBinding:
        """Transfer a held coin; ownerless coins route via the i3 handle."""
        held = self._pick_held_any(coin_y)
        if not held.coin.is_ownerless:
            return super().transfer(payee, held.coin_y)
        if held.is_expired(self.clock.now()):
            raise CoinExpired(f"coin {held.coin_y:#x} expired")
        offer = self.peer_client.transfer_offer(payee, held.coin.encode())
        envelope = self._holder_envelope(
            held, "transfer", new_holder_y=offer["holder_y"], nonce=offer["nonce"]
        )
        self._expected_rebinds.add(held.coin_y)
        try:
            response = self.i3.send(
                self.address,
                held.coin.handle,
                protocol.TRANSFER_REQUEST,
                {
                    "envelope": protocol.encode_dual(envelope),
                    "payee": payee,
                    "nonce": offer["nonce"],
                },
            )
        except (NodeOffline, NetworkError) as exc:
            raise NodeOffline(f"owner unreachable via handle: {exc}") from exc
        binding = CoinBinding(
            signed=protocol.decode_signed(response["binding"], self.params),
            via_broker=False,
        )
        if not binding.verify(held.coin.coin_public_key(self.params), self.broker_key):
            raise VerificationFailed("owner returned an invalid transfer binding")
        if binding.holder_y != offer["holder_y"] or binding.seq <= held.binding.seq:
            raise VerificationFailed("transfer binding does not match the request")
        if self.detection is not None:
            self.detection.unsubscribe(self, held.coin_y)
        del self.wallet[held.coin_y]
        self._wal_del(held.coin_y)
        self._expected_rebinds.discard(held.coin_y)
        self.counts.transfers_sent += 1
        return binding

    def renew(self, coin_y: int) -> CoinBinding:
        """Renew; ownerless coins try the handle first, broker on failure."""
        held = self.wallet.get(coin_y)
        if held is None:
            raise NotHolder(f"not holding coin {coin_y:#x}")
        if not held.coin.is_ownerless:
            return super().renew(coin_y)
        envelope = self._holder_envelope(held, "renewal")
        try:
            response = self.i3.send(
                self.address,
                held.coin.handle,
                protocol.RENEW_REQUEST,
                protocol.encode_dual(envelope),
            )
            binding = CoinBinding(
                signed=protocol.decode_signed(response, self.params), via_broker=False
            )
            self.counts.renewals_sent += 1
        except (NodeOffline, NetworkError):
            response = self.broker_client.downtime_renewal(
                protocol.encode_dual(envelope), coin_y=held.coin_y
            )
            binding = CoinBinding(
                signed=protocol.decode_signed(response, self.params), via_broker=True
            )
            self.counts.downtime_renewals += 1
        if not binding.verify(held.coin.coin_public_key(self.params), self.broker_key):
            raise VerificationFailed("renewal returned an invalid binding")
        held.binding = binding
        self._wal_held(held)
        return binding

    def _pick_held_any(self, coin_y: int | None):
        if coin_y is not None:
            held = self.wallet.get(coin_y)
            if held is None:
                raise NotHolder(f"not holding coin {coin_y:#x}")
            return held
        if not self.wallet:
            raise UnknownCoin("wallet is empty")
        return next(iter(self.wallet.values()))
