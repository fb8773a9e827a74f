"""Canonical journal-record (de)serializers.

One entry shape per wallet side, shared by the peer's journal records
(``wallet_put`` / ``owned_put``), the snapshots that compact them
(:mod:`repro.core.persistence` writes the same records), and recovery
replay, so they can never drift.  The restore functions re-verify every
certificate and binding against the broker key — a corrupted or tampered
store must not inject bogus coins.
"""

from __future__ import annotations

from typing import Any, TYPE_CHECKING

from repro.core.coin import Coin, CoinBinding, HeldCoin, OwnedCoinState
from repro.core.errors import VerificationFailed
from repro.core.protocol import decode_signed
from repro.crypto.keys import KeyPair

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.peer import Peer
    from repro.crypto.group_signature import GroupMemberKey

#: Format tags of the two snapshot kinds.  A snapshot is the list of journal
#: records that rebuilds its entity; recovery refuses any other format.
BROKER_SNAPSHOT = "whopay.broker.v2"
WALLET_SNAPSHOT = "whopay.wallet.v2"


def peer_init_record(
    address: str, identity: KeyPair, member_key: "GroupMemberKey"
) -> dict[str, Any]:
    """First journal record of a fresh peer store.

    At-rest custody of the identity and group-member secrets lives here,
    not in the peer: coins are bearer key material, so losing these loses
    money, and only the serializer layer may put raw exponents on disk
    (lint rule WP111).
    """
    return {
        "type": "peer_init",
        "address": address,
        "identity_x": identity.x,
        "member_x": member_key.x,
        "member_h": member_key.h,
    }


def broker_init_record(address: str, keypair: KeyPair) -> dict[str, Any]:
    """First journal record of a fresh broker store (signing-key custody)."""
    return {
        "type": "broker_init",
        "address": address,
        "signing_x": keypair.x,
    }


def held_entry(held: HeldCoin) -> dict[str, Any]:
    """Serialize one held coin (certificate, holder secret, binding)."""
    return {
        "coin": held.coin.encode(),
        "holder_x": held.holder_keypair.x,
        "binding": held.binding.signed.encode(),
        "via_broker": held.binding.via_broker,
    }


def owned_entry(state: OwnedCoinState, trail_from: int = 0) -> dict[str, Any]:
    """Serialize one owned coin (certificate, coin secret, audit trail).

    ``trail_from`` is how much of the trail the reader already holds: a
    journal record carries only what was relinquished since the coin's
    previous record, a snapshot (0) the whole trail.
    """
    return {
        "coin": state.coin.encode(),
        "coin_x": state.coin_keypair.x,
        "binding": state.binding.signed.encode() if state.binding else None,
        "binding_via_broker": state.binding.via_broker if state.binding else False,
        "trail_from": trail_from,
        "relinquishments": state.relinquishments[trail_from:],
        "dirty": state.dirty,
        "seq_floor": state.seq_floor,
    }


def restore_held(peer: "Peer", entry: dict[str, Any]) -> HeldCoin:
    """Rebuild (and verify) a held coin from its entry."""
    coin = Coin(cert=decode_signed(entry["coin"], peer.params))
    if not coin.verify(peer.broker_key):
        raise VerificationFailed("stored coin certificate invalid")
    binding = CoinBinding(
        signed=decode_signed(entry["binding"], peer.params),
        via_broker=bool(entry["via_broker"]),
    )
    if not binding.verify(coin.coin_public_key(peer.params), peer.broker_key):
        raise VerificationFailed("stored holding binding invalid")
    holder_keypair = KeyPair.from_secret(peer.params, entry["holder_x"])
    if binding.holder_y != holder_keypair.public.y:
        raise VerificationFailed("stored holder key does not match its binding")
    return HeldCoin(coin=coin, holder_keypair=holder_keypair, binding=binding)


def restore_owned(peer: "Peer", entry: dict[str, Any]) -> OwnedCoinState:
    """Rebuild (and verify) an owned coin's state from its entry.

    An entry with ``trail_from`` > 0 continues the trail ``peer`` holds for
    the coin; one without the field (written before it existed) or at 0
    carries the whole trail.
    """
    coin = Coin(cert=decode_signed(entry["coin"], peer.params))
    if not coin.verify(peer.broker_key):
        raise VerificationFailed("stored owned-coin certificate invalid")
    coin_keypair = KeyPair.from_secret(peer.params, entry["coin_x"])
    if coin_keypair.public.y != coin.coin_y:
        raise VerificationFailed("stored coin secret does not match the coin")
    binding = None
    if entry["binding"] is not None:
        binding = CoinBinding(
            signed=decode_signed(entry["binding"], peer.params),
            via_broker=bool(entry["binding_via_broker"]),
        )
        if not binding.verify(coin_keypair.public, peer.broker_key):
            raise VerificationFailed("stored owner binding invalid")
    trail_from = entry.get("trail_from", 0)
    known = peer.owned.get(coin.coin_y)
    base = known.relinquishments[:trail_from] if known is not None else []
    if len(base) != trail_from:
        raise VerificationFailed("stored trail continues one this store never wrote")
    return OwnedCoinState(
        coin=coin,
        coin_keypair=coin_keypair,
        binding=binding,
        relinquishments=base + list(entry["relinquishments"]),
        dirty=bool(entry["dirty"]),
        seq_floor=int(entry["seq_floor"]),
        seq_signed=int(entry["seq_floor"]),
    )
