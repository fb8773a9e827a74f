"""Wallet persistence: serialize a peer's monetary state across restarts.

Coins are bearer instruments held as key material, so losing process state
means losing money — a production wallet must persist.  This module exports
everything a peer needs to resume exactly where it stopped:

* the identity keypair (the broker account is bound to it),
* the group member key (re-registration would create a new judge identity),
* every held coin (certificate, holder secret, proof binding),
* every owned coin (certificate, coin secret, current binding,
  relinquishment audit trail, lazy-sync flags, sequence floor).

The blob is a canonical-codec value, so it is deterministic and versioned;
it contains raw secrets — encrypt at rest with
:func:`repro.anonymity.cipher.seal_box` if the storage medium is untrusted
(:func:`export_peer_state` takes an optional key to do exactly that).
"""

from __future__ import annotations

from typing import Any

from repro.anonymity.cipher import open_box, seal_box
from repro.core.coin import Coin, CoinBinding
from repro.core.errors import VerificationFailed
from repro.core.peer import Peer
from repro.core.protocol import decode_signed
from repro.crypto.group_signature import GroupMemberKey
from repro.crypto.keys import KeyPair
from repro.messages.codec import decode, encode
from repro.store import records as wallet_records

FORMAT = "whopay.wallet.v1"
BROKER_FORMAT = "whopay.broker.v1"


def export_broker_state(broker, encryption_key: bytes | None = None) -> bytes:
    """Serialize the broker's monetary state (the mint must survive too).

    Covers the signing key, every account, the valid-coin registry, the
    double-spend ledger, the downtime bindings, the owner index, and the
    RPC replay cache — the state whose loss would either destroy money
    (accounts), re-enable double spending (the deposited set), or break
    exactly-once semantics for a retry that straddles a restart (the
    dedupe entries).
    """
    blob = encode(
        {
            "format": BROKER_FORMAT,
            "address": broker.address,
            "signing_x": broker.keypair.x,
            "total_opened": broker.total_opened,
            "accounts": [
                {"name": name, "identity_y": account.identity.y, "balance": account.balance}
                for name, account in broker.accounts.items()
            ],
            "valid_coins": [coin.encode() for coin in broker.valid_coins.values()],
            "deposited": [
                {"coin_y": coin_y, "envelope": envelope}
                for coin_y, envelope in broker.deposited.items()
            ],
            "downtime": [
                {
                    "coin_y": coin_y,
                    "binding": binding.signed.encode(),
                }
                for coin_y, binding in broker.downtime_bindings.items()
            ],
            "owner_coins": [
                {"owner": owner, "coins": sorted(coins)}
                for owner, coins in broker.owner_coins.items()
            ],
            "pending_sync": [
                {"owner": owner, "coins": sorted(coins)}
                for owner, coins in broker.pending_sync.items()
            ],
            "replay_cache": [
                {"kind": kind, "idem": idem, "result": result}
                for (kind, idem), result in broker.replay_cache.snapshot_entries()
            ],
            # Federation state: in-flight cross-shard handoffs (source side)
            # and applied prepare ids (destination side).  Both must survive
            # a snapshot+restart or exactly-once handoffs break.
            "pending_handoffs": [
                broker.pending_handoffs[h] for h in sorted(broker.pending_handoffs)
            ],
            "handoffs_seen": sorted(broker.handoffs_seen),
        }
    )
    if encryption_key is not None:
        return b"enc:" + seal_box(encryption_key, blob)
    return blob


def restore_broker_state(broker, blob: bytes, encryption_key: bytes | None = None) -> None:
    """Load exported state into a freshly constructed broker.

    Restores the signing key first (coins must keep verifying), then
    re-validates every stored coin certificate against it before accepting
    it back into the registry.
    """
    from repro.core.coin import Coin
    from repro.crypto.keys import PublicKey

    if blob.startswith(b"enc:"):
        if encryption_key is None:
            raise VerificationFailed("state is encrypted; key required")
        blob = open_box(encryption_key, blob[4:])
    state = decode(blob)
    if not isinstance(state, dict) or state.get("format") != BROKER_FORMAT:
        raise VerificationFailed("unrecognized broker-state format")

    broker.keypair = KeyPair.from_secret(broker.params, state["signing_x"])
    from repro.core.broker import Account

    broker.accounts.clear()
    for entry in state["accounts"]:
        broker.accounts[entry["name"]] = Account(
            identity=PublicKey(params=broker.params, y=entry["identity_y"]),
            balance=entry["balance"],
        )
    broker.valid_coins.clear()
    for coin_bytes in state["valid_coins"]:
        coin = Coin(cert=decode_signed(coin_bytes, broker.params))
        if not coin.verify(broker.keypair.public):
            raise VerificationFailed("stored coin certificate fails under the restored key")
        broker.valid_coins[coin.coin_y] = coin
    broker.deposited.clear()
    for entry in state["deposited"]:
        broker.deposited[entry["coin_y"]] = entry["envelope"]
    broker.downtime_bindings.clear()
    for entry in state["downtime"]:
        binding = CoinBinding(
            signed=decode_signed(entry["binding"], broker.params), via_broker=True
        )
        broker.downtime_bindings[entry["coin_y"]] = binding
    broker.owner_coins.clear()
    for entry in state["owner_coins"]:
        broker.owner_coins[entry["owner"]] = set(entry["coins"])
    broker.pending_sync.clear()
    for entry in state["pending_sync"]:
        broker.pending_sync[entry["owner"]] = set(entry["coins"])
    broker.total_opened = state["total_opened"]
    broker.replay_cache.restore_entries(
        [
            ((entry["kind"], entry["idem"]), entry["result"])
            for entry in state.get("replay_cache", [])
        ]
    )
    broker.pending_handoffs.clear()
    for record in state.get("pending_handoffs", []):
        broker.pending_handoffs[record["h"]] = record
    broker.handoffs_seen.clear()
    broker.handoffs_seen.update(state.get("handoffs_seen", []))


def export_peer_state(peer: Peer, encryption_key: bytes | None = None) -> bytes:
    """Serialize ``peer``'s monetary state; optionally encrypted at rest."""
    held_entries = [wallet_records.held_entry(held) for held in peer.wallet.values()]
    owned_entries = [wallet_records.owned_entry(state) for state in peer.owned.values()]
    blob = encode(
        {
            "format": FORMAT,
            "address": peer.address,
            "identity_x": peer.identity.x,
            "member_x": peer.member_key.x,
            "member_h": peer.member_key.h,
            "held": held_entries,
            "owned": owned_entries,
        }
    )
    if encryption_key is not None:
        return b"enc:" + seal_box(encryption_key, blob)
    return blob


def restore_peer_state(peer: Peer, blob: bytes, encryption_key: bytes | None = None) -> int:
    """Load exported state into a (freshly constructed) ``peer``.

    Replaces the peer's identity and member keys with the stored ones and
    rebuilds both wallets, verifying every certificate and binding against
    the broker key on the way in (a corrupted store must not inject bogus
    coins).  Returns the number of coins restored.
    """
    if blob.startswith(b"enc:"):
        if encryption_key is None:
            raise VerificationFailed("state is encrypted; key required")
        blob = open_box(encryption_key, blob[4:])
    state = decode(blob)
    if not isinstance(state, dict) or state.get("format") != FORMAT:
        raise VerificationFailed("unrecognized wallet format")
    if state["address"] != peer.address:
        raise VerificationFailed(
            f"state belongs to {state['address']!r}, not {peer.address!r}"
        )

    peer.identity = KeyPair.from_secret(peer.params, state["identity_x"])
    peer.member_key = GroupMemberKey(
        params=peer.params, x=state["member_x"], h=state["member_h"]
    )

    restored = 0
    peer.wallet.clear()
    for entry in state["held"]:
        held = wallet_records.restore_held(peer, entry)
        peer.wallet[held.coin.coin_y] = held
        # Re-arm real-time monitoring: DHT subscriptions are transport-side
        # state and do not survive the restart, so re-subscribe per coin.
        if peer.detection is not None:
            peer.detection.subscribe(peer, held.coin.coin_y)
        restored += 1

    peer.owned.clear()
    for entry in state["owned"]:
        owned = wallet_records.restore_owned(peer, entry)
        peer.owned[owned.coin.coin_y] = owned
        restored += 1
    return restored


def save_broker_snapshot(broker, store, encryption_key: bytes | None = None) -> int:
    """Snapshot ``broker`` into its durable ``store`` and compact the log.

    Returns the LSN the snapshot covers.  The broker keeps journaling new
    mutations to the same store afterwards; recovery prefers the snapshot
    and replays only later records.
    """
    return store.snapshot(export_broker_state(broker, encryption_key=encryption_key))


def save_peer_snapshot(peer: Peer, store, encryption_key: bytes | None = None) -> int:
    """Snapshot ``peer``'s wallet into its durable ``store``; returns the LSN."""
    return store.snapshot(export_peer_state(peer, encryption_key=encryption_key))
