"""Snapshots: a broker's or a peer's state as the journal records that rebuild it.

A snapshot is a compacted journal.  :func:`broker_records` and
:func:`peer_records` write an entity's current state as the mutation
records its live path already journals, and recovery
(:mod:`repro.store.recovery`) replays them through the same appliers, and
in the same loop, as the journal records that follow — state is rebuilt
one way, not two.

Coins are bearer key material, so a snapshot holds raw secrets (through the
serializers of :mod:`repro.store.records`); pass ``encryption_key`` to seal
it at rest with :func:`repro.anonymity.cipher.seal_box`.
"""

from __future__ import annotations

from typing import Any

from repro.anonymity.cipher import seal_box
from repro.core.peer import Peer
from repro.messages.codec import encode
from repro.store import records as store_records
from repro.store.apply import effect


def _record(
    *muts: dict[str, Any], kind: str = "__snapshot__", idem: Any = None, reply: Any = None
) -> dict[str, Any]:
    return {"kind": kind, "idem": idem, "reply": reply, "muts": list(muts)}


def broker_records(broker) -> list[dict[str, Any]]:
    """The journal records that rebuild ``broker``'s durable state.

    Balances, coins and retirements are one ``snapshot_effects`` mutation:
    its deltas add up to ``total_opened``, which the snapshot stores beside
    it so recovery can refuse an edited balance.  Downtime bindings carry
    no owner and the pending-sync sets travel whole: a deposit after a
    downtime transfer drops the binding but not the owner's pending coin.
    Pending handoffs are their journaled ``handoff_begin`` records, applied
    prepare ids are ``xshard_apply`` records without effects, and each
    replay-cache entry, oldest first, is a record without mutations.
    """
    coins = broker.valid_coins
    effects = [
        effect("credit", account.balance, account=name, identity_y=account.identity.y)
        for name, account in broker.accounts.items()
    ]
    effects += [
        effect("mint", coin.value, coin_y=y, coin=coin.encode()) for y, coin in coins.items()
    ]
    effects += [
        effect("retire", coins[y].value, coin_y=y, envelope=envelope)
        for y, envelope in broker.deposited.items()
    ]
    state = _record(
        store_records.broker_init_record(broker.address, broker.keypair),
        {"type": "snapshot_effects", "effects": effects},
        *(
            {"type": "downtime_binding", "coin_y": y, "binding": b.signed.encode(), "owner": None}
            for y, b in broker.downtime_bindings.items()
        ),
        *(
            {"type": "pending_sync", "owner": owner, "coins": sorted(pending)}
            for owner, pending in broker.pending_sync.items()
        ),
        *(broker.pending_handoffs[h] for h in sorted(broker.pending_handoffs)),
        *({"type": "xshard_apply", "h": h, "effects": []} for h in sorted(broker.handoffs_seen)),
    )
    return [state] + [
        _record(kind=kind, idem=idem, reply=reply)
        for (kind, idem), reply in broker.replay_cache.snapshot_entries()
    ]


def peer_records(peer: Peer) -> list[dict[str, Any]]:
    """The journal records that rebuild ``peer``'s wallet: its keys, every
    held coin, and every owned coin with its whole trail."""
    return [
        _record(
            store_records.peer_init_record(peer.address, peer.identity, peer.member_key),
            *(
                {"type": "wallet_put", "entry": store_records.held_entry(held)}
                for held in peer.wallet.values()
            ),
            *(
                {"type": "owned_put", "entry": store_records.owned_entry(state)}
                for state in peer.owned.values()
            ),
        )
    ]


def _save(store, state: dict[str, Any], encryption_key: bytes | None) -> int:
    blob = encode(state)
    if encryption_key is not None:
        blob = b"enc:" + seal_box(encryption_key, blob)
    return store.snapshot(blob)


def save_broker_snapshot(broker, store, encryption_key: bytes | None = None) -> int:
    """Snapshot ``broker`` into its durable ``store`` and compact the log.

    Returns the LSN the snapshot covers.  The broker keeps journaling new
    mutations to the same store afterwards; recovery replays the snapshot's
    records, then only the later ones.
    """
    return _save(
        store,
        {
            "format": store_records.BROKER_SNAPSHOT,
            "total_opened": broker.total_opened,
            "records": broker_records(broker),
        },
        encryption_key,
    )


def save_peer_snapshot(peer: Peer, store, encryption_key: bytes | None = None) -> int:
    """Snapshot ``peer``'s wallet into its durable ``store``; returns the LSN."""
    return _save(
        store,
        {"format": store_records.WALLET_SNAPSHOT, "records": peer_records(peer)},
        encryption_key,
    )
