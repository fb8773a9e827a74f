"""Rebuild a broker or peer from snapshot + journal replay.

The recovery contract, in order:

1. repair the journal's torn tail (a mid-append death leaves a partial
   frame; it must be truncated before the store is written to again);
2. read the snapshot, if any: a compacted journal, the list of records
   that rebuilds the entity (:mod:`repro.core.persistence` writes it);
3. replay the snapshot's records, then every journal record past its
   covered LSN, through the same :mod:`repro.store.apply` functions the
   live path uses — a broker snapshot's replayed ``total_opened`` must
   equal the one it stored, or an edited balance would pass;
4. refill the RPC replay cache from the records' (kind, idem, reply)
   columns — this is what lets a client retry ride over the restart with
   exactly-once effects (the RPC dedupe guarantee, made crash-durable);
5. batch-re-verify every signature the replayed records carried;
6. run the invariant auditor and refuse to hand back a broker that
   fails it.

Only then is the store re-bound to the recovered entity for new appends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence, TYPE_CHECKING

from repro.core.clock import DEFAULT_RENEWAL_PERIOD
from repro.crypto.dsa import dsa_batch_verify
from repro.crypto.group_signature import GroupMemberKey
from repro.crypto.keys import KeyPair
from repro.messages.codec import CodecError, decode
from repro.store import records as wallet_records
from repro.store.apply import MutationRefused, Triple, apply_broker, verifiable_signatures
from repro.store.audit import AuditReport, audit_broker
from repro.store.journal import DurableStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.broker import Broker
    from repro.core.peer import Peer


class RecoveryError(Exception):
    """The store's contents cannot be turned into a trustworthy entity."""


@dataclass
class RecoveryResult:
    """What one recovery pass did.  ``records_replayed`` counts the journal
    records past the snapshot only."""

    entity: Any
    records_replayed: int
    snapshot_loaded: bool
    torn_tail_bytes: int
    audit: AuditReport | None


def _init_mutation(records: list[dict[str, Any]], kind: str) -> dict[str, Any]:
    for record in records:
        for mut in record["muts"]:
            if mut["type"] == kind:
                return mut
    raise RecoveryError("store has no snapshot or init record to recover from")


def _snapshot(blob: bytes | None, fmt: str, encryption_key: bytes | None) -> dict[str, Any]:
    """The decoded snapshot state (no records if there is no snapshot)."""
    if blob is None:
        return {"records": ()}
    if blob.startswith(b"enc:"):
        if encryption_key is None:
            raise RecoveryError("snapshot is encrypted; an encryption key is required")
        from repro.anonymity.cipher import open_box

        blob = open_box(encryption_key, blob[4:])
    try:
        state = decode(blob)
    except CodecError as exc:
        raise RecoveryError(f"snapshot does not decode: {exc}") from exc
    if not isinstance(state, dict) or state.get("format") != fmt:
        raise RecoveryError(f"snapshot is not a {fmt} snapshot")
    return state


def _replay_broker(broker: "Broker", records: Sequence[dict[str, Any]]) -> list[Triple]:
    """Apply ``records`` and refill the replay cache; returns the signatures
    they carried, for one batch check."""
    batch: list[Triple] = []
    for record in records:
        for mut in record["muts"]:
            try:
                apply_broker(broker, mut)
            except MutationRefused as exc:
                raise RecoveryError(f"journal record refused: {exc}") from exc
            batch.extend(verifiable_signatures(broker, mut))
        if record.get("idem") is not None:
            broker.replay_cache.store((record["kind"], record["idem"]), record["reply"])
    return batch


class RecoveryManager:
    """Rebuilds entities from one :class:`DurableStore`."""

    def __init__(self, store: DurableStore) -> None:
        self.store = store

    # -- broker --------------------------------------------------------------

    def recover_broker(
        self,
        transport,
        *,
        judge,
        params,
        clock,
        renewal_period: float = DEFAULT_RENEWAL_PERIOD,
        address: str | None = None,
        encryption_key: bytes | None = None,
    ) -> RecoveryResult:
        """Build a fresh :class:`~repro.core.broker.Broker` from the store.

        The caller must have unregistered any previous broker at the same
        address (the constructor registers on ``transport``).  Raises
        :class:`RecoveryError` if the store is empty, the snapshot is not a
        broker snapshot or does not add up to its ``total_opened``, the
        apply layer refuses a record, a replayed signature fails, or the
        post-replay audit finds a violated invariant.
        """
        from repro.core.broker import Broker

        snapshot_blob, records, torn = self.store.load()
        torn_bytes = self.store.truncate_torn_tail() if torn else 0
        snapshot = _snapshot(snapshot_blob, wallet_records.BROKER_SNAPSHOT, encryption_key)
        stored_address = _init_mutation([*snapshot["records"], *records], "broker_init")["address"]
        if address is not None and address != stored_address:
            raise RecoveryError(
                f"store belongs to {stored_address!r}, not {address!r}"
            )
        broker = Broker(
            transport,
            judge=judge,
            params=params,
            clock=clock,
            address=stored_address,
            renewal_period=renewal_period,
        )
        batch = _replay_broker(broker, snapshot["records"])
        if snapshot_blob is not None and broker.total_opened != snapshot["total_opened"]:
            raise RecoveryError(
                f"snapshot rebuilds {broker.total_opened} opened, "
                f"but it stored {snapshot['total_opened']}"
            )
        batch += _replay_broker(broker, records)
        if batch and not dsa_batch_verify(batch):
            raise RecoveryError("a replayed journal record fails signature verification")
        report = audit_broker(broker)
        if not report.ok:
            raise RecoveryError("post-recovery audit failed: " + "; ".join(report.failures))
        broker.bind_store(self.store)
        return RecoveryResult(
            entity=broker,
            records_replayed=len(records),
            snapshot_loaded=snapshot_blob is not None,
            torn_tail_bytes=torn_bytes,
            audit=report,
        )

    # -- peer ----------------------------------------------------------------

    def recover_peer(
        self,
        transport,
        *,
        params,
        clock,
        judge,
        broker_address: str,
        broker_key,
        sync_mode: str = "proactive",
        renewal_period: float = DEFAULT_RENEWAL_PERIOD,
        retry_policy=None,
        encryption_key: bytes | None = None,
        shard_map=None,
        breaker_config=None,
    ) -> RecoveryResult:
        """Build a fresh :class:`~repro.core.peer.Peer` from the store.

        Wallet entries are verified against the broker key as they are
        replayed (see :mod:`repro.store.records`); last-write-wins per
        coin, exactly like the live mutation order.
        """
        from repro.core.peer import Peer

        snapshot_blob, records, torn = self.store.load()
        torn_bytes = self.store.truncate_torn_tail() if torn else 0
        snapshot = _snapshot(snapshot_blob, wallet_records.WALLET_SNAPSHOT, encryption_key)
        replaying = [*snapshot["records"], *records]
        init = _init_mutation(replaying, "peer_init")
        peer = Peer(
            transport,
            address=init["address"],
            params=params,
            clock=clock,
            judge=judge,
            member_key=GroupMemberKey(params=params, x=init["member_x"], h=init["member_h"]),
            broker_address=broker_address,
            broker_key=broker_key,
            sync_mode=sync_mode,
            renewal_period=renewal_period,
            retry_policy=retry_policy,
            shard_map=shard_map,
            breaker_config=breaker_config,
        )
        for record in replaying:
            for mut in record["muts"]:
                _apply_peer(peer, mut)
        for state in peer.owned.values():  # snapshot + journal hold every trail in full
            state.trail_journaled = len(state.relinquishments)
        peer.bind_store(self.store)
        return RecoveryResult(
            entity=peer,
            records_replayed=len(records),
            snapshot_loaded=snapshot_blob is not None,
            torn_tail_bytes=torn_bytes,
            audit=None,
        )


def _apply_peer(peer: "Peer", mut: dict[str, Any]) -> None:
    kind = mut["type"]
    if kind == "peer_init":
        peer.identity = KeyPair.from_secret(peer.params, mut["identity_x"])
        peer.member_key = GroupMemberKey(params=peer.params, x=mut["member_x"], h=mut["member_h"])
    elif kind == "wallet_put":
        held = wallet_records.restore_held(peer, mut["entry"])
        peer.wallet[held.coin.coin_y] = held
    elif kind == "wallet_del":
        peer.wallet.pop(mut["coin_y"], None)
    elif kind == "owned_put":
        state = wallet_records.restore_owned(peer, mut["entry"])
        peer.owned[state.coin.coin_y] = state
    elif kind == "owned_clean_all":
        for state in peer.owned.values():
            state.dirty = False
    elif kind == "owned_dirty_all":
        for state in peer.owned.values():
            state.dirty = True
    else:
        raise RecoveryError(f"unknown peer mutation type {kind!r}")
