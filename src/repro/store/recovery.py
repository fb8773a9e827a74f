"""Rebuild a broker or peer from snapshot + journal replay.

The recovery contract, in order:

1. repair the journal's torn tail (a mid-append death leaves a partial
   frame; it must be truncated before the store is written to again);
2. restore the snapshot, if any (signature-verified by
   :mod:`repro.core.persistence`);
3. replay every journal record past the snapshot's covered LSN through
   the same :mod:`repro.store.apply` functions the live path uses;
4. refill the RPC replay cache from the records' (kind, idem, reply)
   columns — this is what lets a client retry ride over the restart with
   exactly-once effects (the PR-2 dedupe guarantee, now crash-durable);
5. batch-re-verify every signature the replayed records carried;
6. run the invariant auditor and refuse to hand back a broker that
   fails it.

Only then is the store re-bound to the recovered entity for new appends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, TYPE_CHECKING

from repro.core.clock import DEFAULT_RENEWAL_PERIOD
from repro.crypto.dsa import dsa_batch_verify
from repro.messages.codec import decode
from repro.store.apply import MutationRefused, apply_broker, verifiable_signatures
from repro.store.audit import AuditReport, audit_broker
from repro.store.journal import DurableStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.peer import Peer


class RecoveryError(Exception):
    """The store's contents cannot be turned into a trustworthy entity."""


@dataclass
class RecoveryResult:
    """What one recovery pass did (chaos tests diff these across runs)."""

    entity: Any
    records_replayed: int
    snapshot_loaded: bool
    torn_tail_bytes: int
    audit: AuditReport | None

    def summary(self) -> dict[str, Any]:
        return {
            "records_replayed": self.records_replayed,
            "snapshot_loaded": self.snapshot_loaded,
            "torn_tail_bytes": self.torn_tail_bytes,
            "audit": None if self.audit is None else self.audit.summary(),
        }


def _init_mutation(records: list[dict[str, Any]], kind: str) -> dict[str, Any] | None:
    for record in records:
        for mut in record["muts"]:
            if mut["type"] == kind:
                return mut
    return None


def _decrypted(blob: bytes | None, encryption_key: bytes | None) -> bytes | None:
    """Strip at-rest encryption so the blob can be peeked and restored."""
    if blob is None or not blob.startswith(b"enc:"):
        return blob
    if encryption_key is None:
        raise RecoveryError("snapshot is encrypted; an encryption key is required")
    from repro.anonymity.cipher import open_box

    return open_box(encryption_key, blob[4:])


def _peek_address(blob: bytes | None, init: dict[str, Any] | None) -> str:
    if blob is not None:
        state = decode(blob)
        if isinstance(state, dict) and "address" in state:
            return state["address"]
    if init is not None:
        return init["address"]
    raise RecoveryError("store has no snapshot or init record to recover from")


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
        run_audit: bool = True,
    ) -> RecoveryResult:
        """Build a fresh :class:`~repro.core.broker.Broker` from the store.

        The caller must have unregistered any previous broker at the same
        address (the constructor registers on ``transport``).  Raises
        :class:`RecoveryError` if the store is empty, the apply layer
        refuses a record, a replayed signature fails, or the post-replay
        audit finds a violated invariant.
        """
        from repro.core.broker import Broker
        from repro.core.persistence import restore_broker_state

        snapshot_blob, records, torn = self.store.load()
        torn_bytes = self.store.truncate_torn_tail() if torn else 0
        blob = _decrypted(snapshot_blob, encryption_key)
        stored_address = _peek_address(blob, _init_mutation(records, "broker_init"))
        if address is not None and address != stored_address:
            raise RecoveryError(
                f"store belongs to {stored_address!r}, not {address!r}"
            )
        address = stored_address
        broker = Broker(
            transport,
            judge=judge,
            params=params,
            clock=clock,
            address=address,
            renewal_period=renewal_period,
        )
        if blob is not None:
            restore_broker_state(broker, blob)
        batch: list[tuple[Any, bytes, Any]] = []
        for record in records:
            for mut in record["muts"]:
                try:
                    apply_broker(broker, mut)
                except MutationRefused as exc:
                    raise RecoveryError(f"journal record refused: {exc}") from exc
                batch.extend(verifiable_signatures(broker, mut))
            if record.get("idem") is not None:
                broker.replay_cache.store((record["kind"], record["idem"]), record["reply"])
        if batch and not dsa_batch_verify(batch):
            raise RecoveryError("a replayed journal record fails signature verification")
        report = None
        if run_audit:
            report = audit_broker(broker)
            if not report.ok:
                raise RecoveryError(
                    "post-recovery audit failed: " + "; ".join(report.failures)
                )
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
        from repro.core.persistence import restore_peer_state
        from repro.crypto.group_signature import GroupMemberKey
        from repro.store import records as wallet_records

        snapshot_blob, records, torn = self.store.load()
        torn_bytes = self.store.truncate_torn_tail() if torn else 0
        blob = _decrypted(snapshot_blob, encryption_key)
        init = _init_mutation(records, "peer_init")
        address = _peek_address(blob, init)
        if init is not None:
            member_key = GroupMemberKey(
                params=params, x=init["member_x"], h=init["member_h"]
            )
        else:
            state = decode(blob)
            member_key = GroupMemberKey(
                params=params, x=state["member_x"], h=state["member_h"]
            )
        peer = Peer(
            transport,
            address=address,
            params=params,
            clock=clock,
            judge=judge,
            member_key=member_key,
            broker_address=broker_address,
            broker_key=broker_key,
            sync_mode=sync_mode,
            renewal_period=renewal_period,
            retry_policy=retry_policy,
            shard_map=shard_map,
            breaker_config=breaker_config,
        )
        if blob is not None:
            restore_peer_state(peer, blob)
        replayed = 0
        for record in records:
            for mut in record["muts"]:
                self._apply_peer(peer, mut, wallet_records)
            replayed += 1
        for state in peer.owned.values():  # snapshot + journal hold every trail in full
            state.trail_journaled = len(state.relinquishments)
        peer.bind_store(self.store)
        return RecoveryResult(
            entity=peer,
            records_replayed=replayed,
            snapshot_loaded=snapshot_blob is not None,
            torn_tail_bytes=torn_bytes,
            audit=None,
        )

    @staticmethod
    def _apply_peer(peer: "Peer", mut: dict[str, Any], wallet_records) -> None:
        from repro.crypto.group_signature import GroupMemberKey
        from repro.crypto.keys import KeyPair

        kind = mut["type"]
        if kind == "peer_init":
            peer.identity = KeyPair.from_secret(peer.params, mut["identity_x"])
            peer.member_key = GroupMemberKey(
                params=peer.params, x=mut["member_x"], h=mut["member_h"]
            )
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
