"""The broker ``B`` (paper Sections 4.1–4.2).

The broker is the only entity that can create coins and the only one that
redeems them for cash.  Between those endpoints it is involved *only* when a
coin's owner is offline: downtime transfers, downtime renewals, and the
synchronization owners perform after rejoining — which is precisely the load
the paper's evaluation measures (Figures 2, 3, 6, 7, 10, 11).

Security duties implemented here:

* verifying dual-signed holder operations (coin-key signature proves
  holdership, group signature proves legitimate membership and enables
  fairness);
* the two downtime-verification flavours of Section 4.2 — signature check
  when the broker has no state for the coin, bit-by-bit comparison against
  stored state when it does;
* deposit-time double-spending detection: a second deposit of the same coin
  raises :class:`~repro.core.errors.DoubleSpendDetected` carrying both
  deposit envelopes as evidence for the judge;
* monotonic sequence-number enforcement on every binding it records.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from dataclasses import dataclass, field
from typing import Any

from repro.core import protocol
from repro.core.clock import DEFAULT_RENEWAL_PERIOD, Clock
from repro.core.coin import Coin, CoinBinding
from repro.core.errors import (
    CoinExpired,
    DoubleSpendDetected,
    NotHolder,
    ProtocolError,
    UnknownCoin,
    VerificationFailed,
)
from repro.core.judge import Judge
from repro.core.sharding import ShardMap
from repro.crypto.dsa import dsa_batch_verify, dsa_verify
from repro.crypto.keys import KeyPair, PublicKey
from repro.crypto.params import DlogParams
from repro.messages.envelope import seal
from repro.net.node import Node
from repro.net.rpc import RetryPolicy, RpcClient, unwrap_idempotent, wrap_idempotent
from repro.net.transport import NetworkError, Transport
from repro.store import apply as store_apply
from repro.store import records as store_records
from repro.store.groupcommit import GroupCommitter
from repro.store.journal import DurableStore


#: Virtual-time budget for one shard-to-shard prepare/cancel RPC (WP114).
#: Generous — it bounds pathological jitter accumulation across retries,
#: it does not shape the common case.
XSHARD_DEADLINE = 60.0


def handoff_id(op: str, data: bytes) -> str:
    """Deterministic cross-shard handoff id for one client request.

    Derived from the exact request bytes, so an RPC-level retry (same
    bytes) re-drives the *same* handoff instead of starting a second one —
    the dedupe key that makes the two-step protocol exactly-once across
    crashes on either side.  An application-level retry re-signs, gets a
    new id, and is held off by the first handoff's reservation instead.
    """
    return hashlib.sha256(b"whopay-handoff|" + op.encode() + b"|" + data).hexdigest()[:32]


@dataclass
class Account:
    """A broker-side cash account."""

    identity: PublicKey
    balance: int


@dataclass
class OperationCounts:
    """Per-operation counters matching the paper's load breakdown."""

    purchases: int = 0
    deposits: int = 0
    downtime_transfers: int = 0
    downtime_renewals: int = 0
    syncs: int = 0
    binding_queries: int = 0
    #: Cross-shard prepares served *for other shards* (federation overhead,
    #: not client-facing verified ops — deliberately outside :meth:`total`).
    handoffs: int = 0

    def total(self) -> int:
        """All client-facing broker operations (the paper's load measure)."""
        return (
            self.purchases
            + self.deposits
            + self.downtime_transfers
            + self.downtime_renewals
            + self.syncs
            + self.binding_queries
        )

    def merge(self, other: "OperationCounts") -> None:
        """Accumulate another counter set (federation-wide aggregation)."""
        self.purchases += other.purchases
        self.deposits += other.deposits
        self.downtime_transfers += other.downtime_transfers
        self.downtime_renewals += other.downtime_renewals
        self.syncs += other.syncs
        self.binding_queries += other.binding_queries
        self.handoffs += other.handoffs


class Broker(Node):
    """The broker endpoint.

    Inbound idempotency: the broker serves every peer, so its replay cache
    (the :class:`~repro.net.rpc.ReplayCache` inherited from ``Node``) is
    sized well above the per-peer default — a retried mutating request
    (deposit, downtime transfer, top-up…) whose reply was lost must still
    find its cached result here instead of re-running the handler and
    tripping the double-deposit guard.
    """

    #: Replay-cache bound for the broker (many clients, one endpoint).
    REPLAY_CACHE_CAPACITY = 4096

    def __init__(
        self,
        transport: Transport,
        judge: Judge,
        params: DlogParams,
        clock: Clock,
        address: str = "broker",
        renewal_period: float = DEFAULT_RENEWAL_PERIOD,
        store: DurableStore | None = None,
        keypair: KeyPair | None = None,
    ) -> None:
        super().__init__(transport, address)
        self.params = params
        self.judge = judge
        self.clock = clock
        self.renewal_period = renewal_period
        # Federated shards share one signing key so a coin minted on any
        # shard verifies against the system-wide ``pk_B``.
        self.keypair = keypair if keypair is not None else KeyPair.generate(params)

        self.accounts: dict[str, Account] = {}
        self.valid_coins: dict[int, Coin] = {}
        self.deposited: dict[int, bytes] = {}  # coin_y -> first deposit envelope
        self.downtime_bindings: dict[int, CoinBinding] = {}
        self.owner_coins: dict[str, set[int]] = {}
        self.pending_sync: dict[str, set[int]] = {}  # owner -> coins changed offline
        self.total_opened = 0  # conservation baseline: value ever opened
        #: Source-side cross-shard handoffs begun but not yet committed
        #: (h -> the journaled ``handoff_begin`` mutation).  Durable: a
        #: crash between prepare and commit recovers with the handoff still
        #: pending, and either the client's retry or an explicit
        #: :meth:`complete_pending_handoffs` re-drives it to completion.
        self.pending_handoffs: dict[str, dict[str, Any]] = {}
        #: Destination-side guard: prepare ids already applied.  Durable so
        #: a re-driven prepare stays exactly-once even after the replay
        #: cache evicted the original entry.
        self.handoffs_seen: set[str] = set()
        self.fraud_events: list[DoubleSpendDetected] = []
        self.counts = OperationCounts()
        self._sync_nonces: dict[str, bytes] = {}
        self.detection = None  # set by WhoPayNetwork when the DHT is enabled
        self.store: DurableStore | None = None
        self._staged: list[dict[str, Any]] = []
        #: Optional group committer (set by the throughput engine).  When
        #: present, :meth:`handle` stages its journal record there instead
        #: of appending per request; the engine owns flushing and must hold
        #: each staged request's reply until the covering fsync.
        self.committer: GroupCommitter | None = None
        #: One-shot ``on_durable`` callback for the *next* staged request
        #: (consumed by :meth:`handle`; set by the engine before each call).
        self.on_durable: Any = None
        #: Whether the most recent :meth:`handle` staged a journal record
        #: (i.e. whether its reply must wait for a covering fsync).
        self.last_request_staged: bool = False
        # SHA-256 digests of raw requests whose *cryptographic* checks a
        # verification pool already performed, each with the holder request
        # the pool opened (if it handed one); consumed on first sight.
        self._preverified: dict[bytes, protocol.HolderRequest | None] = {}
        #: Federation wiring (ring + shard-to-shard RPC client).  A broker
        #: is a federation of one until :meth:`attach_federation` says
        #: otherwise: same path, a ring that never names anyone else.
        self.attach_federation(ShardMap((address,), points_per_shard=1))
        #: Precomputed-nonce pool for broker-signed bindings (set by the
        #: throughput engine per flush window; see DsaNoncePool).
        self.nonce_pool: Any = None
        if store is not None:
            self.bind_store(store)

        self.on(protocol.PURCHASE, self._handle_purchase)
        self.on(protocol.PURCHASE_BATCH, self._handle_purchase_batch)
        self.on(protocol.DEPOSIT, self._handle_deposit)
        self.on(protocol.DOWNTIME_TRANSFER, self._handle_downtime_transfer)
        self.on(protocol.DOWNTIME_RENEWAL, self._handle_downtime_renewal)
        self.on(protocol.TOP_UP, self._handle_top_up)
        self.on(protocol.SYNC_CHALLENGE, self._handle_sync_challenge)
        self.on(protocol.SYNC, self._handle_sync)
        self.on(protocol.BINDING_QUERY, self._handle_binding_query)
        self.on(protocol.XSHARD_PREPARE, self._handle_xshard_prepare)

    # -- durability -------------------------------------------------------------

    def bind_store(self, store: DurableStore) -> None:
        """Attach a durable store; every mutation from here on is journaled.

        A fresh store gets a ``broker_init`` record (address + signing key)
        as its first entry so recovery can rebuild the keypair.  A non-fresh
        store must be bound by :class:`~repro.store.recovery.RecoveryManager`
        *after* replay — binding it to an unrelated broker would interleave
        histories of two different keypairs.
        """
        was_fresh = store.fresh
        self.store = store
        if was_fresh:
            self._commit_local(
                store_records.broker_init_record(self.address, self.keypair)
            )

    def _stage(self, mut: dict[str, Any]) -> None:
        """Apply one mutation record and stage it for the request's journal entry.

        Handlers never touch the durable fields directly (lint rule WP106);
        they describe the mutation and this applies it through the same
        :mod:`repro.store.apply` function recovery replays it with.
        """
        store_apply.apply_broker(self, mut)
        if self.store is not None:
            self._staged.append(mut)

    def _commit_local(self, *muts: dict[str, Any]) -> None:
        """Apply and immediately journal mutations made outside any RPC."""
        for mut in muts:
            store_apply.apply_broker(self, mut)
        if self.store is not None:
            self.store.append(
                {"kind": "__local__", "idem": None, "reply": None, "muts": list(muts)}
            )

    def handle(self, kind: str, src: str, payload: Any) -> Any:
        """Dispatch, journaling the request's mutations before replying.

        Write-ahead discipline: the staged mutations (plus the reply, keyed
        by the request's idempotency key so recovery can refill the replay
        cache) are fsynced as one journal record *before* the result leaves
        this method.  A crash after the handler ran but before the append
        completes loses only in-memory state the client never saw — its
        retry re-executes against the recovered broker.  Replay-cache hits
        stage nothing, so retries never duplicate journal records.
        """
        if self.store is None:
            return super().handle(kind, src, payload)
        idem, _body = unwrap_idempotent(payload)
        self._staged = []
        try:
            result = super().handle(kind, src, payload)
        except BaseException:
            self._staged = []
            raise
        staged, self._staged = self._staged, []
        on_durable, self.on_durable = self.on_durable, None
        self.last_request_staged = bool(staged)
        if staged:
            record = {
                "kind": kind,
                "idem": idem,
                "reply": result if idem is not None else None,
                "muts": staged,
            }
            if self.committer is not None:
                # Group commit: the record becomes durable at the next
                # flush; the caller must sit on the reply until then (the
                # ``on_durable`` callback is its release signal).
                self.committer.stage(record, on_durable=on_durable)
            else:
                self.store.append(record)
        return result

    # -- accounts ---------------------------------------------------------------

    @property
    def public_key(self) -> PublicKey:
        """The broker's verification key ``pk_B`` (system-wide known)."""
        return self.keypair.public

    def open_account(self, name: str, identity: PublicKey, balance: int) -> None:
        """Open a cash account (bank-relationship setup, out of protocol)."""
        if name in self.accounts:
            raise ValueError(f"account {name!r} already exists")
        credit = store_apply.effect("credit", balance, account=name, identity_y=identity.y)
        store_apply.validate_effects(self, [credit])
        self._commit_local({"type": "open_account", "effects": [credit]})

    def open_account_from_certificate(self, certificate, ca_key: PublicKey, balance: int) -> None:
        """Open an account from a CA-issued identity certificate.

        The paper's purchase flow has users present "a public key
        certificate"; with this path the broker needs no out-of-band key
        table — trust in the CA key suffices.  Raises on invalid, expired,
        or revoked-by-shape certificates.
        """
        if not certificate.verify(ca_key, now=self.clock.now()):
            raise VerificationFailed("identity certificate invalid or expired")
        self.open_account(
            certificate.subject,
            certificate.subject_key(self.params),
            balance,
        )

    def balance(self, name: str) -> int:
        """Current balance of ``name`` (0 for unknown pseudonymous payouts)."""
        account = self.accounts.get(name)
        return 0 if account is None else account.balance

    def circulating_value(self) -> int:
        """Total value of coins minted and not yet deposited."""
        return sum(
            coin.value
            for coin_y, coin in self.valid_coins.items()
            if coin_y not in self.deposited
        )

    def verify_conservation(self, expected_total: int) -> bool:
        """Audit hook: accounts + circulating value must equal total wealth.

        Value enters the system only through :meth:`open_account`; every
        protocol operation merely moves it between accounts and coins.  A
        False return means a minting/accounting bug — tests and the stateful
        property machine call this after every step.
        """
        accounts = sum(account.balance for account in self.accounts.values())
        return accounts + self.circulating_value() == expected_total

    def export_ledger(self) -> dict[str, Any]:
        """Audit export: counts, balances, and circulation (no secrets)."""
        return {
            "accounts": {name: account.balance for name, account in self.accounts.items()},
            "coins_minted": len(self.valid_coins),
            "coins_deposited": len(self.deposited),
            "circulating_value": self.circulating_value(),
            "downtime_bindings": len(self.downtime_bindings),
            "fraud_events": len(self.fraud_events),
            "operation_counts": {
                "purchases": self.counts.purchases,
                "deposits": self.counts.deposits,
                "downtime_transfers": self.counts.downtime_transfers,
                "downtime_renewals": self.counts.downtime_renewals,
                "syncs": self.counts.syncs,
                "binding_queries": self.counts.binding_queries,
                "handoffs": self.counts.handoffs,
            },
            "pending_handoffs": len(self.pending_handoffs),
        }

    def health(self) -> dict[str, Any]:
        """Liveness surface for supervisors and dashboards (cheap, no secrets)."""
        pending = len(self.pending_handoffs)
        return {
            "ok": bool(self.online) and pending == 0,
            "online": bool(self.online),
            "address": self.address,
            "pending_handoffs": pending,
            "accounts": len(self.accounts),
            "circulating_value": self.circulating_value(),
            "operations": self.counts.total(),
        }

    # -- federation (cross-shard handoffs) ---------------------------------------

    def attach_federation(self, shard_map: ShardMap, policy: RetryPolicy | None = None) -> None:
        """Join a broker federation: this shard owns the keys the ring maps
        to its address and forwards the rest as two-step handoffs.

        ``policy`` governs shard-to-shard prepare RPCs (retries ride the
        same idempotency discipline as client calls).
        """
        self.shard_map = shard_map
        self._shard_rpc = RpcClient(node=self, policy=policy)

    def _move_value(self, kind: str, data: bytes, effects: list[dict], reply: Any) -> Any:
        """The one path value takes through the broker (docs/FEDERATION.md).

        A handler validates its request and describes the operation as rows
        of :data:`repro.store.apply.EFFECTS`; this partitions them over the
        ring.  All homed here: one validated ``move``, staged with the
        reply.  Otherwise a two-step handoff: the local half is validated
        and *reserved* in a ``handoff_begin`` journaled before any prepare
        RPC (a pending ``h`` is an RPC-level retry: not re-journaled, and
        answered as journaled), then applied by the ``handoff_commit``.
        """
        local: list[dict[str, Any]] = []
        remote: dict[str, list[dict[str, Any]]] = {}
        for effect in effects:
            home = store_apply.home_of(self.shard_map, effect)
            (local if home == self.address else remote.setdefault(home, [])).append(effect)
        if not remote:
            store_apply.validate_effects(self, local)
            self._stage({"type": "move", "effects": local})
            return reply
        h = handoff_id(kind, data)
        if h not in self.pending_handoffs:
            store_apply.validate_effects(self, local)
            begin = {"type": "handoff_begin", "h": h, "effects": local, "reply": reply}
            begin["prepares"] = [
                {"h": f"{h}#{index}", "dest": dest, "effects": remote[dest]}
                for index, dest in enumerate(sorted(remote))
            ]
            self._commit_local(begin)
        reply = self.pending_handoffs[h]["reply"]
        self._finish_handoff(h, staged=True)
        return reply

    def _prepare(self, dest: str, payload: dict[str, Any]) -> None:
        """One ``XSHARD_PREPARE``, sealed under the federation key and
        wrapped in the idempotency envelope keyed by its id, so destination
        dedupe works across retries, crashes, and replay-cache eviction."""
        self._shard_rpc.call(
            dest,
            protocol.XSHARD_PREPARE,
            wrap_idempotent(seal(self.keypair, payload).encode(), payload["h"]),
            deadline=XSHARD_DEADLINE,
        )

    def _finish_handoff(self, h: str, staged: bool) -> None:
        """Second step of a handoff: fan out the prepares, then commit.

        Every prepare is *issued* before the outcome is decided — a batch
        whose coins hash to several shards drives each shard's prepare even
        if an earlier one failed.  Then a *validation* rejection wins: mints
        are compensated, the abort is journaled at once (the handler is
        about to re-raise, which discards staged mutations) and the client
        sees the rejection.  Else a transport failure propagates and the
        handoff stays pending for a re-drive (exactly-once via
        ``handoffs_seen``).  Else the commit rides the request's journal
        record (``staged``: one fsync covers it and the reply) or, on the
        :meth:`complete_pending_handoffs` re-drive, is journaled alone.
        """
        record = self.pending_handoffs[h]
        rejection: ProtocolError | None = None
        transport_failure: NetworkError | None = None
        for prep in record["prepares"]:
            try:
                self._prepare(prep["dest"], {"h": prep["h"], "effects": prep["effects"]})
            except ProtocolError as exc:
                rejection = rejection or exc
            except NetworkError as exc:
                transport_failure = transport_failure or exc
        if rejection is not None:
            # Only mints need undoing (several destinations means a batch
            # purchase; a rejected single prepare applied nothing).  Each
            # cancel names its original as ``undo``, so a shard that never
            # applied it no-ops: safe for the whole record, and to re-drive.
            for prep in record["prepares"]:
                undo = [dict(e, effect="unmint") for e in prep["effects"] if e["effect"] == "mint"]
                if undo:
                    self._prepare(
                        prep["dest"],
                        {"h": prep["h"] + "#cancel", "undo": prep["h"], "effects": undo},
                    )
            self._commit_local({"type": "handoff_abort", "h": h})
            raise rejection
        if transport_failure is not None:
            raise transport_failure
        commit = {"type": "handoff_commit", "h": h}
        if staged:
            self._stage(commit)
        else:
            self._commit_local(commit)

    def complete_pending_handoffs(self) -> int:
        """Re-drive handoffs orphaned by a crash between prepare and commit.

        Deliberately *not* run automatically at recovery: a client whose
        request started the handoff may still be retrying, and its retry
        completes the handoff naturally (same handoff id).  Call this after
        the dust settles — e.g. at the end of a chaos storm — to guarantee
        no value is stuck in flight.  Returns the number completed.
        """
        completed = 0
        for h in sorted(self.pending_handoffs):
            try:
                self._finish_handoff(h, staged=False)
            except ProtocolError:
                continue  # aborted (journaled); value never left the source
            completed += 1
        return completed

    def _handle_xshard_prepare(self, src: str, payload: Any) -> dict[str, Any]:
        """Destination side of a cross-shard handoff (see docs/FEDERATION.md).

        Runs the table's checks on the prepare's effects (as the source did
        on its own half), verifies the signatures they carry, and applies
        them via a journaled ``xshard_apply``.  The durable
        ``handoffs_seen`` set makes re-driven prepares no-ops even if the
        replay cache evicted the original reply.  Prepares arrive sealed
        under the federation key: only a sibling shard can originate one,
        so a forged prepare cannot move value (lint rule WP113).
        """
        self.counts.handoffs += 1
        if not isinstance(payload, (bytes, bytearray)):
            raise ProtocolError("cross-shard prepare must be a sealed envelope")
        sealed = protocol.decode_signed(bytes(payload), self.params)
        if sealed.signer.y != self.public_key.y or not sealed.verify():
            raise VerificationFailed("cross-shard prepare not signed by the federation key")
        payload = sealed.payload
        if not isinstance(payload, dict) or not isinstance(payload.get("h"), str):
            raise ProtocolError("malformed cross-shard prepare")
        if payload["h"] in self.handoffs_seen:
            return {"ok": True, "replayed": True}
        if "undo" in payload and payload["undo"] not in self.handoffs_seen:
            return {"ok": True}  # compensation for a prepare never applied here
        store_apply.validate_effects(self, payload.get("effects"))
        for triple in store_apply.verifiable_signatures(self, payload):
            if not dsa_verify(*triple):
                raise VerificationFailed("cross-shard effect carries an invalid signature")
        self._stage(dict(payload, type="xshard_apply"))
        return {"ok": True}

    # -- verification helpers -----------------------------------------------------

    def mark_preverified(self, vouched: dict[bytes, protocol.HolderRequest | None]) -> None:
        """Record one window of raw requests whose signatures a verification pool checked.

        Keys are SHA-256 digests of the exact request bytes; a value is the
        :class:`~repro.core.protocol.HolderRequest` the pool opened from
        them, or ``None`` (a purchase; a pool that hands nothing back).  When
        each request arrives, the broker skips its *cryptographic* checks
        (group signature, DSA signatures) and does not decode a handed
        request again — the endpoint check and every state check
        (circulation, double-spend, holdership binding, expiry, balances)
        still run here, because only the broker knows which endpoint was
        asked and holds that state.  Entries are consumed on first use, so a
        digest vouches for one admission, and each call drops the previous
        window's leftovers (a replay-cache hit never reaches a handler), so
        nothing outlives its window.
        """
        self._preverified = dict(vouched)

    def _crypto_preverified(self, data: bytes) -> tuple[bool, protocol.HolderRequest | None]:
        """Consume a pool pre-verification for ``data``: whether there was
        one, and the opened request it came with (if any)."""
        if not self._preverified:
            return False, None
        digest = hashlib.sha256(data).digest()
        if digest not in self._preverified:
            return False, None
        return True, self._preverified.pop(digest)

    def _verify_holder_op(self, data: bytes, kind: str) -> protocol.HolderRequest:
        """Common validation for the four holder endpoints (``kind`` is the one serving).

        Returns the opened request — operation, envelope, coin and the
        holder's (verified) proof binding.  Raises a protocol error subclass
        on any failure.

        When the request was pre-verified by a verification pool
        (:meth:`mark_preverified`), the signature checks — the group
        signature here and the DSA batch at the end — are skipped; the pool
        already ran them (unconditionally, including the proof-binding
        signature) on these exact bytes.  A request it handed over opened
        is not parsed again, only checked against this endpoint's kind (the
        pool knows no endpoint).  All state checks below still run.
        """
        crypto_done, request = self._crypto_preverified(data)
        if request is None:
            request = protocol.open_holder_request(data, self.params, kind)
        else:
            request.require_served_as(kind)
        envelope, coin, proof = request.envelope, request.coin, request.proof

        gpk = self.judge.verification_key(envelope.roster_version)
        if not crypto_done and not envelope.verify_group(gpk):
            raise VerificationFailed("holder envelope signatures invalid")
        if coin.cert.signer.y != self.public_key.y:
            raise VerificationFailed("coin certificate invalid")
        if coin.coin_y not in self.valid_coins:
            raise UnknownCoin(f"coin {coin.coin_y:#x} is not in circulation")
        if coin.coin_y in self.deposited:
            event = DoubleSpendDetected(
                "coin already deposited",
                evidence={
                    "coin_y": coin.coin_y,
                    "first_deposit": self.deposited[coin.coin_y],
                    "second_request": data,
                },
            )
            self.fraud_events.append(event)
            raise event

        # The request's DSA signatures (inner holder envelope, coin cert,
        # proof binding) are checked together with one randomized batch
        # verification at the end, after every structural check has picked
        # its precise error.
        dsa_batch = request.dsa_triples()
        stored = self.downtime_bindings.get(coin.coin_y)
        if stored is not None and proof.via_broker:
            # Second flavour (Section 4.2): bit-by-bit comparison with state
            # stands in for the proof binding's signature.
            if proof.encode() != stored.encode():
                raise NotHolder("proof binding does not match broker state")
            dsa_batch.pop()
        else:
            coin_key = coin.coin_public_key(self.params)
            if not proof.verify_unsigned(coin_key, self.public_key):
                raise VerificationFailed("proof binding signature invalid")
            if stored is not None and proof.seq < stored.seq:
                raise NotHolder("proof binding is stale (older than broker state)")
        # Holdership: the inner envelope must be signed by the bound holder key.
        if envelope.coin_signer.y != proof.holder_y:
            raise NotHolder("request not signed with the bound holder key")
        if self.clock.now() > proof.exp_date:
            raise CoinExpired(f"coin {coin.coin_y:#x} expired")
        if not crypto_done and not dsa_batch_verify(dsa_batch):
            # Re-check individually for a precise error message.
            if not envelope.inner.verify():
                raise VerificationFailed("holder envelope signatures invalid")
            if not coin.cert.verify():
                raise VerificationFailed("coin certificate invalid")
            raise VerificationFailed("proof binding signature invalid")
        return request

    def _record_downtime_binding(self, coin: Coin, binding: CoinBinding) -> None:
        self._stage(
            {
                "type": "downtime_binding",
                "coin_y": coin.coin_y,
                "binding": binding.signed.encode(),
                "owner": coin.owner_address,
            }
        )
        # DHT publication is transport-side, not durable state: recovery
        # replay rebuilds the binding table without re-publishing.
        if self.detection is not None:
            self.detection.publish_broker(self, binding)

    # -- handlers --------------------------------------------------------------

    def _handle_purchase(self, src: str, data: bytes) -> bytes:
        """Purchase (Section 4.2): a batch of one."""
        return self._purchase(src, data, protocol.PURCHASE)[0]

    def _handle_purchase_batch(self, src: str, data: bytes) -> list[bytes]:
        """Batch purchase: one signed request, many coins (Section 4.2)."""
        return self._purchase(src, data, protocol.PURCHASE_BATCH)

    def _purchase(self, src: str, data: bytes, kind: str) -> list[bytes]:
        """Verify identity, sign the coins, debit the total, mint each coin.

        Atomic (all minted and the total debited, or nothing) and counted
        as one broker operation — the amortization batching is for.
        """
        self.counts.purchases += 1
        single = kind == protocol.PURCHASE
        label = "purchase" if single else "batch purchase"
        try:
            signed = protocol.decode_signed(data, self.params)
            if single:
                request = protocol.PurchaseRequest.from_payload(signed.payload)
                pairs: Any = ((request.coin_y, request.value),)
            else:
                request = protocol.BatchPurchaseRequest.from_payload(signed.payload)
                pairs = request.coins
        except (ValueError, KeyError, TypeError) as exc:
            raise ProtocolError(f"malformed {label}: {exc}") from exc
        if not self._crypto_preverified(data)[0] and not signed.verify():
            raise VerificationFailed(f"{label} signature invalid")
        if single and request.anonymous:
            # Section 5.2 approach 3: ownerless coin — the certificate binds
            # only the handle and the coin key.  The broker cannot map the
            # coin to its owner afterwards, so no owner index entry is made
            # (which is why lazy synchronization replaces sync for these).
            owner = {"owner_address": None, "owner_y": None, "handle": request.handle}
        else:
            owner = {"owner_address": src, "owner_y": signed.signer.y, "handle": None}
        coins = Coin.build_batch(
            self.keypair, [dict(owner, coin_y=coin_y, value=value) for coin_y, value in pairs]
        )
        minted = [coin.encode() for coin in coins]
        total = sum(coin.value for coin in coins)
        effects = [
            store_apply.effect("debit", total, account=request.account, identity_y=signed.signer.y)
        ] + [
            store_apply.effect("mint", coin.value, coin_y=coin.coin_y, coin=raw)
            for coin, raw in zip(coins, minted)
        ]
        return self._move_value(kind, data, effects, minted)

    def _handle_deposit(self, src: str, data: bytes) -> dict[str, Any]:
        """Deposit: verify holdership + membership, credit, retire the coin."""
        self.counts.deposits += 1
        request = self._verify_holder_op(data, protocol.DEPOSIT)
        operation, envelope, coin = request.operation, request.envelope, request.coin
        # The broker's registry is authoritative for value: a holder whose
        # certificate predates a top-up still redeems the full amount.
        # Unknown payout names open a pseudonymous bearer account on the fly
        # (the depositor stays anonymous; the account token is its claim).
        value = self.valid_coins[coin.coin_y].value
        effects = [
            store_apply.effect("retire", value, coin_y=coin.coin_y, envelope=data),
            store_apply.effect(
                "credit", value, account=operation.payout_to, identity_y=envelope.coin_signer.y
            ),
        ]
        reply = self._move_value(protocol.DEPOSIT, data, effects, {"ok": True, "credited": value})
        self.params.forget(coin.coin_y)  # accepted: nobody exponentiates this coin's key again
        return reply

    def _fresh_binding(self, coin: Coin, holder_y: int, previous_seq: int) -> CoinBinding:
        return CoinBinding.build(
            self.keypair,
            coin_y=coin.coin_y,
            holder_y=holder_y,
            seq=previous_seq + 1,
            exp_date=self.clock.now() + self.renewal_period,
            via_broker=True,
            nonce_pool=self.nonce_pool,
        )

    def _handle_downtime_transfer(self, src: str, data: bytes) -> bytes:
        """Downtime transfer (Section 4.2): re-bind the coin, keep state."""
        self.counts.downtime_transfers += 1
        request = self._verify_holder_op(data, protocol.DOWNTIME_TRANSFER)
        new_holder_y = request.operation.new_holder_y
        if not self.params.is_element(new_holder_y):
            raise ProtocolError("new holder key is not a valid group element")
        binding = self._fresh_binding(request.coin, new_holder_y, request.proof.seq)
        self._record_downtime_binding(request.coin, binding)
        return binding.encode()

    def _handle_downtime_renewal(self, src: str, data: bytes) -> bytes:
        """Downtime renewal (Section 4.2): same holder, new seq and expiry."""
        self.counts.downtime_renewals += 1
        request = self._verify_holder_op(data, protocol.DOWNTIME_RENEWAL)
        binding = self._fresh_binding(request.coin, request.proof.holder_y, request.proof.seq)
        self._record_downtime_binding(request.coin, binding)
        return binding.encode()

    def _handle_top_up(self, src: str, data: bytes) -> bytes:
        """Increase a coin's value (the Section 2 security property's "only
        the broker can … increase the value of coins").

        The requester proves holdership anonymously (dual-signed envelope)
        and separately authorizes the funding debit with the funding
        account's identity key.  The broker re-mints the certificate at the
        new value; the coin key, owner, and current binding are untouched,
        so the coin keeps circulating seamlessly.
        """
        self.counts.purchases += 1  # value creation: accounted like a purchase
        request = self._verify_holder_op(data, protocol.TOP_UP)
        operation, coin, auth = request.operation, request.coin, request.funding_auth
        auth_payload = auth.payload
        if (
            auth_payload.get("kind") != "whopay.debit_auth"
            or auth_payload.get("coin_y") != coin.coin_y
            or auth_payload.get("amount") != operation.delta
        ):
            raise ProtocolError("malformed funding authorization")
        # Identity and balance are checked where the funding account lives
        # (the debit's table row); the signature is checked here.
        if not auth.verify():
            raise VerificationFailed("funding authorization signature invalid")
        payload = coin.payload
        new_coin = Coin.build(
            self.keypair,
            coin_y=coin.coin_y,
            value=self.valid_coins[coin.coin_y].value + operation.delta,
            owner_address=payload["owner"],
            owner_y=payload["owner_y"],
            handle=payload["handle"],
        ).encode()
        account = str(auth_payload.get("account"))
        effects = [
            store_apply.effect("debit", operation.delta, account=account, identity_y=auth.signer.y),
            store_apply.effect("remint", operation.delta, coin_y=coin.coin_y, coin=new_coin),
        ]
        return self._move_value(protocol.TOP_UP, data, effects, new_coin)

    def _handle_sync_challenge(self, src: str, _payload: Any) -> bytes:
        """First half of sync: hand out a fresh challenge nonce."""
        nonce = secrets.token_bytes(16)
        self._sync_nonces[src] = nonce
        return nonce

    def _handle_sync(self, src: str, data: bytes) -> list[tuple[int, bytes]]:
        """Proactive synchronization (Section 4.2).

        The owner proves its identity by signing the challenge nonce with its
        identity key; the broker replies with every binding it recorded for
        the owner's coins during the downtime.
        """
        self.counts.syncs += 1
        try:
            signed = protocol.decode_signed(data, self.params)
            payload = signed.payload
            nonce = payload["nonce"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ProtocolError(f"malformed sync: {exc}") from exc
        expected = self._sync_nonces.pop(src, None)
        # Constant-time: the nonce gates a state-revealing reply, so the
        # comparison must not leak the matching prefix length.
        if (
            expected is None
            or not isinstance(nonce, bytes)
            or not hmac.compare_digest(nonce, expected)
        ):
            raise VerificationFailed("sync nonce missing or mismatched")
        if not signed.verify():
            raise VerificationFailed("sync signature invalid")
        owned = self.owner_coins.get(src, set())
        known_identities = {
            self.valid_coins[coin_y].owner_y for coin_y in owned
        }
        if owned and signed.signer.y not in known_identities:
            raise VerificationFailed("sync not signed by the coin owner's identity")
        changed = self.pending_sync.get(src, set())
        response = []
        for coin_y in sorted(changed):
            binding = self.downtime_bindings.get(coin_y)
            if binding is not None:
                response.append((coin_y, binding.encode()))
        if src in self.pending_sync:
            self._stage({"type": "sync_consumed", "owner": src})
        return response

    def _handle_binding_query(self, src: str, coin_y: int) -> bytes | None:
        """Lazy-sync check: the owner asks for broker state on one coin."""
        self.counts.binding_queries += 1
        binding = self.downtime_bindings.get(coin_y)
        return None if binding is None else binding.encode()
