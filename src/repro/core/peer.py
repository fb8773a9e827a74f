"""The WhoPay peer: wallet holder, coin owner, payer and payee (Section 4).

One :class:`Peer` plays every user role in the paper:

* **buyer** — :meth:`purchase` coins from the broker;
* **payer** — :meth:`issue` coins it owns, :meth:`transfer` coins it holds
  (via the owner when online, via the broker otherwise), with :meth:`pay`
  choosing the method by a preference policy;
* **payee** — handles issue/transfer offers, minting a fresh per-coin key
  pair for each payment and verifying the whole evidence chain before
  accepting;
* **owner** — serves transfer and renewal requests for the coins it
  purchased, maintains the binding list and relinquishment audit trail, and
  synchronizes with the broker after downtime (proactively or lazily,
  Section 5.2);
* **holder** — renews held coins before expiry and deposits them for cash.

Anonymity mechanics exactly as specified: holder-side messages are signed
with the per-coin holder key plus the group key (never the identity key),
so neither the owner nor the broker learns who holds, pays, or deposits.
"""

from __future__ import annotations

import secrets
import zlib
from dataclasses import dataclass, field
from typing import Any

from repro.core import protocol
from repro.core.clients import BrokerClient, PeerClient
from repro.core.clock import DEFAULT_RENEWAL_PERIOD, Clock
from repro.core.coin import Coin, CoinBinding, HeldCoin, OwnedCoinState
from repro.core.errors import (
    CoinExpired,
    NotHolder,
    NotOwner,
    ProtocolError,
    ServiceUnavailable,
    UnknownCoin,
    VerificationFailed,
)
from repro.core.judge import Judge
from repro.crypto.dsa import DsaSignature, dsa_batch_verify
from repro.crypto.group_signature import GroupMemberKey
from repro.crypto.keys import KeyPair, PublicKey
from repro.crypto.params import DlogParams
from repro.crypto.schnorr import SchnorrProof, schnorr_prove, schnorr_verify
from repro.anonymity.pseudonym import funding_voucher
from repro.messages.envelope import DualSignedMessage, group_countersign, group_seal, seal
from repro.net.liveness import BreakerBoard, BreakerConfig
from repro.net.node import Node
from repro.net.rpc import CircuitOpen, RetryPolicy
from repro.net.transport import NetworkError, NodeOffline, Transport
from repro.store import records as wallet_records
from repro.store.journal import DurableStore

#: How long before expiry a holder starts renewing (one quarter of the period).
RENEWAL_WINDOW_FRACTION = 0.25

#: Offers a payee keeps open at once; past it the oldest gives way, so offers
#: that are never completed cannot pile up (each holds a key pair and a coin).
MAX_PENDING_OFFERS = 256


@dataclass
class PeerCounts:
    """Per-operation counters (the peer-side load of Figures 4/5)."""

    purchases: int = 0
    issues: int = 0
    transfers_sent: int = 0
    transfers_handled: int = 0
    renewals_sent: int = 0
    renewals_handled: int = 0
    deposits: int = 0
    downtime_transfers: int = 0
    downtime_renewals: int = 0
    syncs: int = 0
    checks: int = 0
    lazy_syncs: int = 0
    payments_received: int = 0


@dataclass
class Alarm:
    """A real-time double-spend alarm raised by binding monitoring."""

    coin_y: int
    expected_holder_y: int
    observed_holder_y: int
    observed_seq: int
    at: float


@dataclass
class _PendingOffer:
    """Payee-side state between offer and completion."""

    coin: Coin  # verified at the offer; a completion with the same bytes is not re-verified
    coin_bytes: bytes
    holder_keypair: KeyPair
    payer: str


class Peer(Node):
    """A WhoPay user agent attached to the shared transport."""

    def __init__(
        self,
        transport: Transport,
        address: str,
        params: DlogParams,
        clock: Clock,
        judge: Judge,
        member_key: GroupMemberKey,
        broker_address: str,
        broker_key: PublicKey,
        sync_mode: str = "proactive",
        renewal_period: float = DEFAULT_RENEWAL_PERIOD,
        retry_policy: RetryPolicy | None = None,
        store: DurableStore | None = None,
        shard_map: Any = None,
        breaker_config: BreakerConfig | None = None,
    ) -> None:
        if sync_mode not in ("proactive", "lazy"):
            raise ValueError("sync_mode must be 'proactive' or 'lazy'")
        super().__init__(transport, address)
        self.params = params
        self.clock = clock
        self.judge = judge
        self.identity = KeyPair.generate(params)
        self.member_key = member_key
        self.broker_address = broker_address
        self.broker_key = broker_key
        self.sync_mode = sync_mode
        self.renewal_period = renewal_period
        # All outbound protocol traffic goes through the typed facades; the
        # retry policy (default: single attempt) is threaded here once.
        # ``shard_map`` makes the broker facade federation-aware — each call
        # routes straight to the shard owning the coin/account it touches.
        self.retry_policy = retry_policy
        # Broker traffic (only) sits behind per-destination circuit breakers
        # when configured: a dead shard trips its breaker, later calls
        # short-circuit with ``CircuitOpen`` instead of burning retry budget,
        # and ``pay`` queues the payment until the breaker half-opens and the
        # shard proves itself recovered.  Peer-to-peer traffic stays bare —
        # churned peers going offline is ordinary protocol life, not failure.
        self.breakers = (
            BreakerBoard(breaker_config, seed=zlib.crc32(address.encode()))
            if breaker_config is not None
            else None
        )
        self.broker_client = BrokerClient(
            self, broker_address, policy=retry_policy, shard_map=shard_map,
            breakers=self.breakers,
        )
        self.peer_client = PeerClient(self, policy=retry_policy)
        #: Payments deferred because every route to the broker was degraded
        #: (tripped breaker / offline shard / retries exhausted); drained by
        #: :meth:`drain_payment_queue` once the destination recovers.
        self.payment_queue: list[tuple[str, tuple[str, ...]]] = []

        self.wallet: dict[int, HeldCoin] = {}
        self.owned: dict[int, OwnedCoinState] = {}
        self.counts = PeerCounts()
        self.alarms: list[Alarm] = []
        self.detection = None  # set by WhoPayNetwork when the DHT is enabled
        self._pending: dict[bytes, _PendingOffer] = {}
        self._expected_rebinds: set[int] = set()  # coins I am moving myself
        self.store: DurableStore | None = None
        if store is not None:
            self.bind_store(store)

        self.on(protocol.ISSUE_OFFER, self._handle_payment_offer)
        self.on(protocol.ISSUE_COMPLETE, self._handle_payment_complete)
        self.on(protocol.TRANSFER_OFFER, self._handle_payment_offer)
        self.on(protocol.TRANSFER_COMPLETE, self._handle_payment_complete)
        self.on(protocol.TRANSFER_REQUEST, self._handle_transfer_request)
        self.on(protocol.RENEW_REQUEST, self._handle_renew_request)
        self.on(protocol.BINDING_UPDATE, self._handle_binding_update)

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------

    def bind_store(self, store: DurableStore) -> None:
        """Attach a durable store; wallet mutations are journaled from here on.

        A fresh store gets a ``peer_init`` record (identity and group member
        secrets — coins are bearer key material, so losing these loses
        money).  A non-fresh store belongs to
        :class:`~repro.store.recovery.RecoveryManager`, which binds it after
        replay.
        """
        was_fresh = store.fresh
        self.store = store
        if was_fresh:
            self._wal(
                wallet_records.peer_init_record(
                    self.address, self.identity, self.member_key
                )
            )

    def _wal(self, *muts: dict[str, Any]) -> None:
        """Durably journal wallet mutations (no-op without a store)."""
        if self.store is not None:
            self.store.append(
                {"kind": "__wallet__", "idem": None, "reply": None, "muts": list(muts)}
            )

    def _wal_held(self, held: HeldCoin) -> None:
        if self.store is not None:
            self._wal({"type": "wallet_put", "entry": wallet_records.held_entry(held)})

    def _wal_owned(self, *states: OwnedCoinState, then: tuple[dict[str, Any], ...] = ()) -> None:
        """One record: an ``owned_put`` per state, then the ``then`` mutations.

        Each put carries the relinquishments its coin's previous put did not
        (``trail_journaled``), so a trail is journaled once however often
        its coin changes hands.
        """
        if self.store is not None:
            puts = [
                {"type": "owned_put", "entry": wallet_records.owned_entry(s, s.trail_journaled)}
                for s in states
            ]
            self._wal(*puts, *then)
            for s in states:
                s.trail_journaled = len(s.relinquishments)

    def _wal_del(self, coin_y: int) -> None:
        self._wal({"type": "wallet_del", "coin_y": coin_y})

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _verify_dual(self, envelope: DualSignedMessage) -> bool:
        try:
            gpk = self.judge.verification_key(envelope.roster_version)
        except VerificationFailed:
            return False  # a revoked snapshot, or one the judge never issued
        return envelope.verify(gpk)

    def _owner_proof_context(self, nonce: bytes, binding: CoinBinding) -> bytes:
        return b"whopay-owner-proof|" + nonce + b"|" + binding.encode()

    def balance_held(self) -> int:
        """Total value of coins currently in the wallet."""
        return sum(held.value for held in self.wallet.values())

    def spendable_owned(self) -> list[int]:
        """Coins this peer owns that have never been issued (issuable)."""
        return [coin_y for coin_y, state in self.owned.items() if not state.issued]

    def wallet_summary(self) -> list[dict[str, Any]]:
        """Inspection view of every held coin (no secrets included)."""
        now = self.clock.now()
        rows = []
        for held in self.wallet.values():
            owner = held.coin.owner_address
            rows.append(
                {
                    "coin": held.coin_y,
                    "value": held.value,
                    "owner": owner if owner is not None else "<anonymous>",
                    "owner_online": bool(owner and self.transport.is_online(owner)),
                    "seq": held.binding.seq,
                    "via_broker": held.binding.via_broker,
                    "expires_in": held.binding.exp_date - now,
                    "expired": held.is_expired(now),
                }
            )
        return rows

    def owned_summary(self) -> list[dict[str, Any]]:
        """Inspection view of every owned coin (no secrets included)."""
        rows = []
        for state in self.owned.values():
            rows.append(
                {
                    "coin": state.coin_y,
                    "value": state.coin.value,
                    "issued": state.issued,
                    "seq": state.binding.seq if state.binding else None,
                    "relinquishments": len(state.relinquishments),
                    "needs_check": state.dirty,
                }
            )
        return rows

    # ------------------------------------------------------------------
    # lifecycle / churn
    # ------------------------------------------------------------------

    def depart(self) -> None:
        """Go offline (coins owned by this peer become 'offline coins')."""
        self.go_offline()

    def rejoin(self) -> None:
        """Come back online; synchronize state per the configured mode.

        Proactive: one sync exchange with the broker immediately (the paper's
        base protocol).  Lazy (Section 5.2): mark every owned coin as
        possibly-stale; the first transfer/renewal request for a coin then
        triggers a *check*.
        """
        self.go_online()
        if self.sync_mode == "proactive":
            self.sync_with_broker()
        else:
            for state in self.owned.values():
                state.dirty = True
            self._wal({"type": "owned_dirty_all"})

    def sync_with_broker(self) -> int:
        """Proactive synchronization; returns how many bindings were updated.

        Every returned binding is signed by the same key (the broker's), so
        the signatures are checked with one randomized batch verification;
        only a failing batch falls back to per-binding checks to surface the
        precise offender.
        """
        # An owner's coins live on the shards the ring assigns them to, so
        # sync only the shards that actually hold some of ours (one exchange
        # per such shard; with nothing owned, the default shard alone).
        shard_map = self.broker_client.shard_map
        homes = {shard_map.shard_for_coin(coin_y) for coin_y in self.owned}
        shards = sorted(homes) or [self.broker_address]
        accepted: list[tuple[OwnedCoinState, CoinBinding]] = []
        for shard in shards:
            # The broker holds the nonce in memory only: a shard that restarted
            # between the two steps has forgotten it, so re-challenge, once.
            for last in (False, True):
                nonce = self.broker_client.sync_challenge(shard=shard)
                signed = seal(self.identity, {"kind": "whopay.sync", "nonce": nonce})
                try:
                    updates = self.broker_client.sync(signed.encode(), shard=shard)
                    break
                except VerificationFailed:
                    if last:
                        raise
            for coin_y, binding_bytes in updates:
                state = self.owned.get(coin_y)
                if state is None:
                    continue
                binding = CoinBinding(
                    signed=protocol.decode_signed(binding_bytes, self.params), via_broker=True
                )
                if not binding.verify_unsigned(state.coin_keypair.public, self.broker_key):
                    raise VerificationFailed("broker sync returned an invalid binding")
                accepted.append((state, binding))
        self.counts.syncs += 1
        batch = [
            (binding.signed.signer, binding.signed.payload_bytes, binding.signed.signature)
            for _, binding in accepted
        ]
        if not dsa_batch_verify(batch):
            for _, binding in accepted:
                if not binding.signed.verify():
                    raise VerificationFailed("broker sync returned an invalid binding")
            raise VerificationFailed("broker sync batch verification failed")
        # One journal record: a crash keeps the whole sync or none of it.
        updated = []
        for state, binding in accepted:
            if state.binding is None or binding.seq > state.binding.seq:
                state.binding = binding
                updated.append(state)
        for state in self.owned.values():
            state.dirty = False
        self._wal_owned(*updated, then=({"type": "owned_clean_all"},))
        return len(updated)

    def _check_coin_state(self, state: OwnedCoinState) -> None:
        """Lazy-sync *check*: refresh one coin's binding before serving it.

        Consults the public binding list when real-time detection is running
        (the Section 5.2 design), otherwise asks the broker directly.  If the
        authoritative state is newer than ours, adopt it — that adoption is
        what the paper calls a lazy synchronization.
        """
        self.counts.checks += 1
        latest = self._fetch_verified_binding(state)
        if latest is not None and (state.binding is None or latest.seq > state.binding.seq):
            state.binding = latest
            self.counts.lazy_syncs += 1
        state.dirty = False
        self._wal_owned(state)

    def _fetch_verified_binding(self, state: OwnedCoinState) -> CoinBinding | None:
        """Fetch the authoritative binding, verified at the trust boundary.

        Every decode is checked before the binding escapes this helper, so
        callers only ever see ``None`` or a broker-signed binding.
        """
        if self.detection is not None:
            latest = self.detection.fetch_binding(self.address, state.coin_y)
            if latest is not None and not latest.verify(
                state.coin_keypair.public, self.broker_key
            ):
                raise VerificationFailed("public binding fails verification")
            return latest
        raw = self.broker_client.binding_query(state.coin_y)
        if raw is None:
            return None
        latest = CoinBinding(
            signed=protocol.decode_signed(raw, self.params), via_broker=True
        )
        if not latest.verify(state.coin_keypair.public, self.broker_key):
            raise VerificationFailed("public binding fails verification")
        return latest

    # ------------------------------------------------------------------
    # buyer: purchase
    # ------------------------------------------------------------------

    def purchase(self, value: int = 1, account: str | None = None) -> OwnedCoinState:
        """Buy a coin from the broker (Section 4.2, Purchase)."""
        return self._purchase(KeyPair.generate(self.params), value, account)

    def _purchase(
        self, coin_keypair: KeyPair, value: int, account: str | None, handle: bytes | None = None
    ) -> OwnedCoinState:
        """One purchase round trip: request, verify the reply, record, journal.

        ``handle`` asks for an ownerless coin addressed by that i3 handle
        (Section 5.2, approach 3); ``None`` for a basic coin.  The coin that
        comes back must be the broker's, for *this* coin key and with exactly
        that handle — anything else would be filed under a key or a
        rendezvous this peer cannot answer for.
        """
        request = protocol.PurchaseRequest(
            coin_y=coin_keypair.public.y,
            value=value,
            account=account if account is not None else self.address,
            anonymous=handle is not None,
            handle=handle,
        )
        signed = seal(self.identity, request.to_payload())
        coin_bytes = self.broker_client.purchase(signed.encode(), account=request.account)
        coin = Coin(cert=protocol.decode_signed(coin_bytes, self.params))
        if (
            not coin.verify(self.broker_key)
            or coin.coin_y != coin_keypair.public.y
            or coin.handle != handle
        ):
            raise VerificationFailed("broker returned an invalid coin")
        state = OwnedCoinState(coin=coin, coin_keypair=coin_keypair)
        self.owned[coin.coin_y] = state
        self._wal_owned(state)
        self.counts.purchases += 1
        return state

    def purchase_batch(self, count: int, value: int = 1, account: str | None = None) -> list[OwnedCoinState]:
        """Buy ``count`` coins in one signed round trip (Section 4.2).

        One broker operation regardless of ``count`` — the batching
        amortization the paper points out.  Atomic on the broker side.
        """
        if count < 1:
            raise ValueError("batch needs at least one coin")
        keypairs = [KeyPair.generate(self.params) for _ in range(count)]
        request = protocol.BatchPurchaseRequest(
            coins=tuple((kp.public.y, value) for kp in keypairs),
            account=account if account is not None else self.address,
        )
        signed = seal(self.identity, request.to_payload())
        minted = self.broker_client.purchase_batch(signed.encode(), account=request.account)
        if len(minted) != count:
            raise VerificationFailed("broker returned the wrong number of coins")
        states: list[OwnedCoinState] = []
        by_y = {kp.public.y: kp for kp in keypairs}
        # One randomized batch verification covers every certificate in the
        # reply — the broker attaches ``sig_c`` commit hints precisely so
        # receivers can do this.  Structural checks stay per coin; on a
        # batch failure, re-check individually to name the bad certificate
        # without rejecting the honest ones alongside it.
        dsa_batch: list[tuple[PublicKey, bytes, DsaSignature]] = []
        coins: list[Coin] = []
        for coin_bytes in minted:
            coin = Coin(cert=protocol.decode_signed(coin_bytes, self.params))
            keypair = by_y.get(coin.coin_y)
            if (
                keypair is None
                or coin.cert.signer.y != self.broker_key.y
                or not coin.verify_unsigned()
            ):
                raise VerificationFailed("broker returned an invalid batch coin")
            dsa_batch.append((coin.cert.signer, coin.cert.payload_bytes, coin.cert.signature))
            coins.append(coin)
        if not dsa_batch_verify(dsa_batch):
            bad = [coin for coin in coins if not coin.verify(self.broker_key)]
            raise VerificationFailed(
                f"broker returned {len(bad)} invalid batch coin certificate(s)"
            )
        for coin in coins:
            state = OwnedCoinState(coin=coin, coin_keypair=by_y[coin.coin_y])
            self.owned[coin.coin_y] = state
            states.append(state)
        self._wal_owned(*states)
        self.counts.purchases += 1
        return states

    # ------------------------------------------------------------------
    # payer: issue / transfer / deposit / renewal
    # ------------------------------------------------------------------

    def issue(self, payee: str, coin_y: int | None = None) -> CoinBinding:
        """Issue a coin this peer owns to ``payee`` (Section 4.2, Issue)."""
        candidates = self.spendable_owned()
        if coin_y is None:
            if not candidates:
                raise UnknownCoin("no unissued coin to issue")
            coin_y = candidates[0]
        state = self.owned.get(coin_y)
        if state is None:
            raise NotOwner(f"not the owner of coin {coin_y:#x}")
        if state.issued:
            raise ProtocolError("coin already issued; it must circulate by transfer")

        offer = self.peer_client.issue_offer(payee, state.coin.encode())
        holder_y, nonce = offer["holder_y"], offer["nonce"]
        # "a randomly chosen sequence number" — but never at or below one we
        # already signed (a failed earlier attempt may have published it).
        seq = max(secrets.randbelow(1 << 30), state.seq_floor + 1)
        state.seq_floor = seq
        # Journal the floor *before* the binding can be published: a crash
        # mid-issue must never lead to re-signing an already-used seq.
        self._wal_owned(state)
        binding = CoinBinding.build(
            state.coin_keypair,
            coin_y=state.coin_y,
            holder_y=holder_y,
            seq=seq,
            exp_date=self.clock.now() + self.renewal_period,
        )
        if self.detection is not None:
            self.detection.publish_owner(self, state, binding)
        result = self.peer_client.issue_complete(
            payee, self._completion_payload(state, binding, nonce)
        )
        if not result.get("ok"):
            raise ProtocolError(f"payee rejected the issue: {result.get('reason')}")
        state.binding = binding
        self._wal_owned(state)
        self.counts.issues += 1
        return binding

    def _completion_payload(
        self, state: OwnedCoinState, binding: CoinBinding, nonce: bytes
    ) -> dict[str, Any]:
        """Build the ISSUE/TRANSFER_COMPLETE payload for a coin I own.

        Basic coins: ownership is proven with the identity key (the coin
        names its owner).  Ownerless coins (Section 5.2 approach 3):
        ownership is proven with the *coin* key, and the binding is wrapped
        in a group signature — "peers sign their messages with their group
        private keys when issuing coins" — so a cheating anonymous issuer
        can still be opened by the judge.
        """
        if state.coin.is_ownerless:
            gpk = self.judge.group_public_key()
            dual = group_countersign(binding.signed, self.member_key, gpk)
            proof = schnorr_prove(
                state.coin_keypair, self._owner_proof_context(nonce, binding)
            )
            return {
                "coin": state.coin.encode(),
                "binding": None,
                "binding_dual": protocol.encode_dual(dual),
                "via_broker": False,
                "proof_t": proof.commitment,
                "proof_z": proof.response,
                "nonce": nonce,
            }
        proof = schnorr_prove(self.identity, self._owner_proof_context(nonce, binding))
        return {
            "coin": state.coin.encode(),
            "binding": binding.encode(),
            "binding_dual": None,
            "via_broker": False,
            "proof_t": proof.commitment,
            "proof_z": proof.response,
            "nonce": nonce,
        }

    def _holder_envelope(self, held: HeldCoin, op: str, **fields: Any) -> DualSignedMessage:
        operation = protocol.HolderOperation(
            op=op,
            coin_cert=held.coin.encode(),
            proof_binding=held.binding.signed.encode(),
            proof_via_broker=held.binding.via_broker,
            **fields,
        )
        gpk = self.judge.group_public_key()
        return group_seal(held.holder_keypair, self.member_key, gpk, operation.to_payload())

    def _pick_held(self, coin_y: int | None, owner_online: bool | None = None) -> HeldCoin:
        now = self.clock.now()
        if coin_y is not None:
            held = self.wallet.get(coin_y)
            if held is None:
                raise NotHolder(f"not holding coin {coin_y:#x}")
            return held
        for held in self.wallet.values():
            if held.is_expired(now):
                continue
            # An ownerless coin matches either way: whether its owner is
            # reachable (through the handle) only asking can tell.
            owner = held.coin.owner_address
            if owner_online is None or owner is None or self.transport.is_online(owner) == owner_online:
                return held
        raise UnknownCoin("no suitable coin in the wallet")

    def _ask_owner(self, held: HeldCoin, kind: str, payload: Any) -> Any:
        """Reach this coin's owner (``NodeOffline`` when there is no way to) —
        the seam :class:`AnonymousOwnerPeer` overrides."""
        owner = held.coin.owner_address
        if owner is None:
            raise NodeOffline(f"coin {held.coin_y:#x} names no owner address")
        return self.peer_client.holder_request(owner, kind, payload)

    def _holder_exchange(
        self, held: HeldCoin, op: str, via_broker: bool, payee: str | None = None, **fields: Any
    ) -> Any:
        """The holder's side of a row of :data:`protocol.HOLDER_OPS`: seal the
        request, send it along one route, return the reply.

        The route is the coin's owner (the row's owner kind) or the broker
        (its downtime kind); ``payee`` marks a transfer, whose owner
        completes with the payee itself.  A renewal whose owner turns out
        unreachable falls back to the broker with the same envelope; a
        transfer does not — that choice is :meth:`pay`'s.

        A transfer or renewal comes back as the *accepted* new binding — the
        one acceptance check: signed by the key the route dictates (coin
        key from the owner, ``pk_B`` from the broker) over this coin, naming
        the expected holder key (the payee's, or mine for a renewal),
        ``seq`` strictly above the held one.
        """
        row = protocol.HOLDER_OPS[op]
        data = protocol.encode_dual(self._holder_envelope(held, op, **fields))
        if row.wallet == "delete":
            # The rebind about to appear on the public list is our own doing
            # (Section 5.1: only *unexpected* updates matter) — while the
            # request is out, and not a moment longer if it fails.
            self._expected_rebinds.add(held.coin_y)
        try:
            if not via_broker:
                try:
                    if payee is None:
                        reply = self._ask_owner(held, row.owner_kind, data)
                    else:
                        request = {"envelope": data, "payee": payee, "nonce": fields["nonce"]}
                        reply = self._ask_owner(held, row.owner_kind, request)["binding"]
                except NodeOffline:
                    if payee is not None:
                        raise
                    via_broker = True  # a renewal: the broker answers the same envelope
            if via_broker:
                reply = self.broker_client.holder_op(op, data, coin_y=held.coin_y)
        finally:
            self._expected_rebinds.discard(held.coin_y)
        if row.owner_kind is None:
            return reply  # deposit / top-up: the caller knows what the broker owes it
        binding = CoinBinding(
            signed=protocol.decode_signed(reply, self.params), via_broker=via_broker
        )
        if not binding.verify(held.coin.coin_public_key(self.params), self.broker_key):
            raise VerificationFailed(f"{op} returned an invalid binding")
        expected = fields.get("new_holder_y", held.holder_keypair.public.y)
        if binding.holder_y != expected or binding.seq <= held.binding.seq:
            raise VerificationFailed(f"{op} binding does not match the request")
        return binding

    def _settle(self, held: HeldCoin, op: str, reply: Any = None) -> None:
        """Do, and journal, what the op's row says the wallet does on success."""
        effect = protocol.HOLDER_OPS[op].wallet
        if effect == "delete":
            if self.detection is not None:
                self.detection.unsubscribe(self, held.coin_y)
            del self.wallet[held.coin_y]
            self._wal_del(held.coin_y)
            return
        if effect == "binding":
            held.binding = reply
        else:
            held.coin = reply
        self._wal_held(held)

    def _transfer(self, held: HeldCoin, payee: str, via_broker: bool) -> CoinBinding:
        if held.is_expired(self.clock.now()):
            raise CoinExpired(f"coin {held.coin_y:#x} expired")
        offer = self.peer_client.transfer_offer(payee, held.coin.encode())
        binding = self._holder_exchange(
            held, "transfer", via_broker, payee,
            new_holder_y=offer["holder_y"], nonce=offer["nonce"],
        )
        if via_broker:
            # Relay the completed payment to the payee (the broker stays out
            # of the payer-payee path; Section 4.2 has the broker "send W the
            # signed binding" — the relay is equivalent and keeps W hidden
            # from B).
            result = self.peer_client.transfer_complete(
                payee,
                {
                    "coin": held.coin.encode(),
                    "binding": binding.encode(),
                    "binding_dual": None,
                    "via_broker": True,
                    "proof_t": None,
                    "proof_z": None,
                    "nonce": offer["nonce"],
                },
            )
            if not result.get("ok"):
                raise ProtocolError(f"payee rejected the downtime transfer: {result.get('reason')}")
        self._settle(held, "transfer")
        return binding

    def transfer(self, payee: str, coin_y: int | None = None) -> CoinBinding:
        """Transfer a held coin via its owner (Section 4.2, Transfer)."""
        binding = self._transfer(self._pick_held(coin_y, owner_online=True), payee, False)
        self.counts.transfers_sent += 1
        return binding

    def transfer_via_broker(self, payee: str, coin_y: int | None = None) -> CoinBinding:
        """Transfer a held coin whose owner is offline (Downtime transfer)."""
        binding = self._transfer(self._pick_held(coin_y, owner_online=False), payee, True)
        self.counts.downtime_transfers += 1
        return binding

    def deposit(self, coin_y: int | None = None, payout_to: str | None = None) -> int:
        """Deposit a held coin at the broker for cash (Section 4.2, Deposit).

        ``payout_to`` defaults to a fresh pseudonymous bearer account so the
        deposit reveals nothing; pass the peer's named account to cash out
        identifiably.  Returns the credited value.
        """
        held = self._pick_held(coin_y)
        account = payout_to if payout_to is not None else "bearer-" + secrets.token_hex(8)
        result = self._holder_exchange(held, "deposit", True, payout_to=account)
        if not result.get("ok"):
            raise ProtocolError("broker rejected the deposit")
        self._settle(held, "deposit")
        self.params.forget(held.coin_y)  # the coin is dead, and with it the table its key was promoted to
        self.counts.deposits += 1
        return result["credited"]

    def top_up(self, coin_y: int, delta: int, funding_account: str | None = None) -> int:
        """Increase a held coin's value by ``delta`` (broker-only operation).

        Holdership is proven anonymously; the funding debit is authorized
        with this peer's identity key against ``funding_account`` (default:
        the peer's named account — fund from an account created under a
        fresh identity if the link matters).  Returns the new value.
        """
        if delta <= 0:
            raise ValueError("top-up delta must be positive")
        held = self._pick_held(coin_y)
        account = funding_account if funding_account is not None else self.address
        auth = funding_voucher(self.identity, account, delta, coin_y)
        new_cert = self._holder_exchange(held, "top_up", True, delta=delta, funding_auth=auth)
        new_coin = Coin(cert=protocol.decode_signed(new_cert, self.params))
        if (
            not new_coin.verify(self.broker_key)
            or new_coin.coin_y != coin_y
            or new_coin.value != held.coin.value + delta
        ):
            raise VerificationFailed("broker returned an invalid topped-up coin")
        self._settle(held, "top_up", new_coin)
        return new_coin.value

    def renew(self, coin_y: int) -> CoinBinding:
        """Renew a held coin via its owner, or the broker when offline."""
        held = self._pick_held(coin_y)
        owner = held.coin.owner_address
        binding = self._holder_exchange(
            held, "renewal", owner is not None and not self.transport.is_online(owner)
        )
        self._settle(held, "renewal", binding)
        if binding.via_broker:
            self.counts.downtime_renewals += 1
        else:
            self.counts.renewals_sent += 1
        return binding

    def renew_due_coins(self) -> int:
        """Renew every held coin inside its renewal window; returns count."""
        window = self.renewal_period * RENEWAL_WINDOW_FRACTION
        due = [
            coin_y
            for coin_y, held in self.wallet.items()
            if held.needs_renewal(self.clock.now(), window)
        ]
        for coin_y in due:
            self.renew(coin_y)
        return len(due)

    def pay(self, payee: str, preferences: tuple[str, ...] = ("transfer", "downtime_transfer", "issue", "purchase_issue")) -> str:
        """Make one unit payment to ``payee`` following a preference order.

        The preference tuple mirrors the paper's Section 6.1 policies; each
        entry is tried in order and the first applicable method is used.
        Returns the method that succeeded.  Raises
        :class:`~repro.core.errors.ProtocolError` if no method applies.

        When this peer runs behind circuit breakers and every attempted
        method failed for *availability* reasons (a tripped breaker, an
        offline destination, exhausted retries) rather than wallet-state
        reasons, the payment is queued instead of failing the user and
        ``"queued"`` is returned; :meth:`drain_payment_queue` replays it
        once the destination recovers.
        """
        degraded = False
        for method in preferences:
            try:
                if method == "transfer":
                    self.transfer(payee)
                elif method == "downtime_transfer":
                    self.transfer_via_broker(payee)
                elif method == "issue":
                    self.issue(payee)
                elif method == "purchase_issue":
                    state = self.purchase()
                    self.issue(payee, state.coin_y)
                elif method == "deposit_purchase_issue":
                    held = self._pick_held(None, owner_online=False)
                    self.deposit(held.coin_y)
                    state = self.purchase()
                    self.issue(payee, state.coin_y)
                else:
                    raise ValueError(f"unknown payment method {method!r}")
                return method
            except (NodeOffline, ServiceUnavailable, CircuitOpen):
                # Availability failures: the method was applicable but the
                # destination is (for now) unreachable — a tripped breaker
                # short-circuits here without consuming any retry budget.
                degraded = True
                continue
            except (UnknownCoin, NotHolder, CoinExpired):
                # Wallet-state failures: this method simply does not apply;
                # degrade gracefully to the next preference.
                continue
        if degraded and self.breakers is not None:
            self.payment_queue.append((payee, preferences))
            return "queued"
        raise ProtocolError(f"no payment method in {preferences} was applicable")

    def drain_payment_queue(self) -> int:
        """Replay queued payments now that (some) destinations recovered.

        The queue is swapped out before replay, so each deferred payment is
        re-attempted exactly once per drain: an entry that succeeds leaves
        the queue for good; one whose destination is still degraded re-queues
        itself via :meth:`pay` and waits for the next drain.  Returns the
        number of payments that actually completed.
        """
        pending, self.payment_queue = self.payment_queue, []
        drained = 0
        for payee, preferences in pending:
            if self.pay(payee, preferences) != "queued":
                drained += 1
        return drained

    def pay_amount(
        self,
        payee: str,
        amount: int,
        preferences: tuple[str, ...] = ("transfer", "downtime_transfer", "issue", "purchase_issue"),
    ) -> list[tuple[str, int]]:
        """Pay an arbitrary ``amount`` using (possibly) multiple coins.

        Coin selection is greedy largest-first over the wallet (held coins
        of any denomination), topping up the remainder with the preference
        policy's fallback methods one unit-coin at a time.  Returns the list
        of ``(method, value)`` legs executed.  If a leg fails midway, the
        already-paid legs stand — coins are bearer value; partial payment is
        a business-level matter, exactly like cash.
        """
        if amount <= 0:
            raise ValueError("amount must be positive")
        legs: list[tuple[str, int]] = []
        remaining = amount
        unusable: set[int] = set()
        # Spend existing holdings largest-first without overshooting.
        while remaining > 0:
            now = self.clock.now()
            candidates = sorted(
                (
                    held
                    for held in self.wallet.values()
                    if not held.is_expired(now)
                    and held.value <= remaining
                    and held.coin_y not in unusable
                ),
                key=lambda held: held.value,
                reverse=True,
            )
            if not candidates:
                break
            held = candidates[0]
            owner = held.coin.owner_address
            try:
                if owner is not None and self.transport.is_online(owner):
                    self.transfer(payee, held.coin_y)
                    legs.append(("transfer", held.value))
                else:
                    self.transfer_via_broker(payee, held.coin_y)
                    legs.append(("downtime_transfer", held.value))
                remaining -= held.value
            except (NodeOffline, NetworkError, ProtocolError):
                # This coin is unusable right now; exclude it and move on.
                unusable.add(held.coin_y)
        # Cover the remainder with the policy's non-transfer methods.
        fallback = tuple(m for m in preferences if m not in ("transfer", "downtime_transfer"))
        while remaining > 0:
            method = self.pay(payee, fallback)
            legs.append((method, 1))
            remaining -= 1
        return legs

    # ------------------------------------------------------------------
    # payee handlers
    # ------------------------------------------------------------------

    def _handle_payment_offer(self, src: str, coin_bytes: bytes) -> dict[str, Any]:
        """Offer step of issue/transfer: mint a holder key, hand out a nonce."""
        coin = Coin(cert=protocol.decode_signed(coin_bytes, self.params))
        if not coin.verify(self.broker_key):
            raise VerificationFailed("offered coin certificate is invalid")
        holder_keypair = KeyPair.generate(self.params)
        nonce = secrets.token_bytes(16)
        self._pending[nonce] = _PendingOffer(
            coin=coin, coin_bytes=coin_bytes, holder_keypair=holder_keypair, payer=src
        )
        if len(self._pending) > MAX_PENDING_OFFERS:
            del self._pending[next(iter(self._pending))]
        return {"holder_y": holder_keypair.public.y, "nonce": nonce}

    def _handle_payment_complete(self, src: str, payload: dict[str, Any]) -> dict[str, Any]:
        """Completion step: verify coin, binding, and ownership proof; accept."""
        nonce = payload["nonce"]
        pending = self._pending.get(nonce)
        if pending is None:
            return {"ok": False, "reason": "no pending offer for this nonce"}
        if payload["coin"] == pending.coin_bytes:
            coin = pending.coin
        else:
            coin = Coin(cert=protocol.decode_signed(payload["coin"], self.params))
            if not coin.verify(self.broker_key) or coin.coin_y != pending.coin.coin_y:
                return {"ok": False, "reason": "coin does not match the offer"}
        if payload.get("binding_dual") is not None:
            # Ownerless coin: the binding travels group-countersigned.
            dual = protocol.decode_dual(payload["binding_dual"], self.params)
            if not self._verify_dual(dual):
                return {"ok": False, "reason": "issuer group signature invalid"}
            binding = CoinBinding(signed=dual.inner, via_broker=False)
        else:
            binding = CoinBinding(
                signed=protocol.decode_signed(payload["binding"], self.params),
                via_broker=bool(payload["via_broker"]),
            )
        if not binding.verify(coin.coin_public_key(self.params), self.broker_key):
            return {"ok": False, "reason": "binding signature invalid"}
        if binding.holder_y != pending.holder_keypair.public.y:
            return {"ok": False, "reason": "binding names a different holder key"}
        if self.clock.now() > binding.exp_date:
            return {"ok": False, "reason": "binding already expired"}
        if not binding.via_broker:
            # Ownership challenge, bound to our nonce and this exact binding.
            # Basic coins: the owner proves knowledge of the identity key the
            # coin names.  Ownerless coins: knowledge of the coin key itself.
            proof = SchnorrProof(commitment=payload["proof_t"], response=payload["proof_z"])
            if coin.is_ownerless:
                prover_key = coin.coin_public_key(self.params)
            else:
                prover_key = PublicKey(params=self.params, y=coin.owner_y)
            if not schnorr_verify(prover_key, proof, self._owner_proof_context(nonce, binding)):
                return {"ok": False, "reason": "ownership proof failed"}
        if self.detection is not None:
            # Section 5.1: "a peer does not accept payment until verifying
            # that the relevant public binding has been properly updated."
            published = self.detection.fetch_binding(self.address, coin.coin_y)
            if published is None or published.encode() != binding.encode():
                return {"ok": False, "reason": "public binding not updated"}
        del self._pending[nonce]
        held = HeldCoin(coin=coin, holder_keypair=pending.holder_keypair, binding=binding)
        self.wallet[coin.coin_y] = held
        self._wal_held(held)
        if self.detection is not None:
            self.detection.subscribe(self, coin.coin_y)
        self.counts.payments_received += 1
        return {"ok": True, "reason": None}

    # ------------------------------------------------------------------
    # owner handlers
    # ------------------------------------------------------------------

    def _serve_holder_request(self, data: Any, kind: str) -> tuple[protocol.HolderOperation, OwnedCoinState]:
        request = protocol.open_holder_request(data, self.params, kind)
        if not self._verify_dual(request.envelope):
            raise VerificationFailed("holder envelope signatures invalid")
        state = self.owned.get(request.coin.coin_y)
        if state is None:
            raise NotOwner(f"I do not own coin {request.coin.coin_y:#x}")
        if state.dirty:
            self._check_coin_state(state)
        if state.binding is None:
            raise ProtocolError("coin was never issued")
        # Bit-for-bit against my own binding: that equality stands in for
        # the proof's signature (I signed it, or adopted it verified).
        if request.proof.encode() != state.binding.encode():
            raise NotHolder("proof binding does not match the owner's state")
        if request.envelope.coin_signer.y != request.proof.holder_y:
            raise NotHolder("request not signed with the bound holder key")
        if self.clock.now() > request.proof.exp_date:
            raise CoinExpired("held binding has expired")
        return request.operation, state

    def _next_binding(self, state: OwnedCoinState, holder_y: int) -> CoinBinding:
        assert state.binding is not None
        seq = max(state.binding.seq, state.seq_floor) + 1
        state.seq_floor = seq
        return CoinBinding.build(
            state.coin_keypair,
            coin_y=state.coin_y,
            holder_y=holder_y,
            seq=seq,
            exp_date=self.clock.now() + self.renewal_period,
        )

    def _rebind(self, state: OwnedCoinState, binding: CoinBinding, request: bytes) -> None:
        """The served request took effect: only now does it join the audit
        trail, as the proof that the previous binding was relinquished — an
        entry for a request that failed would accuse its (still live) holder."""
        state.relinquishments.append(request)
        state.binding = binding
        self._wal_owned(state)

    def _handle_transfer_request(self, src: str, payload: dict[str, Any]) -> dict[str, Any]:
        """Owner side of Transfer: re-bind the coin and notify the payee."""
        if not isinstance(payload, dict) or not isinstance(payload.get("payee"), str):
            raise ProtocolError("malformed transfer request")
        operation, state = self._serve_holder_request(
            payload.get("envelope"), protocol.TRANSFER_REQUEST
        )
        binding = self._next_binding(state, operation.new_holder_y)
        if self.detection is not None:
            self.detection.publish_owner(self, state, binding)
        result = self.peer_client.transfer_complete(
            payload["payee"], self._completion_payload(state, binding, operation.nonce)
        )
        if not result.get("ok"):  # the payee refused: the old binding stands
            raise ProtocolError(f"payee rejected the transfer: {result.get('reason')}")
        self._rebind(state, binding, payload["envelope"])
        self.counts.transfers_handled += 1
        return {"binding": binding.encode()}

    def _handle_renew_request(self, src: str, data: bytes) -> bytes:
        """Owner side of Renewal: same holder, bumped seq and expiry."""
        _operation, state = self._serve_holder_request(data, protocol.RENEW_REQUEST)
        binding = self._next_binding(state, state.binding.holder_y)
        if self.detection is not None:
            self.detection.publish_owner(self, state, binding)
        self._rebind(state, binding, data)
        self.counts.renewals_handled += 1
        return binding.encode()

    # ------------------------------------------------------------------
    # real-time detection (holder-side monitoring)
    # ------------------------------------------------------------------

    def _handle_binding_update(self, src: str, record_bytes: bytes) -> None:
        """Push notification from the DHT: did someone move *my* coin?"""
        from repro.dht.binding_store import BindingRecord

        record = BindingRecord.from_encoded(record_bytes)
        info = record.binding()
        held = self.wallet.get(info["coin_y"])
        if held is None or info["coin_y"] in self._expected_rebinds:
            return None
        my_key = held.holder_keypair.public.y
        if info["holder_y"] != my_key and info["seq"] >= held.binding.seq:
            self.alarms.append(
                Alarm(
                    coin_y=info["coin_y"],
                    expected_holder_y=my_key,
                    observed_holder_y=info["holder_y"],
                    observed_seq=info["seq"],
                    at=self.clock.now(),
                )
            )
        return None
