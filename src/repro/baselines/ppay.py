"""PPay (paper Section 3.1) — the scalability baseline.

A faithful implementation of the PPay coin lifecycle:

* coins carry a **serial number** and the **owner's identity**:
  ``C = {U, sn}_skU`` signed by the broker;
* assignments name the holder in the clear: ``C_V = {C, V, seq}_skU``;
* transfers route through the owner: ``V → U: {W, C_V}_skV``, then
  ``U → W: C_W = {C, W, seq'}_skU``;
* the downtime protocol lets the broker reassign coins of offline owners and
  owners synchronize on rejoin.

Everything is signed with *identity* keys — which is exactly why PPay has
"very weak, if any, anonymity": the payee knows the payer, the owner knows
both, and every audit trail names everyone.  The WhoPay comparison tests
make that information leak explicit.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field
from typing import Any

from repro.core.clock import DEFAULT_RENEWAL_PERIOD, Clock
from repro.core.errors import (
    CoinExpired,
    DoubleSpendDetected,
    InsufficientFunds,
    NotHolder,
    NotOwner,
    ProtocolError,
    UnknownCoin,
    VerificationFailed,
)
from repro.crypto.keys import KeyPair, PublicKey
from repro.crypto.params import DlogParams
from repro.messages.envelope import SignedMessage, seal
from repro.core.clients import EndpointClient
from repro.net.node import Node
from repro.net.rpc import RetryPolicy
from repro.net.transport import Transport

# message kinds
PURCHASE = "ppay.purchase"
ASSIGN = "ppay.assign"  # issue and transfer-complete share the assignment shape
TRANSFER_REQUEST = "ppay.transfer_request"
RENEW_REQUEST = "ppay.renew_request"
DEPOSIT = "ppay.deposit"
DOWNTIME_TRANSFER = "ppay.downtime_transfer"
DOWNTIME_RENEWAL = "ppay.downtime_renewal"
SYNC = "ppay.sync"


class PPayBrokerClient(EndpointClient):
    """Typed facade over the PPay broker operations."""

    def __init__(self, node: Node, broker_address: str, policy: RetryPolicy | None = None) -> None:
        super().__init__(node, policy=policy)
        self.broker_address = broker_address

    def purchase(self, signed_request: bytes) -> bytes:
        """Mint a coin; returns the encoded coin certificate."""
        return self._call(self.broker_address, PURCHASE, signed_request, mutating=True)

    def deposit(self, body: dict[str, Any]) -> dict[str, Any]:
        """Redeem a held coin for account credit."""
        return self._call(self.broker_address, DEPOSIT, body, mutating=True)

    def downtime_transfer(self, body: dict[str, Any]) -> bytes:
        """Broker-served transfer; returns the new encoded assignment."""
        return self._call(self.broker_address, DOWNTIME_TRANSFER, body, mutating=True)

    def downtime_renewal(self, body: dict[str, Any]) -> bytes:
        """Broker-served renewal; returns the new encoded assignment."""
        return self._call(self.broker_address, DOWNTIME_RENEWAL, body, mutating=True)

    def sync(self, signed_request: bytes) -> Any:
        """Owner resynchronization; returns the missed-assignment list."""
        return self._call(self.broker_address, SYNC, signed_request, mutating=True)


class PPayPeerClient(EndpointClient):
    """Typed facade over the PPay peer-to-peer exchanges."""

    def assign(self, payee: str, payload: dict[str, Any]) -> dict[str, Any]:
        """Deliver an assignment to its new holder."""
        return self._call(payee, ASSIGN, payload, mutating=True)

    def transfer_request(self, owner: str, payload: dict[str, Any]) -> dict[str, Any]:
        """Ask the owner to reassign a held coin."""
        return self._call(owner, TRANSFER_REQUEST, payload, mutating=True)

    def renew_request(self, owner: str, payload: dict[str, Any]) -> bytes:
        """Ask the owner to renew a held coin's assignment."""
        return self._call(owner, RENEW_REQUEST, payload, mutating=True)


def _decode_signed(data: bytes, params: DlogParams) -> SignedMessage:
    from repro.core.protocol import decode_signed

    return decode_signed(data, params)


@dataclass
class PPayHolding:
    """Holder-side state: the coin cert and my current assignment."""

    coin: SignedMessage  # {owner, sn}_skB
    assignment: SignedMessage  # {C, holder, seq, exp}_skU or _skB
    via_broker: bool

    @property
    def sn(self) -> int:
        """Coin serial number."""
        return self.coin.payload["sn"]

    @property
    def owner(self) -> str:
        """Owner identity (in the clear — PPay's anonymity gap)."""
        return self.coin.payload["owner"]

    @property
    def seq(self) -> int:
        """Assignment sequence number."""
        return self.assignment.payload["seq"]

    @property
    def exp_date(self) -> float:
        """Assignment expiry."""
        return float(self.assignment.payload["exp_date"])


@dataclass
class PPayOwned:
    """Owner-side state for a purchased coin."""

    coin: SignedMessage
    assignment: SignedMessage | None = None
    relinquishments: list[bytes] = field(default_factory=list)


class PPayBroker(Node):
    """The PPay broker."""

    def __init__(
        self,
        transport: Transport,
        params: DlogParams,
        clock: Clock,
        address: str = "ppay-broker",
        renewal_period: float = DEFAULT_RENEWAL_PERIOD,
    ) -> None:
        super().__init__(transport, address)
        self.params = params
        self.clock = clock
        self.renewal_period = renewal_period
        self.keypair = KeyPair.generate(params)
        self.accounts: dict[str, tuple[PublicKey, int]] = {}
        self.coins: dict[int, SignedMessage] = {}  # sn -> cert
        self.identities: dict[str, PublicKey] = {}
        self.deposited: dict[int, bytes] = {}
        self.downtime_assignments: dict[int, SignedMessage] = {}
        self.pending_sync: dict[str, set[int]] = {}
        self.fraud_events: list[DoubleSpendDetected] = []
        self.counts: dict[str, int] = {
            "purchases": 0,
            "deposits": 0,
            "downtime_transfers": 0,
            "downtime_renewals": 0,
            "syncs": 0,
        }
        self.on(PURCHASE, self._handle_purchase)
        self.on(DEPOSIT, self._handle_deposit)
        self.on(DOWNTIME_TRANSFER, self._handle_downtime_transfer)
        self.on(DOWNTIME_RENEWAL, self._handle_downtime_renewal)
        self.on(SYNC, self._handle_sync)

    @property
    def public_key(self) -> PublicKey:
        """The broker's verification key."""
        return self.keypair.public

    def open_account(self, name: str, identity: PublicKey, balance: int) -> None:
        """Register a user and fund its account."""
        self.accounts[name] = (identity, balance)
        self.identities[name] = identity

    def balance(self, name: str) -> int:
        """Account balance."""
        return self.accounts[name][1]

    # -- verification -------------------------------------------------------

    def _verify_holding(self, holding_bytes: dict[str, Any], claimed_holder: str) -> PPayHolding:
        coin = _decode_signed(holding_bytes["coin"], self.params)
        assignment = _decode_signed(holding_bytes["assignment"], self.params)
        via_broker = bool(holding_bytes["via_broker"])
        if coin.signer.y != self.public_key.y or not coin.verify():
            raise VerificationFailed("coin certificate invalid")
        sn = coin.payload["sn"]
        if sn not in self.coins:
            raise UnknownCoin(f"unknown serial {sn}")
        if sn in self.deposited:
            event = DoubleSpendDetected(
                "coin already deposited",
                evidence={"sn": sn, "first": self.deposited[sn]},
            )
            self.fraud_events.append(event)
            raise event
        owner = coin.payload["owner"]
        expected_signer = self.public_key if via_broker else self.identities[owner]
        if assignment.signer.y != expected_signer.y or not assignment.verify():
            raise VerificationFailed("assignment signature invalid")
        if assignment.payload["sn"] != sn:
            raise VerificationFailed("assignment is for a different coin")
        if assignment.payload["holder"] != claimed_holder:
            raise NotHolder("assignment names a different holder")
        stored = self.downtime_assignments.get(sn)
        if stored is not None and assignment.payload["seq"] < stored.payload["seq"]:
            raise NotHolder("assignment is stale")
        if self.clock.now() > float(assignment.payload["exp_date"]):
            raise CoinExpired("assignment expired")
        return PPayHolding(coin=coin, assignment=assignment, via_broker=via_broker)

    def _require_identity_signature(self, src: str, signed: SignedMessage) -> None:
        identity = self.identities.get(src)
        if identity is None or signed.signer.y != identity.y or not signed.verify():
            raise VerificationFailed("request not signed by the registered identity")

    # -- handlers ---------------------------------------------------------------

    def _handle_purchase(self, src: str, data: bytes) -> bytes:
        self.counts["purchases"] += 1
        signed = _decode_signed(data, self.params)
        self._require_identity_signature(src, signed)
        value = signed.payload["value"]
        identity, balance = self.accounts[src]
        if balance < value:
            raise InsufficientFunds(src)
        self.accounts[src] = (identity, balance - value)
        sn = secrets.randbits(62)
        coin = seal(self.keypair, {"kind": "ppay.coin", "owner": src, "sn": sn, "value": value})
        self.coins[sn] = coin
        return coin.encode()

    def _handle_deposit(self, src: str, payload: dict[str, Any]) -> dict[str, Any]:
        self.counts["deposits"] += 1
        request = _decode_signed(payload["request"], self.params)
        self._require_identity_signature(src, request)
        holding = self._verify_holding(payload, claimed_holder=src)
        sn = holding.sn
        self.deposited[sn] = payload["request"]
        value = holding.coin.payload["value"]
        identity, balance = self.accounts[src]
        self.accounts[src] = (identity, balance + value)
        self.downtime_assignments.pop(sn, None)
        return {"ok": True, "credited": value}

    def _reassign(self, holding: PPayHolding, new_holder: str) -> SignedMessage:
        assignment = seal(
            self.keypair,
            {
                "kind": "ppay.assignment",
                "sn": holding.sn,
                "holder": new_holder,
                "seq": holding.seq + 1,
                "exp_date": int(self.clock.now() + self.renewal_period),
            },
        )
        self.downtime_assignments[holding.sn] = assignment
        self.pending_sync.setdefault(holding.owner, set()).add(holding.sn)
        return assignment

    def _handle_downtime_transfer(self, src: str, payload: dict[str, Any]) -> bytes:
        self.counts["downtime_transfers"] += 1
        request = _decode_signed(payload["request"], self.params)
        self._require_identity_signature(src, request)
        holding = self._verify_holding(payload, claimed_holder=src)
        return self._reassign(holding, request.payload["new_holder"]).encode()

    def _handle_downtime_renewal(self, src: str, payload: dict[str, Any]) -> bytes:
        self.counts["downtime_renewals"] += 1
        request = _decode_signed(payload["request"], self.params)
        self._require_identity_signature(src, request)
        holding = self._verify_holding(payload, claimed_holder=src)
        return self._reassign(holding, src).encode()

    def _handle_sync(self, src: str, data: bytes) -> list[tuple[int, bytes]]:
        self.counts["syncs"] += 1
        signed = _decode_signed(data, self.params)
        self._require_identity_signature(src, signed)
        changed = self.pending_sync.pop(src, set())
        return [
            (sn, self.downtime_assignments[sn].encode())
            for sn in sorted(changed)
            if sn in self.downtime_assignments
        ]


class PPayPeer(Node):
    """A PPay user agent."""

    def __init__(
        self,
        transport: Transport,
        address: str,
        params: DlogParams,
        clock: Clock,
        broker_address: str,
        broker_key: PublicKey,
        renewal_period: float = DEFAULT_RENEWAL_PERIOD,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        super().__init__(transport, address)
        self.params = params
        self.clock = clock
        self.broker_address = broker_address
        self.broker_key = broker_key
        self.renewal_period = renewal_period
        self.broker_client = PPayBrokerClient(self, broker_address, policy=retry_policy)
        self.peer_client = PPayPeerClient(self, policy=retry_policy)
        self.identity = KeyPair.generate(params)
        self.wallet: dict[int, PPayHolding] = {}
        self.owned: dict[int, PPayOwned] = {}
        self.identities: dict[str, PublicKey] = {}  # peer directory (PKI)
        self.transaction_log: list[dict[str, Any]] = []  # what this peer learns
        self.on(ASSIGN, self._handle_assign)
        self.on(TRANSFER_REQUEST, self._handle_transfer_request)
        self.on(RENEW_REQUEST, self._handle_renew_request)

    # -- directory -----------------------------------------------------------

    def _identity_of(self, address: str) -> PublicKey:
        try:
            return self.identities[address]
        except KeyError:
            raise VerificationFailed(f"unknown identity {address!r}") from None

    # -- client operations ----------------------------------------------------

    def purchase(self, value: int = 1) -> int:
        """Buy a coin; returns its serial number."""
        signed = seal(self.identity, {"kind": "ppay.purchase", "value": value})
        coin_bytes = self.broker_client.purchase(signed.encode())
        coin = _decode_signed(coin_bytes, self.params)
        if coin.signer.y != self.broker_key.y or not coin.verify():
            raise VerificationFailed("broker returned an invalid coin")
        sn = coin.payload["sn"]
        self.owned[sn] = PPayOwned(coin=coin)
        return sn

    def _assignment(self, owned: PPayOwned, holder: str, seq: int) -> SignedMessage:
        return seal(
            self.identity,
            {
                "kind": "ppay.assignment",
                "sn": owned.coin.payload["sn"],
                "holder": holder,
                "seq": seq,
                "exp_date": int(self.clock.now() + self.renewal_period),
            },
        )

    def issue(self, payee: str, sn: int | None = None) -> int:
        """Issue an owned coin to ``payee``; returns the serial number."""
        if sn is None:
            unissued = [s for s, o in self.owned.items() if o.assignment is None]
            if not unissued:
                raise UnknownCoin("no unissued PPay coin")
            sn = unissued[0]
        owned = self.owned.get(sn)
        if owned is None:
            raise NotOwner(f"do not own serial {sn}")
        if owned.assignment is not None:
            raise ProtocolError("coin already issued")
        assignment = self._assignment(owned, payee, seq=secrets.randbelow(1 << 30))
        result = self.peer_client.assign(
            payee,
            {"coin": owned.coin.encode(), "assignment": assignment.encode(), "via_broker": False},
        )
        if not result.get("ok"):
            raise ProtocolError(f"payee rejected the issue: {result.get('reason')}")
        owned.assignment = assignment
        return sn

    def transfer(self, payee: str, sn: int | None = None) -> int:
        """Transfer a held coin via its owner (identity-signed, no anonymity)."""
        holding = self._pick(sn, owner_online=True)
        request = seal(
            self.identity,
            {
                "kind": "ppay.transfer_request",
                "sn": holding.sn,
                "new_holder": payee,
                "prev_assignment": holding.assignment.encode(),
            },
        )
        result = self.peer_client.transfer_request(
            holding.owner,
            {
                "request": request.encode(),
                "coin": holding.coin.encode(),
                "assignment": holding.assignment.encode(),
                "via_broker": holding.via_broker,
            },
        )
        if not result.get("ok"):
            raise ProtocolError("owner refused the transfer")
        del self.wallet[holding.sn]
        return holding.sn

    def transfer_via_broker(self, payee: str, sn: int | None = None) -> int:
        """Downtime transfer via the broker."""
        holding = self._pick(sn, owner_online=False)
        request = seal(
            self.identity,
            {"kind": "ppay.downtime_transfer", "sn": holding.sn, "new_holder": payee},
        )
        assignment_bytes = self.broker_client.downtime_transfer(
            {
                "request": request.encode(),
                "coin": holding.coin.encode(),
                "assignment": holding.assignment.encode(),
                "via_broker": holding.via_broker,
            }
        )
        result = self.peer_client.assign(
            payee,
            {"coin": holding.coin.encode(), "assignment": assignment_bytes, "via_broker": True},
        )
        if not result.get("ok"):
            raise ProtocolError("payee rejected the downtime transfer")
        del self.wallet[holding.sn]
        return holding.sn

    def renew(self, sn: int) -> None:
        """Renew a held coin via the owner, or the broker when offline."""
        holding = self.wallet.get(sn)
        if holding is None:
            raise NotHolder(f"not holding serial {sn}")
        body = {
            "coin": holding.coin.encode(),
            "assignment": holding.assignment.encode(),
            "via_broker": holding.via_broker,
        }
        if self.transport.is_online(holding.owner):
            request = seal(self.identity, {"kind": "ppay.renew_request", "sn": sn})
            body["request"] = request.encode()
            assignment_bytes = self.peer_client.renew_request(holding.owner, body)
            via_broker = False
        else:
            request = seal(self.identity, {"kind": "ppay.downtime_renewal", "sn": sn})
            body["request"] = request.encode()
            assignment_bytes = self.broker_client.downtime_renewal(body)
            via_broker = True
        assignment = _decode_signed(assignment_bytes, self.params)
        holding.assignment = assignment
        holding.via_broker = via_broker

    def deposit(self, sn: int) -> int:
        """Deposit a held coin; credit goes to this peer's named account."""
        holding = self.wallet.get(sn)
        if holding is None:
            raise NotHolder(f"not holding serial {sn}")
        request = seal(self.identity, {"kind": "ppay.deposit", "sn": sn})
        result = self.broker_client.deposit(
            {
                "request": request.encode(),
                "coin": holding.coin.encode(),
                "assignment": holding.assignment.encode(),
                "via_broker": holding.via_broker,
            }
        )
        del self.wallet[sn]
        return result["credited"]

    def sync_with_broker(self) -> int:
        """Owner synchronization after rejoining."""
        signed = seal(self.identity, {"kind": "ppay.sync"})
        updates = self.broker_client.sync(signed.encode())
        for sn, assignment_bytes in updates:
            owned = self.owned.get(sn)
            if owned is not None:
                owned.assignment = _decode_signed(assignment_bytes, self.params)
        return len(updates)

    def _pick(self, sn: int | None, owner_online: bool) -> PPayHolding:
        if sn is not None:
            holding = self.wallet.get(sn)
            if holding is None:
                raise NotHolder(f"not holding serial {sn}")
            return holding
        for holding in self.wallet.values():
            if self.transport.is_online(holding.owner) == owner_online:
                return holding
        raise UnknownCoin("no suitable PPay coin in the wallet")

    # -- handlers --------------------------------------------------------------

    def _handle_assign(self, src: str, payload: dict[str, Any]) -> dict[str, Any]:
        coin = _decode_signed(payload["coin"], self.params)
        assignment = _decode_signed(payload["assignment"], self.params)
        via_broker = bool(payload["via_broker"])
        if coin.signer.y != self.broker_key.y or not coin.verify():
            return {"ok": False, "reason": "bad coin certificate"}
        owner = coin.payload["owner"]
        expected = self.broker_key if via_broker else self._identity_of(owner)
        if assignment.signer.y != expected.y or not assignment.verify():
            return {"ok": False, "reason": "bad assignment signature"}
        if assignment.payload["holder"] != self.address:
            return {"ok": False, "reason": "assignment names someone else"}
        if assignment.payload["sn"] != coin.payload["sn"]:
            return {"ok": False, "reason": "assignment/coin mismatch"}
        holding = PPayHolding(coin=coin, assignment=assignment, via_broker=via_broker)
        self.wallet[holding.sn] = holding
        # PPay's information leak, recorded explicitly: the payee learns the
        # payer (message source) and the coin owner, in the clear.
        self.transaction_log.append(
            {"event": "received", "sn": holding.sn, "payer": src, "owner": owner}
        )
        return {"ok": True, "reason": None}

    def _handle_transfer_request(self, src: str, payload: dict[str, Any]) -> dict[str, Any]:
        request = _decode_signed(payload["request"], self.params)
        if request.signer.y != self._identity_of(src).y or not request.verify():
            raise VerificationFailed("transfer request not signed by the payer")
        sn = request.payload["sn"]
        owned = self.owned.get(sn)
        if owned is None:
            raise NotOwner(f"do not own serial {sn}")
        if owned.assignment is None:
            raise ProtocolError("coin was never issued")
        if owned.assignment.payload["holder"] != src:
            raise NotHolder("payer is not the current holder")
        owned.relinquishments.append(payload["request"])
        new_holder = request.payload["new_holder"]
        assignment = self._assignment(owned, new_holder, owned.assignment.payload["seq"] + 1)
        # The owner learns payer AND payee — PPay's anonymity gap, logged.
        self.transaction_log.append(
            {"event": "handled_transfer", "sn": sn, "payer": src, "payee": new_holder}
        )
        result = self.peer_client.assign(
            new_holder,
            {"coin": owned.coin.encode(), "assignment": assignment.encode(), "via_broker": False},
        )
        if not result.get("ok"):
            owned.relinquishments.pop()
            return {"ok": False, "reason": result.get("reason")}
        owned.assignment = assignment
        return {"ok": True, "reason": None}

    def _handle_renew_request(self, src: str, payload: dict[str, Any]) -> bytes:
        request = _decode_signed(payload["request"], self.params)
        if request.signer.y != self._identity_of(src).y or not request.verify():
            raise VerificationFailed("renew request not signed by the holder")
        sn = request.payload["sn"]
        owned = self.owned.get(sn)
        if owned is None:
            raise NotOwner(f"do not own serial {sn}")
        if owned.assignment is None or owned.assignment.payload["holder"] != src:
            raise NotHolder("requester is not the current holder")
        assignment = self._assignment(owned, src, owned.assignment.payload["seq"] + 1)
        owned.assignment = assignment
        return assignment.encode()
