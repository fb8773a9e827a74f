"""A centralized anonymous transfer system (paper Sections 1, 7).

Models the Burk–Pfitzmann / Vo–Hohenberger lineage WhoPay descends from:
coins are public keys (anonymity), holders sign with coin keys plus group
keys (fairness), **but every transfer goes through the broker** — there are
no peer-served transfers at all.  That central mediation is the scalability
bottleneck WhoPay removes, and the ablation benchmark
(``benchmarks/bench_ablation_baselines.py``) measures it directly: the
broker here handles 100% of transfer load, versus ~5% for WhoPay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.clients import EndpointClient
from repro.core.clock import Clock
from repro.core.errors import (
    DoubleSpendDetected,
    InsufficientFunds,
    NotHolder,
    ProtocolError,
    UnknownCoin,
    VerificationFailed,
)
from repro.core.judge import Judge
from repro.crypto.group_signature import GroupMemberKey
from repro.crypto.keys import KeyPair, PublicKey
from repro.crypto.params import DlogParams
from repro.messages.envelope import DualSignedMessage, group_seal, seal
from repro.net.node import Node
from repro.net.rpc import RetryPolicy
from repro.net.transport import Transport

PURCHASE = "central.purchase"
TRANSFER = "central.transfer"
DEPOSIT = "central.deposit"
RECEIVE = "central.receive"


class CentralBrokerClient(EndpointClient):
    """Typed facade over the centralized broker's three operations."""

    def __init__(self, node: Node, broker_address: str, policy: RetryPolicy | None = None) -> None:
        super().__init__(node, policy=policy)
        self.broker_address = broker_address

    def purchase(self, signed_request: bytes) -> dict[str, Any]:
        """Mint a coin against the buyer's account."""
        return self._call(self.broker_address, PURCHASE, signed_request, mutating=True)

    def transfer(self, dual_envelope: bytes) -> dict[str, Any]:
        """Re-bind a coin to a new holder key (broker-mediated)."""
        return self._call(self.broker_address, TRANSFER, dual_envelope, mutating=True)

    def deposit(self, dual_envelope: bytes) -> dict[str, Any]:
        """Redeem a coin for account credit."""
        return self._call(self.broker_address, DEPOSIT, dual_envelope, mutating=True)


class CentralPeerClient(EndpointClient):
    """Typed facade over the payee-side receive exchange."""

    def receive(self, payee: str, payload: dict[str, Any]) -> dict[str, Any]:
        """Offer/complete leg of handing a coin to the payee."""
        return self._call(payee, RECEIVE, payload, mutating=True)


@dataclass
class CentralHolding:
    """Holder-side state: coin id, my coin-local keypair, and value."""

    coin_y: int
    holder_keypair: KeyPair
    value: int


class CentralizedBroker(Node):
    """The broker that mediates *every* operation."""

    def __init__(
        self,
        transport: Transport,
        judge: Judge,
        params: DlogParams,
        clock: Clock,
        address: str = "central-broker",
    ) -> None:
        super().__init__(transport, address)
        self.params = params
        self.judge = judge
        self.clock = clock
        self.keypair = KeyPair.generate(params)
        self.accounts: dict[str, tuple[PublicKey, int]] = {}
        # The broker's ledger IS the system state: coin -> current holder key.
        self.bindings: dict[int, int] = {}
        self.values: dict[int, int] = {}
        self.deposited: set[int] = set()
        self.fraud_events: list[DoubleSpendDetected] = []
        self.counts = {"purchases": 0, "transfers": 0, "deposits": 0}
        self.on(PURCHASE, self._handle_purchase)
        self.on(TRANSFER, self._handle_transfer)
        self.on(DEPOSIT, self._handle_deposit)

    @property
    def public_key(self) -> PublicKey:
        """The broker's verification key."""
        return self.keypair.public

    def open_account(self, name: str, identity: PublicKey, balance: int) -> None:
        """Register a user account."""
        self.accounts[name] = (identity, balance)

    def balance(self, name: str) -> int:
        """Account balance."""
        return self.accounts[name][1]

    def _verify_holder(self, envelope: DualSignedMessage, coin_y: int) -> None:
        if not envelope.verify(self.judge.verification_key(envelope.roster_version)):
            raise VerificationFailed("holder envelope invalid")
        if coin_y not in self.bindings:
            raise UnknownCoin(f"coin {coin_y:#x} not in circulation")
        if coin_y in self.deposited:
            event = DoubleSpendDetected("coin already deposited", evidence={"coin_y": coin_y})
            self.fraud_events.append(event)
            raise event
        if envelope.coin_signer.y != self.bindings[coin_y]:
            raise NotHolder("not signed by the currently bound holder key")

    # -- handlers -----------------------------------------------------------

    def _handle_purchase(self, src: str, data: bytes) -> dict[str, Any]:
        self.counts["purchases"] += 1
        from repro.core.protocol import decode_signed

        signed = decode_signed(data, self.params)
        identity, balance = self.accounts.get(src, (None, 0))
        if identity is None or signed.signer.y != identity.y or not signed.verify():
            raise VerificationFailed("purchase not signed by the account identity")
        coin_y = signed.payload["coin_y"]
        value = signed.payload["value"]
        if balance < value:
            raise InsufficientFunds(src)
        if coin_y in self.bindings:
            raise ProtocolError("coin key collision")
        self.accounts[src] = (identity, balance - value)
        self.bindings[coin_y] = coin_y  # initially bound to itself (the buyer)
        self.values[coin_y] = value
        return {"ok": True}

    def _handle_transfer(self, src: str, data: bytes) -> dict[str, Any]:
        self.counts["transfers"] += 1
        from repro.core.protocol import decode_dual

        envelope = decode_dual(data, self.params)
        payload = envelope.payload
        coin_y = payload["coin_y"]
        new_holder_y = payload["new_holder_y"]
        self._verify_holder(envelope, coin_y)
        if not self.params.is_element(new_holder_y):
            raise ProtocolError("new holder key invalid")
        self.bindings[coin_y] = new_holder_y
        return {"ok": True, "value": self.values[coin_y]}

    def _handle_deposit(self, src: str, data: bytes) -> dict[str, Any]:
        self.counts["deposits"] += 1
        from repro.core.protocol import decode_dual

        envelope = decode_dual(data, self.params)
        payload = envelope.payload
        coin_y = payload["coin_y"]
        self._verify_holder(envelope, coin_y)
        self.deposited.add(coin_y)
        value = self.values[coin_y]
        payout = payload["payout_to"]
        identity, balance = self.accounts.get(payout, (envelope.coin_signer, 0))
        self.accounts[payout] = (identity, balance + value)
        return {"ok": True, "credited": value}


class CentralizedPeer(Node):
    """A user of the centralized system."""

    def __init__(
        self,
        transport: Transport,
        address: str,
        params: DlogParams,
        judge: Judge,
        member_key: GroupMemberKey,
        broker_address: str,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        super().__init__(transport, address)
        self.params = params
        self.judge = judge
        self.member_key = member_key
        self.broker_address = broker_address
        self.identity = KeyPair.generate(params)
        self.wallet: dict[int, CentralHolding] = {}
        self.broker_client = CentralBrokerClient(self, broker_address, policy=retry_policy)
        self.peer_client = CentralPeerClient(self, policy=retry_policy)
        self.on(RECEIVE, self._handle_receive)

    def purchase(self, value: int = 1) -> int:
        """Buy a coin; the buyer is its first holder."""
        coin_keypair = KeyPair.generate(self.params)
        signed = seal(
            self.identity,
            {"kind": "central.purchase", "coin_y": coin_keypair.public.y, "value": value},
        )
        result = self.broker_client.purchase(signed.encode())
        if not result.get("ok"):
            raise ProtocolError("purchase failed")
        coin_y = coin_keypair.public.y
        self.wallet[coin_y] = CentralHolding(
            coin_y=coin_y, holder_keypair=coin_keypair, value=value
        )
        return coin_y

    def transfer(self, payee: str, coin_y: int | None = None) -> int:
        """Pay ``payee`` by re-binding a coin at the broker (anonymous both ways)."""
        if coin_y is None:
            if not self.wallet:
                raise UnknownCoin("wallet empty")
            coin_y = next(iter(self.wallet))
        holding = self.wallet.get(coin_y)
        if holding is None:
            raise NotHolder(f"not holding {coin_y:#x}")
        offer = self.peer_client.receive(payee, {"phase": "offer", "coin_y": coin_y})
        new_holder_y = offer["holder_y"]
        from repro.core.protocol import encode_dual

        envelope = group_seal(
            holding.holder_keypair,
            self.member_key,
            self.judge.group_public_key(),
            {"kind": "central.transfer", "coin_y": coin_y, "new_holder_y": new_holder_y},
        )
        result = self.broker_client.transfer(encode_dual(envelope))
        if not result.get("ok"):
            raise ProtocolError("broker refused the transfer")
        confirm = self.peer_client.receive(
            payee, {"phase": "complete", "coin_y": coin_y, "value": result["value"]}
        )
        if not confirm.get("ok"):
            raise ProtocolError("payee did not confirm")
        del self.wallet[coin_y]
        return coin_y

    def deposit(self, coin_y: int, payout_to: str | None = None) -> int:
        """Deposit a held coin (pseudonymous payout by default)."""
        import secrets as _secrets

        holding = self.wallet.get(coin_y)
        if holding is None:
            raise NotHolder(f"not holding {coin_y:#x}")
        from repro.core.protocol import encode_dual

        payout = payout_to if payout_to is not None else "bearer-" + _secrets.token_hex(8)
        envelope = group_seal(
            holding.holder_keypair,
            self.member_key,
            self.judge.group_public_key(),
            {"kind": "central.deposit", "coin_y": coin_y, "payout_to": payout},
        )
        result = self.broker_client.deposit(encode_dual(envelope))
        del self.wallet[coin_y]
        return result["credited"]

    # -- payee ------------------------------------------------------------------

    def _handle_receive(self, src: str, payload: dict[str, Any]) -> dict[str, Any]:
        if payload["phase"] == "offer":
            keypair = KeyPair.generate(self.params)
            self._pending = (payload["coin_y"], keypair)
            return {"holder_y": keypair.public.y}
        coin_y, keypair = getattr(self, "_pending", (None, None))
        if coin_y != payload["coin_y"] or keypair is None:
            return {"ok": False}
        # Verify against the broker ledger implicitly: the transfer only
        # succeeded if the broker re-bound the coin to our key, and only we
        # know its secret — the payee's acceptance is safe.
        self.wallet[coin_y] = CentralHolding(
            coin_y=coin_y, holder_keypair=keypair, value=payload["value"]
        )
        self._pending = (None, None)
        return {"ok": True}
