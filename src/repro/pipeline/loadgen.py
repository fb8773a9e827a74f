"""Workload generator: many peers, real envelopes, Zipf-skewed coins.

Drives the broker the way the paper's evaluation does — a population of
peers whose coins circulate by downtime transfer and renewal, salted with
fresh purchases — but through the *real* protocol stack: every request is
a fully signed wire envelope (dual-signed holder operations, identity-
signed purchases) built with the same encoders the peers use.

Request generation is round-based because transfers chain: re-binding a
coin in round ``k`` needs the broker-signed binding returned in round
``k-1``.  The driving loop alternates

    requests = gen.make_round(n)      # untimed: client-side signing
    records, stats = engine.run(requests)   # timed: the broker pipeline
    gen.absorb(records)               # untimed: apply returned bindings

so benchmarks time exactly the broker-side work.  Coin selection is
Zipf-skewed (rank ``r`` drawn with weight ``1/r**s``): a few hot coins
re-transfer every round — which exercises the broker's stored-state
comparison flavour — while the cold tail exercises the fresh-binding
signature path.  All randomness comes from one seeded ``random.Random``,
so a given seed replays the identical workload shape.

The generator plays every client role itself (it holds the coin, holder,
and identity keys), which is what lets it mint thousands of independent
holder envelopes without simulating peer-to-peer exchanges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core import PeerConfig, protocol
from repro.core.coin import Coin, CoinBinding
from repro.core.network import WhoPayNetwork
from repro.crypto.keys import KeyPair
from repro.crypto.params import DlogParams
from repro.messages.envelope import seal
from repro.pipeline.engine import ReplyRecord


@dataclass(frozen=True)
class WorkloadMix:
    """Relative operation frequencies (normalized before sampling)."""

    transfer: float = 0.6
    renewal: float = 0.25
    purchase: float = 0.15

    def weights(self) -> tuple[float, float, float]:
        total = self.transfer + self.renewal + self.purchase
        if total <= 0:
            raise ValueError("workload mix must have positive total weight")
        return (self.transfer / total, self.renewal / total, self.purchase / total)


@dataclass(frozen=True)
class Request:
    """One wire request: exactly what the engine feeds the broker."""

    kind: str
    src: str
    data: bytes
    idem: str


@dataclass
class _Held:
    """Generator-side view of one circulating coin."""

    coin: Coin
    binding: CoinBinding
    holder_keypair: KeyPair
    holder_address: str  # the peer that seals the next envelope (its member key signs)


class LoadGenerator:
    """Builds rounds of signed broker requests over a live WhoPay network."""

    def __init__(
        self,
        peers: int = 8,
        coins_per_peer: int = 3,
        value: int = 1,
        params: DlogParams | None = None,
        store_dir: str | Path | None = None,
        seed: int = 7,
        zipf_s: float = 1.1,
        mix: WorkloadMix | None = None,
        balance: int = 1_000_000,
    ) -> None:
        if peers < 1 or coins_per_peer < 1:
            raise ValueError("need at least one peer and one coin per peer")
        self.network = WhoPayNetwork(params=params, store_dir=store_dir)
        self.params = self.network.params
        self.broker = self.network.broker
        self.rng = random.Random(seed)
        self.zipf_s = zipf_s
        self.mix = (mix or WorkloadMix()).weights()
        self.value = value
        self._counter = 0
        self._pending: list[tuple[Any, ...]] = []
        #: coin_y in popularity order: index = Zipf rank (0 = hottest).
        self.coins: list[int] = []
        self.held: dict[int, _Held] = {}
        self._zipf_weights: list[float] = []
        self._peers = [
            self.network.add_peer(f"peer{index:03d}", PeerConfig(balance=balance))
            for index in range(peers)
        ]
        #: The roster snapshot every envelope is signed against (drivers hand
        #: it to the verification pool).
        self._gpk = self.network.judge.group_public_key()
        for peer in self._peers:
            for state in peer.purchase_batch(coins_per_peer, value=value):
                self._install_coin(state.coin, state.coin_keypair)

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------

    def _install_coin(self, coin: Coin, coin_keypair: KeyPair) -> None:
        """Put a fresh coin into circulation with an owner-signed binding.

        Mirrors the issue flow's outcome (a holder bound by the owner's
        coin-key signature, ``via_broker=False``) without the peer-to-peer
        exchange: the generator holds both sides' keys.
        """
        holder_keypair = KeyPair.generate(self.params)
        binding = CoinBinding.build(
            coin_keypair,
            coin_y=coin.coin_y,
            holder_y=holder_keypair.public.y,
            seq=self.rng.randrange(1, 1 << 30),
            exp_date=self.network.clock.now() + self.network.renewal_period,
        )
        self.held[coin.coin_y] = _Held(
            coin=coin,
            binding=binding,
            holder_keypair=holder_keypair,
            holder_address=self.rng.choice(self._peers).address,
        )
        self.coins.append(coin.coin_y)
        self._zipf_weights.append(1.0 / (len(self.coins) ** self.zipf_s))

    def _pick_coin(self, used: set[int]) -> int | None:
        """Zipf-skewed coin draw, excluding coins already used this round."""
        for _ in range(8):
            coin_y = self.rng.choices(self.coins, weights=self._zipf_weights)[0]
            if coin_y not in used:
                return coin_y
        remaining = [coin_y for coin_y in self.coins if coin_y not in used]
        return self.rng.choice(remaining) if remaining else None

    # ------------------------------------------------------------------
    # request construction
    # ------------------------------------------------------------------

    def _holder_request(self, held: _Held, op: str, **fields: Any) -> Request:
        """Sealed by the holding peer itself, sent under the op's broker kind."""
        envelope = self.network.peers[held.holder_address]._holder_envelope(held, op, **fields)
        kind = protocol.HOLDER_OPS[op].broker_kind
        return self._request(kind, held.holder_address, protocol.encode_dual(envelope))

    def _request(self, kind: str, src: str, data: bytes) -> Request:
        self._counter += 1
        return Request(kind=kind, src=src, data=data, idem=f"lg-{self._counter}")

    def make_round(self, ops: int) -> list[Request]:
        """Generate ``ops`` signed requests (client-side work — untimed).

        Each coin appears at most once per round: its next binding is only
        known after the broker replies, so chained operations on a hot coin
        land in consecutive rounds.
        """
        if self._pending:
            raise RuntimeError("previous round not absorbed yet")
        requests: list[Request] = []
        used: set[int] = set()
        for _ in range(ops):
            op = self.rng.choices(("transfer", "renewal", "purchase"), weights=self.mix)[0]
            coin_y = None if op == "purchase" else self._pick_coin(used)
            if coin_y is None:
                op = "purchase"
            if op == "purchase":
                peer = self.rng.choice(self._peers)
                coin_keypair = KeyPair.generate(self.params)
                purchase = protocol.PurchaseRequest(
                    coin_y=coin_keypair.public.y, value=self.value, account=peer.address
                )
                data = seal(peer.identity, purchase.to_payload()).encode()
                requests.append(self._request(protocol.PURCHASE, peer.address, data))
                self._pending.append(("purchase", coin_keypair))
                continue
            assert coin_y is not None
            used.add(coin_y)
            held = self.held[coin_y]
            if op == "transfer":
                new_holder = KeyPair.generate(self.params)
                new_address = self.rng.choice(self._peers).address
                requests.append(
                    self._holder_request(held, "transfer", new_holder_y=new_holder.public.y)
                )
                self._pending.append(("transfer", coin_y, new_holder, new_address))
            else:
                requests.append(self._holder_request(held, "renewal"))
                self._pending.append(("renewal", coin_y))
        return requests

    # ------------------------------------------------------------------
    # reply absorption
    # ------------------------------------------------------------------

    def absorb(self, records: list[ReplyRecord]) -> int:
        """Apply the broker's replies to the generator's coin state.

        Returns how many replies updated state.  Records that were rejected
        or whose reply was never released (crash before the covering fsync)
        leave the local view untouched — the client never saw a reply, so
        it retries from its previous binding, exactly the recovery story.
        """
        pending, self._pending = self._pending, []
        if len(records) != len(pending):
            raise ValueError("absorb needs exactly the records of the last round")
        applied = 0
        for record, entry in zip(records, pending):
            if not record.ok or not record.released:
                continue
            applied += 1
            if entry[0] == "purchase":
                _tag, coin_keypair = entry
                coin = Coin(cert=protocol.decode_signed(record.reply, self.params))
                self._install_coin(coin, coin_keypair)
            elif entry[0] == "transfer":
                _tag, coin_y, new_holder, new_address = entry
                held = self.held[coin_y]
                held.binding = CoinBinding(
                    signed=protocol.decode_signed(record.reply, self.params),
                    via_broker=True,
                )
                held.holder_keypair = new_holder
                held.holder_address = new_address
            else:  # renewal: same holder, broker-signed binding with fresh seq
                _tag, coin_y = entry
                held = self.held[coin_y]
                held.binding = CoinBinding(
                    signed=protocol.decode_signed(record.reply, self.params),
                    via_broker=True,
                )
        return applied
