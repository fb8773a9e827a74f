"""The reference event loop: the statistical oracle of the simulator.

The WhoPay operation-level model (paper Section 6.1) as a per-event loop:
one heap entry per candidate payment, one object per peer and coin.  It is
the plain statement of the model, too slow to produce the figures; the
engine that does, :class:`repro.sim.engine.FastSimulation`, is held to its
seed-pool means by ``test_engine_equivalence``.  Three event types drive
everything:

* **session toggles** — each peer alternates exponential online (mean µ) and
  offline (mean ν) sessions; rejoining triggers a synchronization
  (proactive mode) or marks the peer's owned coins stale (lazy mode);
* **candidate payments** — per-peer Poisson process, mean gap 5 minutes,
  uniformly random payee; a candidate becomes an actual payment iff the
  payee is online (the paper's thinning — the payer's own state is *not*
  part of the thinning, per the paper's "rate α per 5 minutes" statement);
* **renewals** — every issued coin is renewed at 90% of its renewal period;
  via the owner when online (a peer-served renewal), via the broker
  otherwise (a downtime renewal); a holder that is offline when renewal
  falls due performs it on rejoin.

Payments follow the configured policy's preference order
(:mod:`repro.sim.policies`), with a per-peer account balance gating
purchases: deposits (policy III's offline-coin recycling) replenish it.

The simulator counts coarse operations only; CPU and communication load are
derived afterwards through :mod:`repro.sim.costs` — exactly the paper's
methodology (crypto is benchmarked separately, Table 2).
"""

from __future__ import annotations

import bisect
import heapq
import random

from repro.sim import policies as pol
from repro.sim.config import SimConfig
from repro.sim.costs import BROKER_OPS, REPLAY_RECORD_COST, expected_attempts
from repro.sim.engine import RENEWAL_POINT, SimResult
from repro.sim.metrics import SimMetrics

# event kinds (ordered so ties break deterministically)
_TOGGLE = 0
_PAYMENT = 1
_RENEWAL = 2
_RESTART = 3


class _Coin:
    """One simulated coin."""

    __slots__ = (
        "id", "owner", "holder", "issued", "exp",
        "broker_dirty", "needs_check", "retired", "layers",
    )

    def __init__(self, coin_id: int, owner: int) -> None:
        self.id = coin_id
        self.owner = owner
        self.holder = owner
        self.issued = False
        self.exp = 0.0
        self.broker_dirty = False  # authoritative binding is at the broker
        self.needs_check = False  # owner must consult public state (lazy)
        self.retired = False
        self.layers = 0  # signature layers stacked since the last binding


class _Peer:
    """One simulated peer."""

    __slots__ = ("online", "wallet", "unissued", "owned", "balance", "pending_renewals")

    def __init__(self, balance: float) -> None:
        self.online = True
        self.wallet: set[int] = set()  # coin ids held
        self.unissued: list[int] = []  # owned, never-issued coin ids
        self.owned: set[int] = set()  # owned *and issued* coin ids
        self.balance = balance
        self.pending_renewals: set[int] = set()


class Simulation:
    """One simulation run."""

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self.rng = random.Random(config.seed)
        self.metrics = SimMetrics(
            n_peers=config.n_peers,
            msg_overhead=expected_attempts(config.message_loss, config.rpc_max_attempts),
        )
        self.now = 0.0
        balance = float("inf") if config.initial_balance is None else config.initial_balance
        self.peers = [_Peer(balance) for _ in range(config.n_peers)]
        self.coins: list[_Coin] = []
        self._heap: list[tuple[float, int, int, int]] = []
        self._seq = 0
        self._lazy = config.sync_mode == "lazy"
        self._track = config.track_per_peer
        self._detection = config.detection
        # Broker ops already covered by a snapshot; ops beyond this backlog
        # sit in the write-ahead journal and must be replayed on restart.
        self._ops_snapshotted = 0
        self._build_population()

    def _build_population(self) -> None:
        """Per-peer session/payment parameters (Section 6.2's two models).

        Uniform: every peer has the configured µ/ν and the same candidate
        rate, and payees are uniform — the paper's simulation.  Power-law:
        Zipf activity weights drive (a) the candidate payment rate, (b) the
        payee choice distribution, and (c) availability, which interpolates
        from the base α up to ``superpeer_max_availability`` with weight.
        Mean online session lengths stay at µ; offline means shrink to
        realize the boosted availability.
        """
        cfg = self.config
        n = cfg.n_peers
        if cfg.heterogeneity == "uniform":
            self._mean_online = [cfg.mean_online] * n
            self._mean_offline = [cfg.mean_offline] * n
            self._interval = [cfg.payment_interval] * n
            self._payee_cum: list[float] | None = None
            self._availability = [cfg.availability] * n
            return
        weights = [1.0 / (rank + 1) ** cfg.zipf_exponent for rank in range(n)]
        self.rng.shuffle(weights)  # decouple peer index from rank
        w_max = max(weights)
        base = cfg.availability
        cap = max(base, cfg.superpeer_max_availability)
        self._availability = [
            base + (cap - base) * (w / w_max) for w in weights
        ]
        self._mean_online = [cfg.mean_online] * n
        self._mean_offline = [
            cfg.mean_online * (1.0 - a) / a for a in self._availability
        ]
        # Keep the aggregate candidate rate at n per payment_interval while
        # distributing it by activity weight.
        total_weight = sum(weights)
        self._interval = [
            cfg.payment_interval * total_weight / (w * n) for w in weights
        ]
        cumulative: list[float] = []
        running = 0.0
        for w in weights:
            running += w
            cumulative.append(running)
        self._payee_cum = cumulative

    # -- event plumbing -----------------------------------------------------

    def _push(self, time: float, kind: int, subject: int) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, kind, self._seq, subject))

    def _exp(self, mean: float) -> float:
        return self.rng.expovariate(1.0 / mean)

    # -- setup ------------------------------------------------------------------

    def _initialize(self) -> None:
        for index, peer in enumerate(self.peers):
            # Start in the stationary regime so the run has no warm-up bias.
            peer.online = self.rng.random() < self._availability[index]
            mean = self._mean_online[index] if peer.online else self._mean_offline[index]
            self._push(self._exp(mean), _TOGGLE, index)
            self._push(self._exp(self._interval[index]), _PAYMENT, index)
        restarts = self.config.broker_restarts
        for i in range(1, restarts + 1):
            self._push(self.config.duration * i / (restarts + 1), _RESTART, 0)

    # -- run --------------------------------------------------------------------

    def run(self) -> SimResult:
        """Execute the configured run and return its metrics."""
        self._initialize()
        duration = self.config.duration
        heap = self._heap
        events = 0
        while heap:
            time, kind, _seq, subject = heapq.heappop(heap)
            if time > duration:
                break
            self.now = time
            events += 1
            if kind == _PAYMENT:
                self._on_payment(subject)
            elif kind == _TOGGLE:
                self._on_toggle(subject)
            elif kind == _RENEWAL:
                self._on_renewal_due(subject)
            else:
                self._on_broker_restart()
        self.metrics.events = events
        return SimResult(config=self.config, metrics=self.metrics, final_time=min(self.now, duration))

    # -- churn ------------------------------------------------------------------

    def _on_toggle(self, index: int) -> None:
        peer = self.peers[index]
        if peer.online:
            peer.online = False
            self._push(self.now + self._exp(self._mean_offline[index]), _TOGGLE, index)
        else:
            peer.online = True
            self._push(self.now + self._exp(self._mean_online[index]), _TOGGLE, index)
            self._on_rejoin(index, peer)

    def _on_rejoin(self, index: int, peer: _Peer) -> None:
        # "exactly one synchronization is performed for each peer join event"
        if self._lazy:
            for coin_id in peer.owned:
                self.coins[coin_id].needs_check = True
        else:
            self.metrics.count("sync")
            for coin_id in peer.owned:
                self.coins[coin_id].broker_dirty = False
        # Catch up on renewals that fell due while offline.
        for coin_id in list(peer.pending_renewals):
            coin = self.coins[coin_id]
            if not coin.retired and coin.holder == index:
                self._renew(coin)
        peer.pending_renewals.clear()

    # -- broker restarts ---------------------------------------------------------

    def _on_broker_restart(self) -> None:
        """Crash + recover the broker: replay the journal since the last
        snapshot, then compact.

        Every broker-side operation appends one journal record under the
        write-ahead discipline, so the replay backlog is the broker op count
        accumulated since the previous snapshot.  Recovery re-verifies each
        record's signature (:data:`REPLAY_RECORD_COST` apiece) and ends with
        a compaction snapshot, which resets the backlog.  Clients ride out
        the outage through idempotent retries, so the operation mix itself
        is unchanged — restarts add CPU load, not failures.
        """
        journaled = sum(self.metrics.ops[op] for op in BROKER_OPS)
        backlog = journaled - self._ops_snapshotted
        self.metrics.count_recovery(backlog, backlog * REPLAY_RECORD_COST)
        self._ops_snapshotted = journaled

    # -- renewals ------------------------------------------------------------------

    def _schedule_renewal(self, coin: _Coin) -> None:
        coin.exp = self.now + self.config.renewal_period
        self._push(self.now + RENEWAL_POINT * self.config.renewal_period, _RENEWAL, coin.id)

    def _on_renewal_due(self, coin_id: int) -> None:
        coin = self.coins[coin_id]
        if coin.retired or not coin.issued:
            return
        holder = self.peers[coin.holder]
        if holder.online:
            self._renew(coin)
        else:
            holder.pending_renewals.add(coin_id)

    def _renew(self, coin: _Coin) -> None:
        owner_peer = self.peers[coin.owner]
        if owner_peer.online:
            self._owner_check(coin)
            self.metrics.count("renewal")
            if self._track:
                self.metrics.count_served(coin.owner)
        else:
            self.metrics.count("downtime_renewal")
            coin.broker_dirty = True
        self._detection_update()
        self._schedule_renewal(coin)

    def _detection_update(self, reads: int = 0) -> None:
        """Section 5.1 overhead: one publish per binding update, plus the
        payee's verify-before-accept reads."""
        if not self._detection:
            return
        self.metrics.count("dht_publish")
        if reads:
            self.metrics.count("dht_read", reads)

    def _owner_check(self, coin: _Coin) -> None:
        """Lazy-sync check before the owner serves a request for this coin."""
        if self._lazy and coin.needs_check:
            self.metrics.count("check")
            if coin.broker_dirty:
                self.metrics.count("lazy_sync")
                coin.broker_dirty = False
            coin.needs_check = False

    # -- payments --------------------------------------------------------------------

    def _on_payment(self, payer_index: int) -> None:
        cfg = self.config
        self._push(self.now + self._exp(self._interval[payer_index]), _PAYMENT, payer_index)
        self.metrics.payments_attempted += 1
        if cfg.require_payer_online and not self.peers[payer_index].online:
            return  # offline payers make no payments (see SimConfig note)
        payee_index = self._pick_payee(payer_index)
        if not self.peers[payee_index].online:
            return  # candidate did not materialize (paper's thinning)
        for method in cfg.policy.preferences:
            if self._try_method(method, payer_index, payee_index):
                self.metrics.payments_made += 1
                self.metrics.payments_by_method[method] += 1
                if self._track:
                    self.metrics.count_payment_by(payer_index)
                return
        self.metrics.payments_failed += 1

    def _pick_payee(self, payer_index: int) -> int:
        """Uniform payee in the paper's model; weight-proportional under
        the power-law population ("peers are more willing to do business
        with such super peers")."""
        if self._payee_cum is None:
            payee_index = self.rng.randrange(self.config.n_peers - 1)
            if payee_index >= payer_index:
                payee_index += 1
            return payee_index
        total = self._payee_cum[-1]
        while True:
            payee_index = bisect.bisect_left(self._payee_cum, self.rng.random() * total)
            if payee_index != payer_index:
                return min(payee_index, self.config.n_peers - 1)

    def _try_method(self, method: str, payer: int, payee: int) -> bool:
        if method == pol.TRANSFER_ONLINE:
            return self._transfer(payer, payee, owner_online=True)
        if method == pol.TRANSFER_OFFLINE:
            return self._transfer(payer, payee, owner_online=False)
        if method == pol.ISSUE_EXISTING:
            return self._issue_existing(payer, payee)
        if method == pol.PURCHASE_ISSUE:
            return self._purchase_issue(payer, payee)
        if method == pol.DEPOSIT_PURCHASE_ISSUE:
            return self._deposit_purchase_issue(payer, payee)
        if method == pol.LAYERED_OFFLINE:
            return self._layered_transfer(payer, payee)
        raise ValueError(f"unknown method {method!r}")

    def _find_held(self, payer: int, owner_online: bool) -> _Coin | None:
        wallet = self.peers[payer].wallet
        for coin_id in wallet:
            coin = self.coins[coin_id]
            if not coin.issued:
                continue  # owner-held unissued coins are spent via ISSUE only
            if self.peers[coin.owner].online == owner_online:
                return coin
        return None

    def _move_coin(self, coin: _Coin, payer: int, payee: int) -> None:
        self.peers[payer].wallet.discard(coin.id)
        self.peers[payer].pending_renewals.discard(coin.id)
        coin.holder = payee
        self.peers[payee].wallet.add(coin.id)

    def _transfer(self, payer: int, payee: int, owner_online: bool) -> bool:
        coin = self._find_held(payer, owner_online)
        if coin is None:
            return False
        if owner_online:
            self._owner_check(coin)
            self.metrics.count("transfer")
            if self._track:
                self.metrics.count_served(coin.owner)
        else:
            self.metrics.count("downtime_transfer")
            coin.broker_dirty = True
        self._detection_update(reads=1)  # payee verifies the public binding
        # Owner- or broker-served operations collapse any layered chain into
        # a fresh binding (the depth-dependent verification of the old chain
        # is already accounted when the layers were added/verified).
        coin.layers = 0
        self._move_coin(coin, payer, payee)
        return True

    def _layered_transfer(self, payer: int, payee: int) -> bool:
        """Section 7 fallback: move an offline coin by stacking a layer.

        No broker, no owner — purely payer↔payee.  The payee must verify the
        whole chain (base binding plus every existing layer), so its
        verification cost grows with depth; that dynamic part is recorded as
        extra micro-operations.
        """
        wallet = self.peers[payer].wallet
        coin = None
        for coin_id in wallet:
            candidate = self.coins[coin_id]
            if not candidate.issued or candidate.layers >= self.config.max_layers:
                continue
            if not self.peers[candidate.owner].online:
                coin = candidate
                break
        if coin is None:
            return False
        self.metrics.count("layered_transfer")
        if coin.layers:
            self.metrics.count_micro("ver", coin.layers)
            self.metrics.count_micro("gver", coin.layers)
        coin.layers += 1
        self.metrics.layered_depth_total += coin.layers
        self.metrics.layered_depth_max = max(self.metrics.layered_depth_max, coin.layers)
        self._move_coin(coin, payer, payee)
        return True

    def _issue_existing(self, payer: int, payee: int) -> bool:
        peer = self.peers[payer]
        if not peer.unissued:
            return False
        coin = self.coins[peer.unissued.pop()]
        coin.issued = True
        peer.owned.add(coin.id)
        self.metrics.count("issue")
        if self._track:
            self.metrics.count_served(payer)
        self._detection_update(reads=1)
        self._move_coin(coin, payer, payee)
        self._schedule_renewal(coin)
        return True

    def _purchase(self, payer: int) -> bool:
        peer = self.peers[payer]
        if peer.balance < self.config.coin_value:
            return False
        peer.balance -= self.config.coin_value
        coin = _Coin(len(self.coins), payer)
        self.coins.append(coin)
        peer.wallet.add(coin.id)
        peer.unissued.append(coin.id)
        self.metrics.count("purchase")
        self.metrics.coins_created += 1
        return True

    def _purchase_issue(self, payer: int, payee: int) -> bool:
        if not self._purchase(payer):
            return False
        return self._issue_existing(payer, payee)

    def _deposit_purchase_issue(self, payer: int, payee: int) -> bool:
        coin = self._find_held(payer, owner_online=False)
        if coin is None:
            return False
        peer = self.peers[payer]
        peer.wallet.discard(coin.id)
        peer.pending_renewals.discard(coin.id)
        coin.retired = True
        coin.layers = 0
        self.peers[coin.owner].owned.discard(coin.id)
        peer.balance += self.config.coin_value
        self.metrics.count("deposit")
        self.metrics.coins_retired += 1
        return self._purchase_issue(payer, payee)
