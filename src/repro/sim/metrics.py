"""Load metrics (paper Section 6.2).

:class:`SimMetrics` accumulates one counter per coarse operation, then
derives the quantities the figures plot:

* Figures 2/3 — broker operation counts (purchases, downtime transfers,
  downtime renewals, syncs);
* Figures 4/5 — average-per-peer operation counts (purchases, issues,
  transfers, renewals, downtime ops, checks, syncs);
* Figures 6/7 — broker CPU / communication load (counts × the
  :mod:`repro.sim.costs` weights);
* Figures 8/9 — broker-to-average-peer load ratios;
* Figures 10/11 — broker load *share* vs system size.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.sim.costs import BROKER_OPS, MICRO_COST, OP_COSTS, PEER_OPS


@dataclass
class SimMetrics:
    """Operation counters and derived load figures for one run."""

    n_peers: int
    #: Multiplicative communication overhead from RPC retransmissions
    #: (expected attempts per logical message under the configured loss
    #: rate); 1.0 on loss-free links.  CPU load is unaffected — handlers
    #: run once thanks to idempotency-key dedupe.
    msg_overhead: float = 1.0
    ops: Counter = field(default_factory=Counter)
    #: Depth-dependent micro-operations (layered-chain verifications) that
    #: cannot be priced by a fixed per-op table; peer-side by definition.
    extra_peer_micro: Counter = field(default_factory=Counter)
    payments_attempted: int = 0
    payments_made: int = 0
    payments_failed: int = 0
    payments_by_method: Counter = field(default_factory=Counter)
    coins_created: int = 0
    coins_retired: int = 0
    layered_depth_total: int = 0
    layered_depth_max: int = 0
    #: Optional per-peer work tracking (enabled by SimConfig.track_per_peer):
    #: operations *served* by each peer in its owner role — the paper's
    #: "the more coins a peer issues, the more transfers and renewals he
    #: needs to handle".
    per_peer_served: Counter = field(default_factory=Counter)
    #: Payments initiated per peer (activity measure).
    per_peer_payments: Counter = field(default_factory=Counter)
    #: Broker crash/restart events modeled (SimConfig.broker_restarts).
    broker_restarts: int = 0
    #: Snapshots taken at the broker (one post-recovery compaction per
    #: restart in the current model).
    snapshots_taken: int = 0
    #: Total journal records replayed across all recoveries.
    recovery_records_replayed: int = 0
    #: CPU cost of recovery replay (Table 3 units); folded into
    #: :meth:`broker_cpu_load`.  Zero when no restarts are modeled, so the
    #: durability extension leaves the paper's figures untouched by default.
    recovery_replay_cost: float = 0.0
    #: Total simulation events processed (candidate payments, session
    #: toggles, renewals, broker restarts).  The throughput denominator for
    #: the scaling benchmark's events/sec figures.
    events: int = 0

    def count_recovery(self, records_replayed: int, replay_cost: float) -> None:
        """Record one broker restart: journal replay plus compaction snapshot."""
        self.broker_restarts += 1
        self.snapshots_taken += 1
        self.recovery_records_replayed += records_replayed
        self.recovery_replay_cost += replay_cost

    def count_served(self, peer_index: int, times: int = 1) -> None:
        """Record owner-side work served by ``peer_index``."""
        self.per_peer_served[peer_index] += times

    def count_payment_by(self, peer_index: int) -> None:
        """Record a payment initiated by ``peer_index``."""
        self.per_peer_payments[peer_index] += 1

    def served_distribution(self) -> list[int]:
        """Per-peer served-work counts, dense over all peers."""
        return [self.per_peer_served.get(i, 0) for i in range(self.n_peers)]

    def count(self, op: str, times: int = 1) -> None:
        """Record ``times`` occurrences of operation ``op``."""
        if op not in OP_COSTS:
            raise ValueError(f"unknown operation {op!r}")
        self.ops[op] += times

    def count_micro(self, micro: str, times: int = 1) -> None:
        """Record peer-side micro-operations priced outside the op table."""
        if micro not in MICRO_COST:
            raise ValueError(f"unknown micro-operation {micro!r}")
        self.extra_peer_micro[micro] += times

    # -- figure 2/3: broker operation counts --------------------------------

    def broker_op_counts(self) -> dict[str, int]:
        """Counts of the operations the broker participates in."""
        return {op: self.ops[op] for op in BROKER_OPS}

    # -- figure 4/5: average peer operation counts ------------------------------

    def peer_op_counts_avg(self) -> dict[str, float]:
        """Average per-peer counts of the operations peers participate in."""
        return {op: self.ops[op] / self.n_peers for op in PEER_OPS}

    # -- figure 6/7: broker load ---------------------------------------------------

    def broker_cpu_load(self) -> float:
        """Total broker CPU load in Table 3 units (recovery replay included)."""
        fixed = sum(OP_COSTS[op].broker_cpu * count for op, count in self.ops.items())
        return float(fixed) + self.recovery_replay_cost

    def broker_comm_load(self) -> float:
        """Total broker communication load (message endpoints × retries)."""
        return self.msg_overhead * float(
            sum(OP_COSTS[op].broker_msgs * count for op, count in self.ops.items())
        )

    def peer_cpu_load_total(self) -> float:
        """Total peer-side CPU load across all peers."""
        fixed = sum(OP_COSTS[op].peer_cpu * count for op, count in self.ops.items())
        dynamic = sum(MICRO_COST[m] * count for m, count in self.extra_peer_micro.items())
        return float(fixed + dynamic)

    def peer_comm_load_total(self) -> float:
        """Total peer-side communication load across all peers (× retries)."""
        return self.msg_overhead * float(
            sum(OP_COSTS[op].peer_msgs * count for op, count in self.ops.items())
        )

    # -- figure 8/9: broker / average-peer ratios ------------------------------------

    def cpu_load_ratio(self) -> float:
        """Broker CPU load over average peer CPU load."""
        per_peer = self.peer_cpu_load_total() / self.n_peers
        return self.broker_cpu_load() / per_peer if per_peer else float("inf")

    def comm_load_ratio(self) -> float:
        """Broker communication load over average peer communication load."""
        per_peer = self.peer_comm_load_total() / self.n_peers
        return self.broker_comm_load() / per_peer if per_peer else float("inf")

    # -- figure 10/11: broker share of total system load --------------------------------

    def broker_cpu_share(self) -> float:
        """Broker fraction of total (broker + peers) CPU load."""
        total = self.broker_cpu_load() + self.peer_cpu_load_total()
        return self.broker_cpu_load() / total if total else 0.0

    def broker_comm_share(self) -> float:
        """Broker fraction of total communication load."""
        total = self.broker_comm_load() + self.peer_comm_load_total()
        return self.broker_comm_load() / total if total else 0.0
