"""Baseline load models over the same simulated workload.

The ablation benchmark compares how the *same* payment workload loads the
broker under three protocol families:

* **WhoPay** — the measured :class:`~repro.sim.metrics.SimMetrics` as-is;
* **PPay** — identical operation routing (PPay and WhoPay share the
  owner-mediated architecture) but no group signatures anywhere, so peer
  CPU is cheaper while broker involvement is unchanged — the comparison the
  paper makes in Section 4.3 ("as secure and scalable as … PPay, while
  providing a much higher level of user anonymity");
* **Centralized** (Burk–Pfitzmann / Vo–Hohenberger) — every transfer and
  issue is broker-mediated and there is no owner role at all: no renewals
  via owners, no downtime protocol, no synchronization; every payment is
  one broker round trip.

PPay and the centralized system are *derived views* over the WhoPay
operation counts rather than separate event loops: the workload (who pays
whom when, who is online) is identical by construction, which is exactly
what makes the comparison apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.costs import MICRO_COST
from repro.sim.metrics import SimMetrics


@dataclass(frozen=True)
class LoadSummary:
    """Broker/peer CPU load under one protocol family."""

    broker_cpu: float
    peer_cpu_total: float

    @property
    def broker_cpu_share(self) -> float:
        """Broker fraction of total CPU load."""
        total = self.broker_cpu + self.peer_cpu_total
        return self.broker_cpu / total if total else 0.0


def whopay_load(metrics: SimMetrics) -> LoadSummary:
    """The measured WhoPay loads, packaged for comparison."""
    return LoadSummary(
        broker_cpu=metrics.broker_cpu_load(), peer_cpu_total=metrics.peer_cpu_load_total()
    )


# PPay micro-costs (peer side, broker side): WhoPay's table with every group
# signature replaced by a regular one on the identity key (PPay signs
# everything in the clear).
_PPAY_MICRO = {
    "purchase": ({"keygen": 0, "sig": 1, "ver": 1}, {"ver": 1, "sig": 1}),
    "issue": ({"sig": 2, "ver": 2}, {}),
    "transfer": ({"sig": 3, "ver": 3}, {}),
    "deposit": ({"sig": 1}, {"ver": 1, "sig": 1}),
    "renewal": ({"sig": 2, "ver": 2}, {}),
    "downtime_transfer": ({"sig": 1, "ver": 2}, {"ver": 2, "sig": 1}),
    "downtime_renewal": ({"sig": 1, "ver": 1}, {"ver": 2, "sig": 1}),
    "sync": ({"sig": 1, "ver": 1}, {"ver": 1, "sig": 1}),
    "check": ({"ver": 1}, {}),
    "lazy_sync": ({"ver": 1}, {}),
}


def ppay_load(metrics: SimMetrics) -> LoadSummary:
    """The same operation mix priced with PPay's (group-signature-free) costs."""
    broker_cpu = peer_cpu = 0.0
    for op, count in metrics.ops.items():
        peer_micro, broker_micro = _PPAY_MICRO[op]
        peer_cpu += count * sum(MICRO_COST[m] * n for m, n in peer_micro.items())
        broker_cpu += count * sum(MICRO_COST[m] * n for m, n in broker_micro.items())
    return LoadSummary(broker_cpu=broker_cpu, peer_cpu_total=peer_cpu)


def centralized_load(metrics: SimMetrics) -> LoadSummary:
    """The same *payments* served by a fully centralized transfer system.

    Every payment (whatever method WhoPay used) is one broker-mediated
    transfer: holder envelope in, broker verification + re-bind + signed
    receipt out.  Purchases and deposits stay broker operations; renewals,
    downtime protocols, syncs, and checks do not exist.
    """
    transfer_broker_cpu = MICRO_COST["ver"] + MICRO_COST["gver"] + MICRO_COST["sig"]
    transfer_peer_cpu = (
        MICRO_COST["keygen"] + MICRO_COST["sig"] + MICRO_COST["gsig"] + MICRO_COST["ver"]
    )
    payments = metrics.payments_made
    purchases = metrics.ops.get("purchase", 0)
    deposits = metrics.ops.get("deposit", 0)

    broker_cpu = (
        payments * transfer_broker_cpu
        + purchases * (MICRO_COST["ver"] + MICRO_COST["sig"])
        + deposits * (MICRO_COST["ver"] + MICRO_COST["gver"] + MICRO_COST["sig"])
    )
    peer_cpu = (
        payments * transfer_peer_cpu
        + purchases * (MICRO_COST["keygen"] + MICRO_COST["sig"] + MICRO_COST["ver"])
        + deposits * (MICRO_COST["sig"] + MICRO_COST["gsig"])
    )
    return LoadSummary(broker_cpu=float(broker_cpu), peer_cpu_total=float(peer_cpu))
