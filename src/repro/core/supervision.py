"""Broker-shard supervision: detector-driven, lease-gated failover.

:class:`LeaseGatedSupervision` is what
:meth:`~repro.core.network.WhoPayNetwork.supervise_broker` attaches.  It owns a
:class:`HeartbeatMonitor` node on the ordinary transport; every clock
advance it

1. emits the heartbeats that came due, in virtual-time order, from each
   live shard via the shard's own RPC client (a dead shard simply emits
   nothing — that *is* the failure signal);
2. merges the monitor's gossiped last-seen table back into each emitter's
   local view;
3. checks the phi-accrual detector, and only when a shard is DEAD **and**
   its lease has lapsed restarts it from its journal
   (:meth:`~repro.core.network.WhoPayNetwork.restart_shard`) and re-drives
   any orphaned cross-shard handoffs
   (:meth:`~repro.core.brokerapi.BrokerAPI.complete_pending_handoffs`).

Everything runs on the virtual clock: detection latency is measured in
virtual seconds and is bit-identical per seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.net.liveness import (
    DEAD,
    HEARTBEAT,
    LeaseTable,
    LivenessConfig,
    PhiAccrualDetector,
)
from repro.net.node import Node
from repro.net.transport import NetworkError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.network import WhoPayNetwork

#: Address the lease-gated supervisor's monitor node registers under.
SUPERVISOR_ADDRESS = "liveness-supervisor"


class HeartbeatMonitor(Node):
    """The supervisor-side endpoint heartbeats land on.

    An ordinary :class:`~repro.net.node.Node` — heartbeats ride the same
    transport, fault plans and all.  Each beat updates the detector and
    renews the emitter's lease; the reply carries the monitor's last-seen
    snapshot so emitters gossip a shared liveness view.
    """

    def __init__(
        self,
        transport: Any,
        address: str,
        detector: PhiAccrualDetector,
        leases: LeaseTable,
    ) -> None:
        super().__init__(transport, address)
        self.detector = detector
        self.leases = leases
        self.beats_received = 0
        self.on(HEARTBEAT, self._handle_heartbeat)

    def _handle_heartbeat(self, src: str, payload: Any) -> dict[str, Any]:
        if not isinstance(payload, dict) or "now" not in payload:
            raise NetworkError(f"malformed heartbeat from {src}")
        sent_at = float(payload["now"])
        self.beats_received += 1
        self.detector.observe(src, sent_at)
        self.leases.renew(src, sent_at)
        return {"ok": True, "last_seen": self.detector.snapshot()}


@dataclass(frozen=True)
class DetectionEvent:
    """One detector-driven failover, for latency assertions and telemetry."""

    address: str
    last_seen: float
    detected_at: float
    phi: float
    redriven_handoffs: int


class LeaseGatedSupervision:
    """Detector-driven failover: heartbeat silence → DEAD → lease lapse → restart.

    No transport crash handlers are involved: a killed shard fails its
    callers with ``NodeOffline`` (protocol-visible, as churn always is)
    until the detector notices the silence, the lease lapses, and the
    supervisor restarts the shard from its journal and re-drives orphaned
    handoffs.  The two-step gate means a slow-but-alive shard — beats
    delayed or dropped, but still renewing its lease now and then — is
    never double-driven.
    """

    def __init__(self, config: LivenessConfig | None = None) -> None:
        self.config = config or LivenessConfig()
        self.detector = PhiAccrualDetector(self.config)
        self.leases = LeaseTable(self.config.lease_duration)
        self.monitor: HeartbeatMonitor | None = None
        self.events: list[DetectionEvent] = []
        #: Per-shard gossip views: the last-seen table each emitter has
        #: merged from monitor replies.
        self.gossip_views: dict[str, PhiAccrualDetector] = {}
        self.beats_sent = 0
        self.beats_missed = 0
        self._net: "WhoPayNetwork | None" = None
        self._seq: dict[str, int] = {}
        self._next_beat: dict[str, float] = {}
        self._index: dict[str, int] = {}

    # -- wiring ----------------------------------------------------------------

    def attach(self, net: "WhoPayNetwork") -> None:
        self._net = net
        self.monitor = HeartbeatMonitor(
            net.transport, SUPERVISOR_ADDRESS, self.detector, self.leases
        )
        now = net.clock.now()
        for index, shard in enumerate(net.shards):
            address = shard.address
            self._index[address] = index
            self._seq[address] = 0
            self._next_beat[address] = now + self.config.heartbeat_interval
            self.detector.expect(address, now)
            self.leases.renew(address, now)
            self.gossip_views[address] = PhiAccrualDetector(self.config)

    def detach(self) -> None:
        if self._net is not None and self.monitor is not None:
            self._net.transport.unregister(self.monitor.address)
        self.monitor = None
        self._net = None

    # -- per-advance work -------------------------------------------------------

    def tick(self, now: float) -> None:
        """Run one supervision round at virtual time ``now``."""
        self._emit_due(now)
        self._failover(now)

    def _emit_due(self, now: float) -> None:
        """Emit every heartbeat that came due, in virtual-time order.

        A coarse clock advance may cover several beat periods; beats are
        replayed at their scheduled times (ties broken by address) so the
        detector sees the same arrival sequence regardless of how the
        caller quantizes ``advance``.
        """
        assert self._net is not None and self.monitor is not None
        due: list[tuple[float, str]] = []
        for address in sorted(self._next_beat):
            when = self._next_beat[address]
            while when <= now:
                due.append((when, address))
                when += self.config.heartbeat_interval
            self._next_beat[address] = when
        for when, address in sorted(due):
            self._emit_one(address, when)

    def _emit_one(self, address: str, when: float) -> None:
        assert self._net is not None and self.monitor is not None
        shard = self._net.shards[self._index[address]]
        if not shard.online or not self._net.transport.is_online(address):
            # A dead shard emits nothing — silence is the failure signal.
            self.beats_missed += 1
            return
        self._seq[address] += 1
        try:
            reply = shard.rpc.call(
                self.monitor.address,
                HEARTBEAT,
                {"seq": self._seq[address], "now": when},
                deadline=self.config.heartbeat_interval,
            )
        except NetworkError:
            # Dropped/jittered-away beat: exactly the false-positive
            # pressure the detector is tuned against.
            self.beats_missed += 1
            return
        self.beats_sent += 1
        table = reply.get("last_seen", {}) if isinstance(reply, dict) else {}
        self.gossip_views[address].merge(table)

    def _failover(self, now: float) -> None:
        """Restart every shard that is detector-DEAD with a lapsed lease."""
        assert self._net is not None
        for address in self.detector.monitored():
            if address not in self._index:
                continue
            if self.detector.state(address, now) != DEAD:
                continue
            if not self.leases.expired(address, now):
                continue  # lease-gated: dead verdict alone is not enough
            index = self._index[address]
            last_seen = self.detector.last_seen(address) or 0.0
            phi = self.detector.phi(address, now)
            self._net.restart_shard(index)
            # Re-drive handoffs federation-wide: the restarted shard's own
            # journaled orphans *and* siblings' handoffs stranded mid-flight
            # toward it while it was dark.
            redriven = self._net.broker.complete_pending_handoffs()
            self.detector.reset(address, now)
            self.leases.renew(address, now)
            self._next_beat[address] = now + self.config.heartbeat_interval
            self.events.append(
                DetectionEvent(
                    address=address,
                    last_seen=last_seen,
                    detected_at=now,
                    phi=phi,
                    redriven_handoffs=redriven,
                )
            )

    # -- introspection ----------------------------------------------------------

    def last_seen_table(self) -> dict[str, float]:
        """The supervisor's authoritative last-seen table."""
        return self.detector.snapshot()

    def detection_latencies(self) -> list[float]:
        """Silence-to-restart latency of every failover, in event order."""
        return [event.detected_at - event.last_seen for event in self.events]


__all__ = [
    "DetectionEvent",
    "HeartbeatMonitor",
    "LeaseGatedSupervision",
    "SUPERVISOR_ADDRESS",
]
