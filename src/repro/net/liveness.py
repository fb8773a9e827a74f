"""Liveness primitives: heartbeats, phi-accrual failure detection and leases.

The federation's original availability story leaned on a transport trick —
``set_crash_handler`` restarts a shard synchronously *before* the in-flight
sender sees a reply — which no real deployment has.  This module supplies
the mechanisms a real one does have:

* **Heartbeats** (:data:`HEARTBEAT`): shards emit seeded-clock beats over
  the ordinary :class:`~repro.net.rpc.RpcClient` path to a monitor node,
  which answers with its *last-seen table* so emitters gossip a shared view
  of who is alive.
* **Phi-accrual detection** (:class:`PhiAccrualDetector`): instead of a
  binary timeout, suspicion is a continuous level
  ``phi = elapsed / (mean_interarrival * ln 10)`` — the classic
  Hayashibara-style accrual statistic specialized to an exponential
  inter-arrival model, which keeps it deterministic under the virtual
  clock (no variance estimation, no wall-clock noise).  ``phi`` crossing a
  configurable threshold marks the endpoint dead.
* **Leases** (:class:`LeaseTable`): a restart is only safe once the dead
  shard's lease has lapsed; a slow-but-alive shard whose beats still renew
  the lease is never double-driven.

Everything here runs on the simulation's virtual clock and seeded RNGs —
no wall time, no process entropy — so chaos runs replay bit-identically.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

#: Wire kind for shard-to-monitor heartbeats.  Payload:
#: ``{"seq": int, "now": float}`` (the emitter's virtual send time); reply:
#: ``{"ok": True, "last_seen": {address: float}}`` — the monitor's gossip
#: table, merged by the emitter into its own view.
HEARTBEAT = "liveness.heartbeat"

LN10 = math.log(10.0)

#: Detector states (see :meth:`PhiAccrualDetector.state`).
ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"


@dataclass(frozen=True)
class LivenessConfig:
    """Deterministic, test-controllable liveness parameters.

    ``phi_threshold`` is the accrual level at which an endpoint is declared
    dead; ``suspect_fraction`` of it marks the earlier SUSPECT state.
    ``mean_ceiling`` caps the detector's inter-arrival estimate at
    ``heartbeat_interval * mean_ceiling`` so lost beats cannot inflate the
    mean without bound — it is what makes :meth:`detection_window` a hard
    guarantee rather than an expectation.
    """

    heartbeat_interval: float = 0.5
    phi_threshold: float = 4.0
    window: int = 16
    lease_duration: float = 2.0
    suspect_fraction: float = 0.5
    mean_ceiling: float = 2.0

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.phi_threshold <= 0:
            raise ValueError("phi_threshold must be positive")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.lease_duration <= 0:
            raise ValueError("lease_duration must be positive")
        if not 0.0 < self.suspect_fraction < 1.0:
            raise ValueError("suspect_fraction must be in (0, 1)")
        if self.mean_ceiling < 1.0:
            raise ValueError("mean_ceiling must be >= 1")

    def detection_window(self) -> float:
        """Worst-case virtual seconds from last beat to a DEAD verdict.

        ``phi`` reaches the threshold once ``elapsed >= phi_threshold *
        ln(10) * mean`` and the mean estimate is capped at
        ``heartbeat_interval * mean_ceiling``, so this bound holds for any
        arrival history.  Callers add their own polling quantum on top.
        """
        return self.phi_threshold * LN10 * self.heartbeat_interval * self.mean_ceiling


class PhiAccrualDetector:
    """Accrual failure detector over heartbeat arrival times.

    Tracks, per monitored address, the last arrival and a sliding window of
    inter-arrival gaps.  Suspicion ``phi(address, now)`` grows continuously
    with silence; :meth:`state` quantizes it to ALIVE / SUSPECT / DEAD.
    Deterministic by construction: the only inputs are the virtual
    timestamps fed to :meth:`observe`.
    """

    def __init__(self, config: LivenessConfig) -> None:
        self.config = config
        self._last: dict[str, float] = {}
        self._gaps: dict[str, deque[float]] = {}
        self.observations = 0

    def monitored(self) -> list[str]:
        """Addresses under watch, in sorted (deterministic) order."""
        return sorted(self._last)

    def expect(self, address: str, now: float) -> None:
        """Start monitoring ``address`` with a synthetic arrival at ``now``."""
        if address not in self._last:
            self._last[address] = now
            self._gaps[address] = deque(maxlen=self.config.window)

    def forget(self, address: str) -> None:
        """Stop monitoring ``address`` (e.g. a decommissioned shard)."""
        self._last.pop(address, None)
        self._gaps.pop(address, None)

    def observe(self, address: str, now: float) -> None:
        """Record a heartbeat arrival from ``address`` at virtual ``now``."""
        self.observations += 1
        previous = self._last.get(address)
        if previous is None:
            self.expect(address, now)
            return
        if now > previous:
            self._gaps[address].append(now - previous)
            self._last[address] = now

    def reset(self, address: str, now: float) -> None:
        """Forget history after a restart: fresh baseline, empty window."""
        self.forget(address)
        self.expect(address, now)

    def last_seen(self, address: str) -> float | None:
        """Virtual time of the last arrival (or synthetic baseline)."""
        return self._last.get(address)

    def mean_interval(self, address: str) -> float:
        """Bounded inter-arrival estimate: window mean, floored at the
        configured interval and capped at ``interval * mean_ceiling``."""
        interval = self.config.heartbeat_interval
        gaps = self._gaps.get(address)
        mean = sum(gaps) / len(gaps) if gaps else interval
        return min(max(mean, interval), interval * self.config.mean_ceiling)

    def phi(self, address: str, now: float) -> float:
        """Suspicion level for ``address`` at virtual ``now`` (0 = fresh)."""
        last = self._last.get(address)
        if last is None:
            return 0.0
        elapsed = max(now - last, 0.0)
        return elapsed / (self.mean_interval(address) * LN10)

    def state(self, address: str, now: float) -> str:
        """Quantized verdict: ALIVE, SUSPECT, or DEAD."""
        level = self.phi(address, now)
        if level >= self.config.phi_threshold:
            return DEAD
        if level >= self.config.phi_threshold * self.config.suspect_fraction:
            return SUSPECT
        return ALIVE

    def snapshot(self) -> dict[str, float]:
        """The last-seen table, for gossip replies (sorted for determinism)."""
        return {address: self._last[address] for address in sorted(self._last)}

    def merge(self, table: dict[str, float]) -> None:
        """Fold a gossiped last-seen table into this view (freshest wins)."""
        for address in sorted(table):
            seen = float(table[address])
            known = self._last.get(address)
            if known is None:
                self.expect(address, seen)
            elif seen > known:
                self.observe(address, seen)


class LeaseTable:
    """Per-address liveness leases, renewed by heartbeat arrivals.

    The failover gate: a shard declared dead by the detector may still be
    restarted only after its lease has lapsed.  A slow-but-alive shard
    whose occasional beats keep renewing the lease is therefore never
    double-driven, however suspicious the detector gets.
    """

    def __init__(self, duration: float) -> None:
        if duration <= 0:
            raise ValueError("lease duration must be positive")
        self.duration = duration
        self._expires: dict[str, float] = {}

    def renew(self, address: str, now: float) -> float:
        """Extend ``address``'s lease to ``now + duration``; returns expiry."""
        expires = now + self.duration
        if expires > self._expires.get(address, float("-inf")):
            self._expires[address] = expires
        return self._expires[address]

    def expires_at(self, address: str) -> float | None:
        """Current expiry, or ``None`` if no lease was ever granted."""
        return self._expires.get(address)

    def expired(self, address: str, now: float) -> bool:
        """True iff the lease has lapsed (an unknown address is lapsed)."""
        expires = self._expires.get(address)
        return expires is None or now >= expires


__all__ = [
    "ALIVE",
    "DEAD",
    "HEARTBEAT",
    "LN10",
    "LeaseTable",
    "LivenessConfig",
    "PhiAccrualDetector",
    "SUSPECT",
]
