"""Failure-detection tradeoff curves for the self-healing federation.

The PR 9 acceptance artifact.  A 3-shard federation runs under
:class:`LeaseGatedSupervision` on pure virtual time; for each heartbeat
interval the phi threshold is swept and two quantities are measured:

* **detection latency** — a shard is killed outright (no faults) and the
  virtual time from its last heartbeat to the detector-driven restart is
  recorded.  Grows with the threshold (and with the interval: fewer
  beats per second means coarser evidence of silence).
* **false-positive pressure** — nobody dies, but the fault plan drops a
  third of all heartbeat requests.  ``dead_verdicts`` counts detector
  transitions to DEAD on a *live* shard; ``spurious_restarts`` counts
  the (far rarer) verdicts that also outlived the shard's lease and
  actually triggered a restart — the lease gate is the second line of
  defense the curve makes visible.

Low thresholds detect fast but cry wolf under loss; high thresholds are
quiet but slow.  The curves quantify that tradeoff so a deployment can
pick its operating point; the chaos suite pins the window the default
configuration guarantees.

Entry points:

* ``python benchmarks/bench_liveness.py`` — full sweep; writes
  ``benchmarks/out/BENCH_liveness.json``.
* ``--quick`` — CI smoke: fewer thresholds/seeds, shorter horizon,
  writes ``BENCH_liveness_quick.json``.

Everything runs on the virtual clock, so the artifact is deterministic
per seed regardless of host speed.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from _common import report_main

from repro.core.network import BrokerTopology, WhoPayNetwork
from repro.core.supervision import LeaseGatedSupervision
from repro.crypto.params import PARAMS_TEST_512
from repro.net.liveness import DEAD, LivenessConfig
from repro.net.transport import FaultPlan

SHARDS = 3
LEASE = 2.0
HEARTBEAT_LOSS = 0.35  # FP-run request loss: harsh enough to stress phi
INTERVALS = (0.25, 0.5, 1.0)
THRESHOLDS_FULL = (1.0, 2.0, 4.0, 6.0)
THRESHOLDS_QUICK = (1.0, 4.0, 6.0)
FP_SEEDS_FULL = (11, 12, 13)
FP_SEEDS_QUICK = (11,)
FP_HORIZON_FULL = 120.0  # virtual seconds of lossy, kill-free heartbeating
FP_HORIZON_QUICK = 60.0


def build_net(store_dir, config: LivenessConfig):
    net = WhoPayNetwork(
        params=PARAMS_TEST_512,
        store_dir=store_dir,
        topology=BrokerTopology(shards=SHARDS),
    )
    policy = net.supervise_broker(LeaseGatedSupervision(config))
    return net, policy


def measure_detection_latency(store_dir, config: LivenessConfig) -> float:
    """Kill one shard on a clean fabric; return silence-to-restart latency."""
    net, policy = build_net(store_dir, config)
    tick = config.heartbeat_interval
    for _ in range(8):  # warm the detector with real inter-arrival gaps
        net.advance(tick)
    net.kill_shard(1)
    budget = int((config.detection_window() + config.lease_duration) / tick) + 8
    for _ in range(budget):
        net.advance(tick)
        if policy.events:
            break
    assert policy.events, "kill was never detected"
    return policy.detection_latencies()[0]


def measure_false_positives(store_dir, config: LivenessConfig, seed: int, horizon: float):
    """Lossy heartbeats, no kills: count DEAD verdicts and spurious restarts."""
    net, policy = build_net(store_dir, config)
    net.install_faults(FaultPlan(seed=seed, request_loss=HEARTBEAT_LOSS))
    tick = config.heartbeat_interval
    addresses = [shard.address for shard in net.shards]
    was_dead = {address: False for address in addresses}
    dead_verdicts = 0
    restarts_seen = 0
    steps = int(horizon / tick)
    for _ in range(steps):
        now = net.advance(tick)
        # A restart consumes its DEAD verdict inside the tick (failover
        # resets the detector before we sample), so credit those first.
        for event in policy.events[restarts_seen:]:
            if not was_dead[event.address]:
                dead_verdicts += 1
            was_dead[event.address] = False
        restarts_seen = len(policy.events)
        for address in addresses:
            dead = policy.detector.state(address, now) == DEAD
            if dead and not was_dead[address]:
                dead_verdicts += 1
            was_dead[address] = dead
    return {
        "dead_verdicts": dead_verdicts,
        "spurious_restarts": len(policy.events),
        "beats_sent": policy.beats_sent,
        "beats_missed": policy.beats_missed,
    }


def run_sweep(quick: bool) -> dict:
    thresholds = THRESHOLDS_QUICK if quick else THRESHOLDS_FULL
    fp_seeds = FP_SEEDS_QUICK if quick else FP_SEEDS_FULL
    horizon = FP_HORIZON_QUICK if quick else FP_HORIZON_FULL
    curves = []
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        run = 0
        for interval in INTERVALS:
            points = []
            for threshold in thresholds:
                config = LivenessConfig(
                    heartbeat_interval=interval,
                    phi_threshold=threshold,
                    lease_duration=LEASE,
                )
                run += 1
                latency = measure_detection_latency(scratch / f"lat{run}", config)
                bound = max(config.detection_window(), LEASE) + 2 * interval
                assert 0.0 < latency <= bound, (interval, threshold, latency)
                fp = {"dead_verdicts": 0, "spurious_restarts": 0, "beats_sent": 0, "beats_missed": 0}
                for seed in fp_seeds:
                    run += 1
                    one = measure_false_positives(scratch / f"fp{run}", config, seed, horizon)
                    for key in fp:
                        fp[key] += one[key]
                minutes = len(fp_seeds) * horizon / 60.0
                points.append(
                    {
                        "phi_threshold": threshold,
                        "detection_window": round(config.detection_window(), 3),
                        "detection_latency": round(latency, 3),
                        "dead_verdicts_per_min": round(fp["dead_verdicts"] / minutes, 3),
                        "spurious_restarts_per_min": round(fp["spurious_restarts"] / minutes, 3),
                        "beats_sent": fp["beats_sent"],
                        "beats_missed": fp["beats_missed"],
                    }
                )
            # The tradeoff must actually trade: latency rises with the
            # threshold while false-positive pressure falls.
            latencies = [p["detection_latency"] for p in points]
            verdicts = [p["dead_verdicts_per_min"] for p in points]
            assert latencies == sorted(latencies), (interval, latencies)
            assert verdicts == sorted(verdicts, reverse=True), (interval, verdicts)
            curves.append({"heartbeat_interval": interval, "points": points})
            print(f"interval={interval}s")
            for point in points:
                print(
                    f"  phi>={point['phi_threshold']:>4}: "
                    f"latency={point['detection_latency']:>6.2f}s "
                    f"window<={point['detection_window']:>6.2f}s "
                    f"dead_verdicts/min={point['dead_verdicts_per_min']:>6.2f} "
                    f"spurious_restarts/min={point['spurious_restarts_per_min']:>5.2f}"
                )
    return {
        "artifact": "liveness detection-latency vs false-positive tradeoff",
        "shards": SHARDS,
        "lease_duration": LEASE,
        "heartbeat_request_loss": HEARTBEAT_LOSS,
        "fp_horizon_virtual_s": horizon,
        "fp_seeds": list(fp_seeds),
        "curves": curves,
    }


if __name__ == "__main__":
    report_main("BENCH_liveness", run_sweep, __doc__)
