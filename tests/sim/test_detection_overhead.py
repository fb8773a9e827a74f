"""Op-level detection overhead tests (SimConfig.detection)."""

import pytest

from repro.core.clock import DAY, HOUR
from repro.sim.config import SimConfig
from repro.sim.engine import FastSimulation
from tests.sim.reference import Simulation

FAST = dict(
    n_peers=40, duration=1 * DAY, renewal_period=0.4 * DAY,
    mean_online=2 * HOUR, mean_offline=2 * HOUR,
)


class TestDetectionModel:
    def test_disabled_by_default(self):
        metrics = FastSimulation(SimConfig(**FAST, seed=1)).run().metrics
        assert metrics.ops["dht_publish"] == 0
        assert metrics.ops["dht_read"] == 0

    def test_publish_per_binding_update(self):
        metrics = FastSimulation(SimConfig(**FAST, detection=True, seed=1)).run().metrics
        updates = (
            metrics.ops["issue"]
            + metrics.ops["transfer"]
            + metrics.ops["renewal"]
            + metrics.ops["downtime_transfer"]
            + metrics.ops["downtime_renewal"]
        )
        assert metrics.ops["dht_publish"] == updates

    def test_read_per_payment_acceptance(self):
        metrics = FastSimulation(SimConfig(**FAST, detection=True, seed=1)).run().metrics
        acceptances = (
            metrics.ops["issue"] + metrics.ops["transfer"] + metrics.ops["downtime_transfer"]
        )
        assert metrics.ops["dht_read"] == acceptances

    def test_detection_does_not_change_the_protocol_mix(self):
        # The reference loop: on the engine detection switches the merge
        # loop, and so the realization (docs/SIMULATOR.md, the fork table).
        off = Simulation(SimConfig(**FAST, detection=False, seed=3)).run().metrics
        on = Simulation(SimConfig(**FAST, detection=True, seed=3)).run().metrics
        for op in ("purchase", "issue", "transfer", "renewal", "downtime_transfer"):
            assert off.ops[op] == on.ops[op], op

    def test_overhead_is_peer_side_only(self):
        # The reference loop, for the same reason: equal broker load needs
        # one realization with and without detection.
        off = Simulation(SimConfig(**FAST, detection=False, seed=5)).run().metrics
        on = Simulation(SimConfig(**FAST, detection=True, seed=5)).run().metrics
        assert on.broker_cpu_load() == off.broker_cpu_load()
        assert on.broker_comm_load() == off.broker_comm_load()
        assert on.peer_comm_load_total() > off.peer_comm_load_total()
        # Detection therefore LOWERS the broker's relative share.
        assert on.broker_cpu_share() <= off.broker_cpu_share()
