"""Per-peer load tracking tests."""

import pytest

from repro.core.clock import DAY, HOUR
from repro.sim.config import SimConfig
from repro.sim.engine import FastSimulation
from tests.sim.reference import Simulation

FAST = dict(
    n_peers=30, duration=1 * DAY, renewal_period=0.4 * DAY,
    mean_online=2 * HOUR, mean_offline=2 * HOUR,
)


class TestTracking:
    def test_disabled_by_default(self):
        metrics = FastSimulation(SimConfig(**FAST)).run().metrics
        assert not metrics.per_peer_served
        assert not metrics.per_peer_payments

    def test_served_totals_match_op_counts(self):
        metrics = FastSimulation(SimConfig(**FAST, track_per_peer=True, seed=3)).run().metrics
        served_total = sum(metrics.per_peer_served.values())
        # Owner-served work = issues + owner-served transfers + renewals.
        expected = metrics.ops["issue"] + metrics.ops["transfer"] + metrics.ops["renewal"]
        assert served_total == expected

    def test_payment_totals_match(self):
        metrics = FastSimulation(SimConfig(**FAST, track_per_peer=True, seed=5)).run().metrics
        assert sum(metrics.per_peer_payments.values()) == metrics.payments_made

    def test_distribution_dense_over_peers(self):
        metrics = FastSimulation(SimConfig(**FAST, track_per_peer=True, seed=7)).run().metrics
        distribution = metrics.served_distribution()
        assert len(distribution) == 30
        assert all(v >= 0 for v in distribution)
        assert sum(distribution) == sum(metrics.per_peer_served.values())

    def test_tracking_does_not_change_results(self):
        # The reference loop: on the engine tracking switches the merge loop,
        # and so the realization (docs/SIMULATOR.md, the fork table).
        a = Simulation(SimConfig(**FAST, track_per_peer=False, seed=11)).run().metrics
        b = Simulation(SimConfig(**FAST, track_per_peer=True, seed=11)).run().metrics
        assert a.ops == b.ops
        assert a.payments_made == b.payments_made

    def test_powerlaw_concentrates_work(self):
        cfg = dict(FAST, n_peers=50, duration=2 * DAY, track_per_peer=True, seed=13)
        uniform = FastSimulation(SimConfig(**cfg, heterogeneity="uniform")).run().metrics
        powerlaw = FastSimulation(SimConfig(**cfg, heterogeneity="powerlaw")).run().metrics

        def top_share(metrics):
            dist = sorted(metrics.served_distribution(), reverse=True)
            total = sum(dist) or 1
            return sum(dist[:5]) / total

        assert top_share(powerlaw) > top_share(uniform)
