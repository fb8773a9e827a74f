"""Sweep-runner and baseline-view tests."""

import pytest

from repro.core.clock import DAY, HOUR
from repro.sim.baseline_sim import centralized_load, ppay_load, whopay_load
from repro.sim.config import SimConfig
from repro.sim.engine import FastSimulation
from repro.sim.policies import POLICY_I
from repro.sim.runner import run_one


@pytest.fixture(scope="module")
def metrics():
    config = SimConfig(
        n_peers=40, duration=2 * DAY, renewal_period=0.6 * DAY,
        mean_online=2 * HOUR, mean_offline=2 * HOUR, seed=99,
    )
    return FastSimulation(config).run().metrics


class TestRunner:
    def test_run_one_row_shape(self):
        config = SimConfig(n_peers=20, duration=0.5 * DAY, renewal_period=0.2 * DAY)
        row = run_one(config)
        for key in (
            "mu_hours",
            "availability",
            "broker_cpu",
            "cpu_ratio",
            "broker_cpu_share",
            "broker_purchase",
            "peer_avg_transfer",
        ):
            assert key in row, key
        assert row["n_peers"] == 20
        assert row["policy"] == "I"


class TestBaselineViews:
    def test_whopay_view_matches_metrics(self, metrics):
        view = whopay_load(metrics)
        assert view.broker_cpu == metrics.broker_cpu_load()
        assert view.peer_cpu_total == metrics.peer_cpu_load_total()

    def test_ppay_cheaper_for_peers_same_broker_pattern(self, metrics):
        whopay = whopay_load(metrics)
        ppay = ppay_load(metrics)
        # No group signatures => strictly cheaper peer CPU, similar broker
        # involvement pattern (same operation routing).
        assert ppay.peer_cpu_total < whopay.peer_cpu_total
        assert ppay.broker_cpu <= whopay.broker_cpu

    def test_centralized_broker_dominates(self, metrics):
        whopay = whopay_load(metrics)
        central = centralized_load(metrics)
        # The motivating claim: the centralized design loads the broker far
        # heavier for the same workload (the gap widens with availability;
        # at this 50%-availability setup it is a bit under an order of
        # magnitude because downtime traffic keeps WhoPay's broker busy too).
        assert central.broker_cpu > 3 * whopay.broker_cpu
        assert central.broker_cpu_share > 0.2
        assert whopay.broker_cpu_share < 0.1

    def test_shares_in_unit_interval(self, metrics):
        for load in (whopay_load, ppay_load, centralized_load):
            assert 0.0 <= load(metrics).broker_cpu_share <= 1.0
