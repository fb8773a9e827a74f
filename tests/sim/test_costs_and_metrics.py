"""Cost-model and metrics tests (Tables 2/3 wiring, Figures 6-11 math)."""

import pytest

from repro.sim.costs import BROKER_OPS, MICRO_COST, OP_COSTS, PEER_OPS
from repro.sim.metrics import SimMetrics


class TestTable3Weights:
    def test_paper_relative_costs(self):
        # Table 3, verbatim.
        assert MICRO_COST["keygen"] == 1
        assert MICRO_COST["sig"] == 2
        assert MICRO_COST["ver"] == 2
        assert MICRO_COST["gsig"] == 4
        assert MICRO_COST["gver"] == 4

    def test_transfer_matches_papers_statement(self):
        # "each transfer involves 1 key pair generation, 4 signature
        # generations, 4 signature verifications, 1 group signature
        # generation, and 1 group signature verification" (peers).
        transfer = OP_COSTS["transfer"]
        assert transfer.peer_micro == {"keygen": 1, "sig": 4, "ver": 4, "gsig": 1, "gver": 1}
        assert transfer.broker_micro == {}
        assert transfer.peer_cpu == 1 + 8 + 8 + 4 + 4

    def test_broker_free_operations(self):
        for op in ("issue", "transfer", "renewal", "check", "lazy_sync"):
            assert OP_COSTS[op].broker_cpu == 0
            assert OP_COSTS[op].broker_msgs == 0

    def test_broker_ops_have_broker_cost(self):
        for op in ("purchase", "deposit", "downtime_transfer", "downtime_renewal", "sync"):
            assert OP_COSTS[op].broker_cpu > 0
            assert OP_COSTS[op].broker_msgs > 0

    def test_op_lists_cover_table(self):
        assert set(BROKER_OPS) <= set(OP_COSTS)
        assert set(PEER_OPS) <= set(OP_COSTS)


class TestMetricsMath:
    def make(self):
        metrics = SimMetrics(n_peers=10)
        metrics.count("transfer", 100)
        metrics.count("purchase", 10)
        metrics.count("sync", 5)
        return metrics

    def test_counts(self):
        metrics = self.make()
        assert metrics.ops["transfer"] == 100
        assert metrics.broker_op_counts()["purchase"] == 10
        assert metrics.peer_op_counts_avg()["transfer"] == 10.0

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            SimMetrics(n_peers=1).count("teleport")

    def test_cpu_loads(self):
        metrics = self.make()
        expected_broker = 10 * OP_COSTS["purchase"].broker_cpu + 5 * OP_COSTS["sync"].broker_cpu
        assert metrics.broker_cpu_load() == expected_broker
        expected_peer = (
            100 * OP_COSTS["transfer"].peer_cpu
            + 10 * OP_COSTS["purchase"].peer_cpu
            + 5 * OP_COSTS["sync"].peer_cpu
        )
        assert metrics.peer_cpu_load_total() == expected_peer

    def test_ratios_and_shares(self):
        metrics = self.make()
        ratio = metrics.cpu_load_ratio()
        share = metrics.broker_cpu_share()
        assert ratio == pytest.approx(
            metrics.broker_cpu_load() / (metrics.peer_cpu_load_total() / 10)
        )
        assert share == pytest.approx(
            metrics.broker_cpu_load()
            / (metrics.broker_cpu_load() + metrics.peer_cpu_load_total())
        )
        assert 0 < share < 1

    def test_comm_loads(self):
        metrics = self.make()
        assert metrics.broker_comm_load() == 10 * 2 + 5 * 4
        assert metrics.peer_comm_load_total() == 100 * 12 + 10 * 2 + 5 * 4

    def test_empty_metrics(self):
        metrics = SimMetrics(n_peers=4)
        assert metrics.broker_cpu_load() == 0
        assert metrics.broker_cpu_share() == 0.0


class TestRetryOverhead:
    def test_expected_attempts_math(self):
        from repro.sim.costs import expected_attempts

        assert expected_attempts(0.0, 6) == 1.0
        # Truncated geometric mean: (1 - p^n) / (1 - p).
        assert expected_attempts(0.5, 2) == pytest.approx(1.5)
        assert expected_attempts(0.1, 6) == pytest.approx((1 - 0.1**6) / 0.9)
        # More retry budget can only add attempts; loss-free adds none.
        assert expected_attempts(0.2, 8) > expected_attempts(0.2, 2)
        with pytest.raises(ValueError):
            expected_attempts(1.0, 3)
        with pytest.raises(ValueError):
            expected_attempts(0.1, 0)

    def test_msg_overhead_scales_comm_not_cpu(self):
        metrics = SimMetrics(n_peers=10, msg_overhead=1.25)
        metrics.count("purchase", 8)
        base_broker = 8 * OP_COSTS["purchase"].broker_msgs
        base_peer = 8 * OP_COSTS["purchase"].peer_msgs
        assert metrics.broker_comm_load() == pytest.approx(1.25 * base_broker)
        assert metrics.peer_comm_load_total() == pytest.approx(1.25 * base_peer)
        # CPU unaffected: handlers run once thanks to idempotent dedupe.
        assert metrics.broker_cpu_load() == 8 * OP_COSTS["purchase"].broker_cpu

    def test_simulation_wires_loss_into_overhead(self):
        from repro.sim.config import SimConfig
        from repro.sim.costs import expected_attempts
        from repro.sim.engine import FastSimulation

        config = SimConfig(n_peers=4, message_loss=0.1, rpc_max_attempts=6)
        sim = FastSimulation(config)
        assert sim.metrics.msg_overhead == pytest.approx(expected_attempts(0.1, 6))
        with pytest.raises(ValueError):
            SimConfig(n_peers=4, message_loss=1.5)
        with pytest.raises(ValueError):
            SimConfig(n_peers=4, rpc_max_attempts=0)
