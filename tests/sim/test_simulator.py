"""Simulator tests: determinism, invariants, policy semantics, churn.

They run the engine that ships; the few that need the reference loop
(``tests/sim/reference.py``) say why on the line that builds it.
"""

import pytest

from repro.core.clock import DAY, HOUR
from repro.sim.config import SimConfig
from repro.sim.engine import FastSimulation
from repro.sim.policies import POLICY_I, POLICY_I_LAYERED, POLICY_II_A, POLICY_II_B, POLICY_III
from tests.sim.reference import Simulation

FAST = dict(n_peers=30, duration=1 * DAY, renewal_period=0.4 * DAY)


def run(**overrides):
    merged = {**FAST, **overrides}
    return FastSimulation(SimConfig(**merged)).run()


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = run(seed=7)
        b = run(seed=7)
        assert a.metrics.ops == b.metrics.ops
        assert a.metrics.payments_made == b.metrics.payments_made

    def test_different_seed_different_result(self):
        a = run(seed=1)
        b = run(seed=2)
        assert a.metrics.ops != b.metrics.ops


class TestInvariants:
    """The reference loop's coin and peer objects; :class:`TestEngineInvariants`
    states the same invariants over the engine's columns."""

    def test_coin_conservation(self):
        sim = Simulation(SimConfig(**FAST, policy=POLICY_III, initial_balance=3, seed=11))
        result = sim.run()
        metrics = result.metrics
        live = sum(1 for coin in sim.coins if not coin.retired)
        assert metrics.coins_created - metrics.coins_retired == live
        assert metrics.ops["purchase"] == metrics.coins_created
        assert metrics.ops["deposit"] == metrics.coins_retired

    def test_every_live_coin_held_by_exactly_one_peer(self):
        sim = Simulation(SimConfig(**FAST, seed=13))
        sim.run()
        holdings = {}
        for index, peer in enumerate(sim.peers):
            for coin_id in peer.wallet:
                assert coin_id not in holdings, "coin held twice"
                holdings[coin_id] = index
        for coin in sim.coins:
            if not coin.retired:
                assert holdings.get(coin.id) == coin.holder

    def test_unissued_coins_never_transferred(self):
        sim = Simulation(SimConfig(**FAST, seed=17))
        sim.run()
        for peer in sim.peers:
            for coin_id in peer.unissued:
                coin = sim.coins[coin_id]
                assert not coin.issued
                assert coin.holder == coin.owner

    def test_payment_accounting(self):
        metrics = run(seed=19).metrics
        assert metrics.payments_made + metrics.payments_failed <= metrics.payments_attempted
        assert sum(metrics.payments_by_method.values()) == metrics.payments_made

    def test_money_conservation_with_budget(self):
        sim = Simulation(SimConfig(**FAST, initial_balance=5, seed=23))
        sim.run()
        total = sum(p.balance for p in sim.peers) + sum(
            1 for c in sim.coins if not c.retired
        )
        assert total == 5 * len(sim.peers)


class TestEngineInvariants:
    """Value and custody invariants over :class:`FastSimulation`'s columns.

    The plain merge loop never appends ``_c_retired`` (nothing retires
    there), so a coin past its end is read as not retired.
    """

    CONFIGS = (
        {},
        dict(policy=POLICY_III, initial_balance=3),
        dict(policy=POLICY_II_A, initial_balance=5, sync_mode="lazy"),
        dict(policy=POLICY_I_LAYERED, max_layers=3, heterogeneity="powerlaw"),
        dict(initial_balance=4, detection=True, broker_restarts=2),
    )

    @pytest.mark.parametrize("use_numpy", [True, False])
    @pytest.mark.parametrize("overrides", CONFIGS)
    def test_custody_and_value_are_conserved(self, overrides, use_numpy):
        if use_numpy:
            pytest.importorskip("numpy", reason="numpy not installed; only the fallback path exists")
        config = SimConfig(**FAST, seed=11, **overrides)
        sim = FastSimulation(config, use_numpy=use_numpy)
        metrics = sim.run().metrics
        retired = sim._c_retired
        live = [c for c in range(sim._n_coins) if c >= len(retired) or not retired[c]]
        holdings = {}
        for index, wallet in enumerate(sim._wallets):
            for coin in wallet:
                assert coin not in holdings, "coin held twice"
                holdings[coin] = index
        assert holdings == {coin: sim._c_holder[coin] for coin in live}
        assert metrics.coins_created - metrics.coins_retired == len(live)
        if config.initial_balance is not None:
            total = sum(sim._balance) + len(live) * config.coin_value
            assert total == config.initial_balance * config.n_peers


class TestPolicySemantics:
    def test_policy_i_uses_downtime_transfers(self):
        metrics = run(policy=POLICY_I, seed=29).metrics
        assert metrics.ops["downtime_transfer"] > 0
        assert metrics.ops["deposit"] == 0

    def test_policy_iii_avoids_downtime_transfers(self):
        metrics = run(policy=POLICY_III, seed=29).metrics
        assert metrics.ops["downtime_transfer"] == 0

    def test_policy_iii_deposits_under_budget(self):
        metrics = run(policy=POLICY_III, initial_balance=2, seed=31).metrics
        assert metrics.ops["deposit"] > 0  # recycling fires once budgets drain

    def test_policy_ii_between_i_and_iii(self):
        # The reference loop: a one-seed ordering, pinned on its realization.
        broker_cpu = {}
        for policy in (POLICY_I, POLICY_II_A, POLICY_II_B, POLICY_III):
            config = SimConfig(**{**FAST, "n_peers": 60, "duration": 2 * DAY}, policy=policy, seed=37)
            metrics = Simulation(config).run().metrics
            broker_cpu[policy.name] = metrics.broker_cpu_load()
        assert broker_cpu["III"] <= broker_cpu["II.a"] <= broker_cpu["I"]
        assert broker_cpu["III"] <= broker_cpu["II.b"] <= broker_cpu["I"]

    def test_transfers_dominate_peer_load(self):
        # Paper Section 6.2: "under all configurations, transfers dominate
        # peer load".
        metrics = run(seed=41, n_peers=60, duration=2 * DAY).metrics
        peer_ops = metrics.peer_op_counts_avg()
        assert peer_ops["transfer"] == max(peer_ops.values())


class TestSyncModes:
    def test_proactive_counts_one_sync_per_rejoin(self):
        sim = FastSimulation(SimConfig(**FAST, sync_mode="proactive", seed=43))
        result = sim.run()
        assert result.metrics.ops["sync"] > 0
        assert result.metrics.ops["check"] == 0

    def test_lazy_has_no_syncs_but_checks(self):
        metrics = run(sync_mode="lazy", seed=43).metrics
        assert metrics.ops["sync"] == 0
        assert metrics.ops["check"] > 0
        assert metrics.ops["lazy_sync"] <= metrics.ops["check"]

    def test_lazy_reduces_broker_load(self):
        pro = run(sync_mode="proactive", seed=47).metrics.broker_cpu_load()
        lazy = run(sync_mode="lazy", seed=47).metrics.broker_cpu_load()
        assert lazy < pro


class TestChurnEffects:
    def test_higher_availability_more_payments(self):
        low = run(mean_online=0.5 * HOUR, mean_offline=2 * HOUR, seed=53).metrics
        high = run(mean_online=8 * HOUR, mean_offline=2 * HOUR, seed=53).metrics
        assert high.payments_made > low.payments_made

    def test_full_availability_never_touches_downtime_paths(self):
        # With peers (almost) always online, downtime ops vanish.
        metrics = run(
            mean_online=1000 * HOUR, mean_offline=0.001 * HOUR, seed=59
        ).metrics
        assert metrics.ops["downtime_transfer"] == 0
        assert metrics.ops["downtime_renewal"] == 0

    def test_renewals_happen(self):
        metrics = run(seed=61).metrics
        assert metrics.ops["renewal"] + metrics.ops["downtime_renewal"] > 0

    def test_payer_gating_flag(self):
        gated = run(require_payer_online=True, seed=67).metrics
        ungated = run(require_payer_online=False, seed=67).metrics
        assert ungated.payments_made > gated.payments_made


class TestConfigValidation:
    def test_rejects_bad_sync_mode(self):
        with pytest.raises(ValueError):
            SimConfig(sync_mode="sometimes")

    def test_rejects_tiny_network(self):
        with pytest.raises(ValueError):
            SimConfig(n_peers=1)

    def test_rejects_nonpositive_durations(self):
        with pytest.raises(ValueError):
            SimConfig(duration=0)
        with pytest.raises(ValueError):
            SimConfig(mean_online=-1)

    def test_availability_formula(self):
        config = SimConfig(mean_online=2 * HOUR, mean_offline=6 * HOUR)
        assert config.availability == pytest.approx(0.25)

    def test_describe_mentions_key_params(self):
        text = SimConfig().describe()
        assert "policy=I" in text and "sync=proactive" in text


class TestBrokerRestarts:
    def test_default_run_models_no_restarts(self):
        metrics = run(seed=7).metrics
        assert metrics.broker_restarts == 0
        assert metrics.snapshots_taken == 0
        assert metrics.recovery_replay_cost == 0.0

    def test_restarts_add_replay_cost_without_changing_the_op_mix(self):
        from repro.sim.costs import BROKER_OPS, REPLAY_RECORD_COST

        # The reference loop: on the engine a restart switches the merge
        # loop, and so the realization (docs/SIMULATOR.md, the fork table).
        base = Simulation(SimConfig(**FAST, seed=7)).run().metrics
        restarted = Simulation(SimConfig(**FAST, seed=7, broker_restarts=3)).run().metrics
        assert restarted.ops == base.ops  # retries hide the outage from clients
        assert restarted.broker_restarts == 3
        assert restarted.snapshots_taken == 3
        assert restarted.recovery_records_replayed > 0
        assert restarted.recovery_replay_cost == (
            restarted.recovery_records_replayed * REPLAY_RECORD_COST
        )
        assert restarted.broker_cpu_load() == pytest.approx(
            base.broker_cpu_load() + restarted.recovery_replay_cost
        )
        # Compaction snapshots reset the backlog: total replay never exceeds
        # the broker's whole journal.
        total_broker_ops = sum(restarted.ops[op] for op in BROKER_OPS)
        assert restarted.recovery_records_replayed <= total_broker_ops

    def test_restart_modeling_is_deterministic(self):
        a = run(seed=7, broker_restarts=2).metrics
        b = run(seed=7, broker_restarts=2).metrics
        assert a.recovery_records_replayed == b.recovery_records_replayed
        assert a.broker_cpu_load() == b.broker_cpu_load()

    def test_rejects_negative_restarts(self):
        with pytest.raises(ValueError):
            SimConfig(broker_restarts=-1)
