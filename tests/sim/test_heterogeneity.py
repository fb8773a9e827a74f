"""Power-law population model tests (Section 6.2 conjecture machinery)."""

import pytest

from repro.core.clock import DAY, HOUR
from repro.sim.config import SimConfig
from repro.sim.engine import FastSimulation
from tests.sim.reference import Simulation

FAST = dict(n_peers=40, duration=1 * DAY, renewal_period=0.4 * DAY)


def build(**overrides):
    return FastSimulation(SimConfig(**{**FAST, **overrides}))


def build_reference(**overrides):
    # The reference loop keeps per-peer candidate intervals and a payee
    # sampler; the engine draws from one global stream and has neither.
    return Simulation(SimConfig(**{**FAST, **overrides}))


class TestPopulationModel:
    def test_uniform_is_homogeneous(self):
        sim = build_reference(heterogeneity="uniform")
        assert len(set(sim._mean_offline)) == 1
        assert len(set(sim._interval)) == 1
        assert sim._payee_cum is None

    def test_powerlaw_is_heterogeneous(self):
        sim = build_reference(heterogeneity="powerlaw", seed=5)
        assert len(set(sim._mean_offline)) > 1
        assert len(set(sim._interval)) > 1
        assert sim._payee_cum is not None

    def test_availability_bounds(self):
        sim = build_reference(heterogeneity="powerlaw", superpeer_max_availability=0.95)
        base = sim.config.availability
        for a in sim._availability:
            assert base - 1e-9 <= a <= 0.95 + 1e-9
        assert max(sim._availability) == pytest.approx(0.95)

    def test_aggregate_candidate_rate_preserved(self):
        # Distributing the rate by weight keeps the total at n per interval.
        sim = build_reference(heterogeneity="powerlaw", seed=7)
        total_rate = sum(1.0 / i for i in sim._interval)
        uniform_rate = sim.config.n_peers / sim.config.payment_interval
        assert total_rate == pytest.approx(uniform_rate, rel=1e-9)

    def test_offline_means_realize_availability(self):
        sim = build_reference(heterogeneity="powerlaw", seed=9)
        for mean_on, mean_off, a in zip(sim._mean_online, sim._mean_offline, sim._availability):
            assert mean_on / (mean_on + mean_off) == pytest.approx(a)

    def test_invalid_heterogeneity_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(heterogeneity="bimodal")
        with pytest.raises(ValueError):
            SimConfig(superpeer_max_availability=1.5)


class TestPowerlawBehaviour:
    def test_payee_selection_skewed(self):
        sim = build_reference(heterogeneity="powerlaw", zipf_exponent=1.2, seed=11)
        counts = [0] * sim.config.n_peers
        for _ in range(4000):
            counts[sim._pick_payee(0)] += 1
        top = max(counts)
        median = sorted(counts)[len(counts) // 2]
        assert top > 5 * max(median, 1)  # heavy head

    def test_payee_never_self(self):
        sim = build_reference(heterogeneity="powerlaw", seed=13)
        for payer in (0, 5, 39):
            for _ in range(200):
                assert sim._pick_payee(payer) != payer

    def test_superpeers_cut_broker_share(self):
        shares = {}
        for heterogeneity in ("uniform", "powerlaw"):
            config = SimConfig(
                n_peers=60, duration=2 * DAY, renewal_period=0.6 * DAY,
                mean_online=2 * HOUR, mean_offline=2 * HOUR,
                heterogeneity=heterogeneity, seed=17,
            )
            shares[heterogeneity] = FastSimulation(config).run().metrics.broker_cpu_share()
        assert shares["powerlaw"] < shares["uniform"]

    def test_deterministic_under_seed(self):
        a = build(heterogeneity="powerlaw", seed=19).run().metrics.ops
        b = build(heterogeneity="powerlaw", seed=19).run().metrics.ops
        assert a == b
