"""Property-based tests over the DHT and the simulator."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.clock import DAY, HOUR
from repro.dht.chord import ChordRing, key_to_id
from repro.net.transport import Transport
from repro.sim.config import SimConfig
from repro.sim.policies import POLICIES
from tests.sim.reference import Simulation


class TestChordProperties:
    @given(
        st.integers(min_value=1, max_value=12),
        st.lists(st.binary(min_size=1, max_size=12), min_size=1, max_size=12, unique=True),
    )
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_single_owner_and_roundtrip(self, ring_size, keys):
        transport = Transport()
        ring = ChordRing(transport, size=ring_size)
        for key in keys:
            # Consistent routing: every entry node agrees on the owner.
            owners = {node.find_successor(key_to_id(key)) for node in ring.nodes}
            assert len(owners) == 1
            assert ring.put(key, key.hex())["ok"]
        for key in keys:
            assert ring.get(key) == key.hex()

    @given(st.integers(min_value=2, max_value=10))
    @settings(max_examples=10, deadline=None)
    def test_ring_forms_a_single_cycle(self, ring_size):
        transport = Transport()
        ring = ChordRing(transport, size=ring_size)
        start = ring.nodes[0].address
        seen = [start]
        current = start
        for _ in range(ring_size):
            current = transport.node(current).successor
            if current == start:
                break
            seen.append(current)
        assert current == start
        assert len(seen) == ring_size  # every node on one cycle


sim_configs = st.builds(
    SimConfig,
    n_peers=st.integers(min_value=5, max_value=40),
    duration=st.floats(min_value=0.2 * DAY, max_value=1.0 * DAY),
    mean_online=st.floats(min_value=0.5 * HOUR, max_value=8 * HOUR),
    mean_offline=st.floats(min_value=0.5 * HOUR, max_value=8 * HOUR),
    renewal_period=st.floats(min_value=0.1 * DAY, max_value=0.5 * DAY),
    policy=st.sampled_from(sorted(POLICIES.values(), key=lambda p: p.name)),
    sync_mode=st.sampled_from(["proactive", "lazy"]),
    initial_balance=st.one_of(st.none(), st.integers(min_value=1, max_value=10)),
    heterogeneity=st.sampled_from(["uniform", "powerlaw"]),
    seed=st.integers(min_value=0, max_value=2**31),
)


class TestSimulatorInvariants:
    @given(sim_configs)
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_conservation_and_accounting(self, config):
        # The reference loop: it reads coin and peer objects
        # (tests/sim/test_simulator.py holds the engine to the same invariants).
        sim = Simulation(config)
        metrics = sim.run().metrics

        # Coin conservation: created - retired == live coins.
        live = sum(1 for coin in sim.coins if not coin.retired)
        assert metrics.coins_created - metrics.coins_retired == live
        assert metrics.ops["purchase"] == metrics.coins_created
        assert metrics.ops["deposit"] == metrics.coins_retired

        # Each live coin held by exactly one peer, consistently.
        holdings = {}
        for index, peer in enumerate(sim.peers):
            for coin_id in peer.wallet:
                assert coin_id not in holdings
                holdings[coin_id] = index
        for coin in sim.coins:
            if not coin.retired:
                assert holdings.get(coin.id) == coin.holder

        # Payment accounting closes.
        assert sum(metrics.payments_by_method.values()) == metrics.payments_made
        assert metrics.payments_made + metrics.payments_failed <= metrics.payments_attempted

        # Money conservation under a finite budget.
        if config.initial_balance is not None:
            total = sum(p.balance for p in sim.peers) + live * config.coin_value
            assert total == config.initial_balance * config.n_peers

        # Load math is finite and non-negative.
        assert metrics.broker_cpu_load() >= 0
        assert 0 <= metrics.broker_cpu_share() <= 1

        # Lazy/proactive exclusivity.
        if config.sync_mode == "proactive":
            assert metrics.ops["check"] == 0
        else:
            assert metrics.ops["sync"] == 0
            assert metrics.ops["lazy_sync"] <= metrics.ops["check"]

        # Layer cap respected.
        assert metrics.layered_depth_max <= config.max_layers
        for coin in sim.coins:
            assert coin.layers <= config.max_layers
