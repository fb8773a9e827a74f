"""Golden regression pins: fixed-seed runs must not drift silently.

The figure benches assert *shapes*; these tests pin exact operation counts
for fixed seeds of the reference loop (``tests/sim/reference.py``), so an
accidental semantic change to the oracle (event ordering, policy logic,
renewal scheduling) fails loudly instead of silently moving the target the
engine is held to.  The engine's own pins are the committed figure rows
(``test_engine_equivalence``).  If a change is *intentional*, update the
constants and say why in the commit.
"""

import pytest

from repro.core.clock import DAY, HOUR
from repro.sim.config import SimConfig
from repro.sim.policies import POLICY_I, POLICY_III
from tests.sim.reference import Simulation

BASE = dict(
    n_peers=50,
    duration=2 * DAY,
    renewal_period=0.6 * DAY,
    mean_online=2 * HOUR,
    mean_offline=2 * HOUR,
    seed=1386,
)


def run(**overrides):
    return Simulation(SimConfig(**{**BASE, **overrides})).run().metrics


class TestGoldenCounts:
    def test_policy_one_proactive(self):
        metrics = run(policy=POLICY_I, sync_mode="proactive")
        golden = dict(metrics.ops)
        # Structural pins that any same-semantics run must reproduce.
        assert metrics.payments_made == sum(metrics.payments_by_method.values())
        assert golden["purchase"] == metrics.coins_created
        # Exact pins (update deliberately, with a reason):
        assert metrics.payments_made == 6794, metrics.payments_made
        assert golden["transfer"] == 5694, golden
        assert golden["downtime_transfer"] == 482, golden
        assert golden["sync"] == 598, golden
        assert golden["purchase"] == 618, golden

    def test_policy_three_lazy(self):
        metrics = run(policy=POLICY_III, sync_mode="lazy")
        golden = dict(metrics.ops)
        assert golden.get("downtime_transfer", 0) == 0
        assert metrics.payments_made == 6794, metrics.payments_made
        assert golden["transfer"] == 6042, golden
        assert golden["check"] == 2003, golden
        assert golden["lazy_sync"] == 419, golden
        assert golden.get("sync", 0) == 0

    def test_cross_policy_payment_parity(self):
        # Same seed, same workload: the policies see identical payment
        # opportunities and differ only in how they serve them.
        one = run(policy=POLICY_I).payments_made
        three = run(policy=POLICY_III).payments_made
        assert one == three
