"""The equivalence gate between the two simulation engines.

Three layers of guarantee (see ``docs/SIMULATOR.md``):

* **fast is deterministic.**  Same seed → same metrics.
* **numpy ≡ stdlib, exactly.**  The fast engine's pure-Python fallback
  (``use_numpy=False``) replays the accelerated path draw for draw, so
  every metric must be bit-identical for every seed and every
  configuration knob.
* **fast ≡ reference, statistically.**  The fast engine consumes its
  randomness in a different (batched) order, so per-seed values differ;
  over a pool of seeds the means must agree within sampling error.

And the committed fig2–fig11 rows under ``benchmarks/out/`` are the fast
engine's own (the default engine since the flip): the text
:data:`repro.sim.figures.FIGURES` renders from a fixed-seed reduced-scale
run must equal each artefact byte for byte.
"""

from __future__ import annotations

import math
import os
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.clock import DAY, HOUR
from repro.sim.config import SimConfig, setup_b_point
from repro.sim.engine import (
    ENGINES,
    MAX_BUCKETS,
    MIN_BUCKETS,
    FastSimulation,
    bucket_count,
    build_simulation,
)
from repro.sim.figures import FIGURES, generate_all, render
from repro.sim.policies import POLICY_I_LAYERED, POLICY_II_A, POLICY_II_B, POLICY_III
from repro.sim.simulator import Simulation

OUT = Path(__file__).resolve().parents[2] / "benchmarks" / "out"

#: Small enough for a sub-second reference run, large enough that every
#: operation family (renewals, downtime traffic, syncs) actually fires.
SMALL = dict(
    n_peers=30,
    duration=1 * DAY,
    renewal_period=0.3 * DAY,
    mean_online=2 * HOUR,
    mean_offline=2 * HOUR,
)

#: Every configuration knob the engines special-case somewhere.
VARIANTS = {
    "lazy": dict(sync_mode="lazy"),
    "policy3-lazy": dict(policy=POLICY_III, sync_mode="lazy"),
    "policy2a-budget": dict(policy=POLICY_II_A, initial_balance=5),
    "policy2b-budget": dict(policy=POLICY_II_B, initial_balance=3),
    "layered": dict(policy=POLICY_I_LAYERED, max_layers=4),
    "payee-only-thinning": dict(require_payer_online=False),
    "powerlaw": dict(heterogeneity="powerlaw"),
    "per-peer-tracking": dict(track_per_peer=True),
    "lossy-links": dict(message_loss=0.1),
    "detection": dict(detection=True),
    "broker-restarts": dict(broker_restarts=2),
    # Cross-products of the knobs the figure campaign actually combines —
    # the default-engine flip routes every figure/ablation sweep through
    # the fast engine, so the equivalence gate covers the combinations,
    # not just each knob alone.
    "detection-powerlaw": dict(detection=True, heterogeneity="powerlaw"),
    "detection-lazy": dict(detection=True, sync_mode="lazy"),
    "detection-restarts": dict(detection=True, broker_restarts=2),
    "lazy-restarts-lossy": dict(
        sync_mode="lazy", broker_restarts=2, message_loss=0.1
    ),
    "layered-lazy-detection": dict(
        policy=POLICY_I_LAYERED, max_layers=4, sync_mode="lazy", detection=True
    ),
    "powerlaw-superpeer-lossy": dict(
        heterogeneity="powerlaw",
        superpeer_max_availability=0.9,
        message_loss=0.1,
    ),
    "detection-layered-powerlaw": dict(
        detection=True,
        policy=POLICY_I_LAYERED,
        max_layers=3,
        heterogeneity="powerlaw",
    ),
}


def cfg(seed: int = 1, **overrides) -> SimConfig:
    return SimConfig(**{**SMALL, "seed": seed, **overrides})


def run_metrics(config: SimConfig, engine: str):
    return build_simulation(config, engine).run().metrics


class TestBuildSimulation:
    def test_engine_names(self):
        assert ENGINES == ("reference", "fast")
        assert type(build_simulation(cfg(), "reference")) is Simulation
        assert type(build_simulation(cfg(), "fast")) is FastSimulation

    def test_default_is_fast(self, monkeypatch):
        monkeypatch.delenv("WHOPAY_SIM_ENGINE", raising=False)
        assert type(build_simulation(cfg())) is FastSimulation
        assert type(build_simulation(cfg(), None)) is FastSimulation
        assert type(build_simulation(cfg(), "")) is FastSimulation

    def test_env_override_applies_when_unspecified(self, monkeypatch):
        monkeypatch.setenv("WHOPAY_SIM_ENGINE", "reference")
        assert type(build_simulation(cfg())) is Simulation
        assert type(build_simulation(cfg(), "")) is Simulation

    def test_explicit_engine_beats_env(self, monkeypatch):
        monkeypatch.setenv("WHOPAY_SIM_ENGINE", "reference")
        assert type(build_simulation(cfg(), "fast")) is FastSimulation

    def test_unknown_engine_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown engine"):
            build_simulation(cfg(), "turbo")
        # A bogus env value surfaces the same way instead of silently
        # falling back.
        monkeypatch.setenv("WHOPAY_SIM_ENGINE", "warp")
        with pytest.raises(ValueError, match="unknown engine"):
            build_simulation(cfg())


class TestBucketCount:
    """The calendar sizing rule of the fast engine's bucket columns."""

    def test_targets_per_bucket_density(self):
        assert bucket_count(256_000, per_bucket=256) == 1002

    def test_floor_for_tiny_runs(self):
        assert bucket_count(0) == MIN_BUCKETS
        assert bucket_count(100) == MIN_BUCKETS

    def test_ceiling_for_huge_runs(self):
        assert bucket_count(10**12) == MAX_BUCKETS

    def test_monotone_in_event_count(self):
        counts = [bucket_count(float(n)) for n in (0, 10**3, 10**5, 10**7, 10**9)]
        assert counts == sorted(counts)


def fast_metrics(config: SimConfig, use_numpy: bool):
    return FastSimulation(config, use_numpy=use_numpy).run().metrics


class TestCompatBitIdentical:
    """The stdlib fallback — the fast engine's compatibility path for hosts
    without numpy — replays the accelerated path draw for draw.

    These ids gated the ``compat`` calendar-queue engine until it was
    deleted; the same seed and variant sweep now guards the one
    bit-identity claim left, the one that lets both ``FastSimulation``
    paths stay (docs/SIMULATOR.md, "Why two paths").
    """

    @pytest.fixture(autouse=True)
    def _needs_numpy(self):
        pytest.importorskip("numpy", reason="numpy not installed; only the fallback path exists")

    def test_ten_plus_seeds_identical(self):
        for seed in range(12):
            config = cfg(seed=seed)
            accelerated = fast_metrics(config, use_numpy=True)
            fallback = fast_metrics(config, use_numpy=False)
            assert fallback == accelerated, f"seed {seed}"
            assert fallback.ops == accelerated.ops
            assert fallback.payments_made == accelerated.payments_made

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_every_variant_identical(self, variant):
        config = cfg(seed=7, **VARIANTS[variant])
        assert fast_metrics(config, use_numpy=False) == fast_metrics(config, use_numpy=True)

    # 300 peers: ~5k candidates a bucket over 17 buckets, so a 2^8 chunk is
    # one bucket, 2^16 a dozen and 2^18 the whole run; an init block of 7
    # ends on a partial block and 2^15 > n is the whole population at once.
    @pytest.mark.parametrize("heterogeneity", ["uniform", "powerlaw"])
    @pytest.mark.parametrize("init_block", [1, 7, 1 << 15])
    @pytest.mark.parametrize("chunk", [1 << 8, 1 << 16, 1 << 18])
    def test_block_sizes_never_change_a_value(self, monkeypatch, chunk, init_block, heterogeneity):
        for seed in (0, 7):
            config = cfg(seed=seed, n_peers=300, heterogeneity=heterogeneity)
            expected = fast_metrics(config, use_numpy=True)
            with monkeypatch.context() as patched:
                patched.setattr(FastSimulation, "_CHUNK_CANDIDATES", chunk)
                patched.setattr(FastSimulation, "_INIT_BLOCK_PEERS", init_block)
                for use_numpy in (True, False):
                    assert fast_metrics(config, use_numpy) == expected, (seed, use_numpy)

    # 300 peers: most ids lie above CPython's small-int cache, so the
    # interned id table changes which objects the coin columns hold.
    @pytest.mark.parametrize("heterogeneity", ["uniform", "powerlaw"])
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_id_table_never_changes_a_value(self, monkeypatch, variant, heterogeneity):
        for seed in (0, 7):
            config = cfg(
                seed=seed, n_peers=300, **{"heterogeneity": heterogeneity, **VARIANTS[variant]}
            )
            runs = []
            for table_peers in (0, 1 << 16):
                with monkeypatch.context() as patched:
                    patched.setattr(FastSimulation, "_ID_TABLE_PEERS", table_peers)
                    runs.append(fast_metrics(config, use_numpy=True))
            runs.append(fast_metrics(config, use_numpy=False))
            assert runs[0] == runs[1] == runs[2], seed


class TestFastDeterministic:
    def test_same_seed_same_metrics(self):
        for seed in (0, 1, 1386):
            config = cfg(seed=seed)
            assert run_metrics(config, "fast") == run_metrics(config, "fast")

    def test_seed_actually_matters(self):
        assert run_metrics(cfg(seed=0), "fast") != run_metrics(cfg(seed=1), "fast")

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_variants_deterministic(self, variant):
        config = cfg(seed=3, **VARIANTS[variant])
        assert run_metrics(config, "fast") == run_metrics(config, "fast")

    def test_numpy_and_fallback_identical(self):
        pytest.importorskip("numpy", reason="numpy not installed; only the fallback path exists")
        for seed in (0, 5):
            for overrides in ({}, VARIANTS["powerlaw"], VARIANTS["lazy"]):
                config = cfg(seed=seed, **overrides)
                with_np = FastSimulation(config, use_numpy=True).run().metrics
                without = FastSimulation(config, use_numpy=False).run().metrics
                assert with_np == without, (seed, overrides)


@pytest.mark.parametrize("use_numpy", [True, False])
def test_initialize_streams_its_uniforms(use_numpy):
    """Scratch space inside ``_initialize`` is a block of peers, not the population.

    Drawing all ``2n`` init uniforms up front held 64 B a peer as boxed
    floats (80 B on the numpy path, the ndarray beside its list).  On the
    minimum horizon little else is allocated there (the toggle schedule and
    its sort: 18 / 26 B a peer traced, numpy / stdlib), so the bound of 40 B
    a peer passes with room and fails on one population-sized draw.
    """
    if use_numpy:
        pytest.importorskip("numpy", reason="numpy not installed; only the fallback path exists")
    n = 200_000
    sim = FastSimulation(setup_b_point(n, event_budget=1), use_numpy=use_numpy)
    tracemalloc.start()
    try:
        sim._initialize()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * n


def test_coin_owners_share_the_interned_ids():
    """On the numpy path every coin's owner is one of ``n`` shared ints.

    Boxing survivor ids with ``ndarray.tolist()`` made a fresh ``int`` per
    kept candidate, so each coin held its own owner object above 256.
    """
    pytest.importorskip("numpy", reason="numpy not installed; only the fallback path exists")
    n = 2000
    sim = FastSimulation(setup_b_point(n, event_budget=400_000), use_numpy=True)
    sim.run()
    assert len(sim._c_owner) > 4 * n
    assert len({id(x) for x in sim._c_owner}) <= n


class TestFastStatisticallyEquivalent:
    """Seed-pool means agree within sampling error (not per-seed values).

    Calibration note: at this preset the per-seed stdev of the payment
    total is ~5% of the mean, so 10-seed means carry ~1.5% standard
    error each; a tight *relative* bound on so few seeds would flag pure
    noise.  The bounds below are z-style: mean difference within 4
    combined standard errors (plus an epsilon for near-constant series).
    """

    SEEDS = range(10)

    @staticmethod
    def _mean_se(values):
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        return mean, math.sqrt(var / len(values))

    def _assert_close(self, ref_values, fast_values, label):
        ref_mean, ref_se = self._mean_se(ref_values)
        fast_mean, fast_se = self._mean_se(fast_values)
        bound = 4.0 * math.hypot(ref_se, fast_se) + 0.005 * abs(ref_mean) + 1e-9
        assert abs(fast_mean - ref_mean) <= bound, (
            f"{label}: reference mean {ref_mean:.1f}±{ref_se:.1f} vs "
            f"fast mean {fast_mean:.1f}±{fast_se:.1f} (bound {bound:.1f})"
        )

    def test_payment_totals_and_op_mix(self):
        keys = (
            "transfer",
            "downtime_transfer",
            "purchase",
            "renewal",
            "downtime_renewal",
            "sync",
        )
        ref_runs = [run_metrics(cfg(seed=s), "reference") for s in self.SEEDS]
        fast_runs = [run_metrics(cfg(seed=s), "fast") for s in self.SEEDS]
        self._assert_close(
            [m.payments_attempted for m in ref_runs],
            [m.payments_attempted for m in fast_runs],
            "payments_attempted",
        )
        self._assert_close(
            [m.payments_made for m in ref_runs],
            [m.payments_made for m in fast_runs],
            "payments_made",
        )
        for key in keys:
            self._assert_close(
                [m.ops[key] for m in ref_runs],
                [m.ops[key] for m in fast_runs],
                f"ops[{key}]",
            )

    def test_fast_structural_invariants(self):
        for seed in self.SEEDS:
            m = run_metrics(cfg(seed=seed), "fast")
            assert m.payments_made == sum(m.payments_by_method.values())
            # Thinned candidates count as attempted but neither made nor
            # failed (the reference engine does the same).
            assert m.payments_attempted >= m.payments_made + m.payments_failed
            assert m.ops["purchase"] == m.coins_created == m.ops["issue"]
            assert m.events > 0


#: committed artefact file -> figure id
ARTEFACTS = {f"{figure.artefact}.txt": figure_id for figure_id, figure in FIGURES.items()}


@pytest.fixture(scope="module")
def fast_figures():
    """One fixed-seed fast-engine run of all eight committed sweeps."""
    return generate_all(small=True, engine="fast")


@pytest.mark.skipif(
    os.environ.get("WHOPAY_FULL") == "1",
    reason="committed golden rows are the reduced-scale preset",
)
@pytest.mark.parametrize("artifact", sorted(ARTEFACTS))
def test_fast_engine_matches_committed_golden_rows(artifact, fast_figures):
    """Since the default-engine flip the committed rows *are* the fast
    engine's: what ``FIGURES`` renders equals the artefact byte for byte."""
    assert render(fast_figures[ARTEFACTS[artifact]]) + "\n" == (OUT / artifact).read_text()
