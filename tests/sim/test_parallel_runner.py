"""Parallel sweep runner: determinism and replication semantics.

The contract (DESIGN.md §1.1): the process-pool path must produce
*bit-identical* rows to the sequential runner for the same configs/seeds —
parallelism may only change wall-clock, never results.  Rows carry
wall-clock timing stamps (``TIMING_COLUMNS``), which are the one permitted
run-to-run difference; comparisons strip them first.
"""

import math
import os
from dataclasses import replace

import pytest

from repro.core.clock import DAY, HOUR
from repro.sim import runner
from repro.sim.config import SimConfig
from repro.sim.engine import FastSimulation
from repro.sim.runner import (
    TIMING_COLUMNS,
    _spread,
    default_workers,
    run_one,
    run_replicated,
    run_sweep_parallel,
    shutdown_pool,
    strip_timing,
)

TINY = SimConfig(
    n_peers=15,
    duration=0.4 * DAY,
    renewal_period=0.15 * DAY,
    mean_online=2 * HOUR,
    mean_offline=2 * HOUR,
)


@pytest.fixture(autouse=True, scope="module")
def _teardown_pool():
    yield
    shutdown_pool()


class TestParallelDeterminism:
    def test_bit_identical_to_sequential(self):
        configs = [replace(TINY, seed=s) for s in (7, 8, 9)]
        sequential = [strip_timing(run_one(c)) for c in configs]
        parallel = [strip_timing(r) for r in run_sweep_parallel(configs, max_workers=2)]
        assert parallel == sequential

    def test_order_preserved(self):
        configs = [replace(TINY, seed=s, n_peers=10 + s) for s in (1, 2, 3)]
        rows = run_sweep_parallel(configs, max_workers=2)
        assert [row["n_peers"] for row in rows] == [11, 12, 13]

    def test_empty_and_single(self):
        assert run_sweep_parallel([]) == []
        rows = run_sweep_parallel([replace(TINY, seed=4)], max_workers=1)
        assert [strip_timing(r) for r in rows] == [
            strip_timing(run_one(replace(TINY, seed=4)))
        ]

    def test_pool_reuse(self):
        configs = [replace(TINY, seed=s) for s in (5, 6)]
        first = run_sweep_parallel(configs, max_workers=2)
        again = run_sweep_parallel(configs, max_workers=2)
        assert [strip_timing(r) for r in first] == [strip_timing(r) for r in again]
        assert runner._executor is not None


class TestWorkerAndChunkKnobs:
    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("WHOPAY_WORKERS", raising=False)
        assert default_workers() == (os.cpu_count() or 1)

    @pytest.mark.parametrize("value", ["auto", "AUTO", "", "  "])
    def test_auto_and_empty_mean_cpu_count(self, monkeypatch, value):
        monkeypatch.setenv("WHOPAY_WORKERS", value)
        assert default_workers() == (os.cpu_count() or 1)

    def test_explicit_integer_and_clamp(self, monkeypatch):
        monkeypatch.setenv("WHOPAY_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.setenv("WHOPAY_WORKERS", "0")
        assert default_workers() == 1
        monkeypatch.setenv("WHOPAY_WORKERS", "-2")
        assert default_workers() == 1

    @pytest.mark.parametrize("value", ["lots", "3.5", "auto8"])
    def test_malformed_warns_and_falls_back(self, monkeypatch, value):
        monkeypatch.setenv("WHOPAY_WORKERS", value)
        with pytest.warns(RuntimeWarning, match="malformed WHOPAY_WORKERS"):
            assert default_workers() == (os.cpu_count() or 1)

    def test_one_worker_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(runner, "_pool", lambda workers: pytest.fail("a one-worker pool"))
        configs = [replace(TINY, seed=s) for s in (31, 32)]
        rows = run_sweep_parallel(configs, max_workers=1)
        assert [strip_timing(r) for r in rows] == [strip_timing(run_one(c)) for c in configs]


class TestProfileHooks:
    def test_profile_writes_dump(self, monkeypatch, tmp_path):
        monkeypatch.setenv("WHOPAY_PROFILE", str(tmp_path))
        config = replace(TINY, seed=61)
        row = run_one(config)
        assert row["wall_s"] > 0
        dumps = list(tmp_path.glob("sim_n15_s61.prof"))
        assert len(dumps) == 1 and dumps[0].stat().st_size > 0

    def test_every_row_carries_timing_stamps(self, monkeypatch):
        monkeypatch.delenv("WHOPAY_PROFILE", raising=False)
        row = run_one(replace(TINY, seed=61))
        assert row["wall_s"] > 0
        assert row["events_per_sec"] > 0
        rss = row["peak_rss_kb"]
        assert rss is None or rss > 0
        stripped = strip_timing(row)
        assert not any(col in stripped for col in TIMING_COLUMNS)
        assert stripped["events"] > 0


class TestEngineSelection:
    """Rows come from the one engine, so they name none."""

    def test_rows_carry_engine_and_events(self):
        config = replace(TINY, seed=41)
        row = run_one(config)
        assert "engine" not in row
        assert row["events"] == FastSimulation(config).run().metrics.events > 0


class TestReplicatedSpread:
    def test_parallel_matches_sequential(self):
        seeds = (11, 12, 13)
        drop = set(TIMING_COLUMNS) | {f"{c}_spread" for c in TIMING_COLUMNS}
        par = run_replicated(TINY, seeds, parallel=True)
        seq = run_replicated(TINY, seeds)
        assert {k: v for k, v in par.items() if k not in drop} == {
            k: v for k, v in seq.items() if k not in drop
        }

    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            run_replicated(TINY, ())

    def test_spread_cases(self):
        assert _spread([3.0, 3.0, 3.0], 3.0) == 0.0
        assert _spread([0.0, 0.0], 0.0) == 0.0  # equal values, zero mean
        assert _spread([2.0, 4.0], 3.0) == pytest.approx(2.0 / 3.0)
        assert _spread([-1.0, 1.0], 0.0) is None  # zero mean, no scale
        assert _spread([1.0, math.nan], 1.0) is None
        assert _spread([1.0, math.inf], 1.0) is None

    def test_replicated_rows_carry_spreads(self):
        merged = run_replicated(TINY, (21, 22))
        assert merged["replications"] == 2
        assert "broker_cpu_spread" in merged
        spread = merged["broker_cpu_spread"]
        assert spread is None or spread >= 0.0
        # Non-numeric columns pass through unchanged, without spread keys.
        assert merged["policy"] == "I"
        assert "policy_spread" not in merged
