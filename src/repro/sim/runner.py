"""Sweep drivers producing the figures' data series (paper Section 6.2).

Each function runs one family of simulations and returns a list of
per-point result rows (plain dicts, ready for table printing or asserting);
the figure benchmarks under ``benchmarks/`` are thin wrappers over these.

Sweep points are independent simulations, so the drivers can fan them out
over a process pool (:func:`run_sweep_parallel`).  Determinism is preserved:
every point carries its own seed inside its :class:`SimConfig`, workers
share no state, and results are returned in submission order — the parallel
path produces bit-identical rows to the sequential one (modulo the
wall-clock timing stamps, see below).

Every point runs on :class:`repro.sim.engine.FastSimulation`, the one
engine.  The per-event loop that states the model plainly is the test
oracle (``tests/sim/reference.py``); ``benchmarks/bench_scaling_million.py``
times it beside this engine, each in a child process of its own.

Environment knobs (all optional):

* ``WHOPAY_WORKERS`` — pool size (``auto``/empty → CPU count; malformed
  values warn and fall back instead of killing the sweep);
* ``WHOPAY_PROFILE`` — directory for per-point cProfile dumps.
  (The ``pool.map`` chunk size is computed from the sweep, not a knob.)

Every row is stamped with ``wall_s`` / ``events_per_sec`` /
``peak_rss_kb`` timing columns, so committed figure artifacts are
self-describing.  They are the only non-deterministic row entries —
comparisons that want bit-identical rows strip :data:`TIMING_COLUMNS`
first (the parallel runner's determinism contract is phrased modulo
those columns).
"""

from __future__ import annotations

import atexit
import math
import os
import warnings
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.core.clock import HOUR
from repro.sim.config import SimConfig, setup_a_configs, setup_b_configs
from repro.sim.engine import FastSimulation
from repro.sim.metrics import SimMetrics
from repro.sim.policies import Policy

if TYPE_CHECKING:  # pragma: no cover
    from concurrent.futures import ProcessPoolExecutor


#: Per-row wall-clock stamps — the only row entries that vary run to run.
#: Strip these before bitwise row comparisons.
TIMING_COLUMNS = ("wall_s", "events_per_sec", "peak_rss_kb")


def strip_timing(row: dict[str, Any]) -> dict[str, Any]:
    """A copy of ``row`` without :data:`TIMING_COLUMNS` (for bitwise compares)."""
    return {k: v for k, v in row.items() if k not in TIMING_COLUMNS}


def _peak_rss_kb() -> int | None:
    """Process peak RSS in KiB, or ``None`` where rusage is unavailable."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-Unix
        return None
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def run_one(config: SimConfig) -> dict[str, Any]:
    """Run a single configuration and flatten its metrics into a row.

    Every row carries the :data:`TIMING_COLUMNS` stamps; everything else
    is a pure function of the config.  ``peak_rss_kb`` is the *process's*
    high-water mark: monotone over an in-process sweep, a point's own only
    with one child per point (``benchmarks/_common.run_point``).  With
    ``WHOPAY_PROFILE`` set the point also runs under cProfile.
    """
    import time

    sim = FastSimulation(config)
    profile_dir = os.environ.get("WHOPAY_PROFILE")
    if profile_dir:
        import cProfile

        prof = cProfile.Profile()
        start = time.perf_counter()  # wp-lint: disable=WP102
        prof.enable()
        result = sim.run()
        prof.disable()
        wall = time.perf_counter() - start  # wp-lint: disable=WP102
        os.makedirs(profile_dir, exist_ok=True)
        prof.dump_stats(
            os.path.join(
                profile_dir,
                f"sim_n{config.n_peers}_s{config.seed}.prof",
            )
        )
    else:
        start = time.perf_counter()  # wp-lint: disable=WP102
        result = sim.run()
        wall = time.perf_counter() - start  # wp-lint: disable=WP102
    metrics = result.metrics
    row = metrics_row(config, metrics)
    row["wall_s"] = wall
    row["events_per_sec"] = metrics.events / wall if wall > 0 else 0.0
    row["peak_rss_kb"] = _peak_rss_kb()
    return row


def metrics_row(config: SimConfig, metrics: SimMetrics) -> dict[str, Any]:
    """Flatten one run's metrics into the row the figures read — everything
    in a :func:`run_one` row except the :data:`TIMING_COLUMNS`, and a pure
    function of its arguments."""
    row: dict[str, Any] = {
        "mu_hours": config.mean_online / HOUR,
        "nu_hours": config.mean_offline / HOUR,
        "n_peers": config.n_peers,
        "policy": config.policy.name,
        "sync": config.sync_mode,
        "availability": config.availability,
        "events": metrics.events,
        "payments_made": metrics.payments_made,
        "broker_cpu": metrics.broker_cpu_load(),
        "broker_comm": metrics.broker_comm_load(),
        "cpu_ratio": metrics.cpu_load_ratio(),
        "comm_ratio": metrics.comm_load_ratio(),
        "broker_cpu_share": metrics.broker_cpu_share(),
        "broker_comm_share": metrics.broker_comm_share(),
    }
    for op, count in metrics.broker_op_counts().items():
        row[f"broker_{op}"] = count
    for op, avg in metrics.peer_op_counts_avg().items():
        row[f"peer_avg_{op}"] = avg
    return row


# -- process-pool plumbing ----------------------------------------------------
#
# One executor is created lazily and reused across sweeps (worker startup —
# interpreter fork + module imports — would otherwise dominate short sweeps).
# Simulations are CPU-bound pure Python, so processes, not threads.

_executor: ProcessPoolExecutor | None = None
_executor_workers: int = 0


def default_workers() -> int:
    """Worker count: ``WHOPAY_WORKERS`` env override, else the CPU count.

    ``auto`` (case-insensitive) and the empty string mean "use the CPU
    count".  A malformed value is a configuration slip, not a reason to
    kill a sweep that may be hours into a queue — warn and fall back.
    Values below 1 clamp to a single worker.
    """
    env = (os.environ.get("WHOPAY_WORKERS") or "").strip()
    if env and env.lower() != "auto":
        try:
            return max(1, int(env))
        except ValueError:
            warnings.warn(
                f"ignoring malformed WHOPAY_WORKERS={env!r} "
                "(expected an integer or 'auto'); using the CPU count",
                RuntimeWarning,
                stacklevel=2,
            )
    return os.cpu_count() or 1


def _pool(max_workers: int) -> ProcessPoolExecutor:
    """Return the shared executor, (re)building it if the size changed."""
    global _executor, _executor_workers
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: parallel sweeps only

    if _executor is None or _executor_workers != max_workers:
        if _executor is not None:
            _executor.shutdown(wait=False, cancel_futures=True)
        _executor = ProcessPoolExecutor(max_workers=max_workers)
        _executor_workers = max_workers
    return _executor


def shutdown_pool() -> None:
    """Tear down the shared executor (idempotent; registered at exit)."""
    global _executor, _executor_workers
    if _executor is not None:
        _executor.shutdown(wait=False, cancel_futures=True)
        _executor = None
        _executor_workers = 0


atexit.register(shutdown_pool)


def map_points(point, configs: Iterable[SimConfig], max_workers: int | None) -> list:
    """``[point(c) for c in configs]``, fanned over the shared process pool.

    Order is preserved; ``point`` must pickle.  With one config or one worker
    the list comprehension is what runs (a one-worker pool is the same work
    plus a fork and a pickle per point); otherwise points ship in chunks, ~4
    per worker, which amortizes IPC without serializing the tail.
    """
    configs = list(configs)
    workers = min(max_workers or default_workers(), len(configs))
    if workers <= 1:
        return [point(config) for config in configs]
    chunk = max(1, len(configs) // (workers * 4))
    return list(_pool(workers).map(point, configs, chunksize=chunk))


def run_sweep_parallel(
    configs: Iterable[SimConfig], max_workers: int | None = None
) -> list[dict[str, Any]]:
    """Run independent sweep points on a process pool, preserving order.

    Returns exactly what ``[run_one(c) for c in configs]`` would: each point
    is seeded by its config and workers share no state, so rows are
    bit-identical to the sequential runner's modulo the wall-clock
    :data:`TIMING_COLUMNS` stamps.
    """
    return map_points(run_one, configs, max_workers)


def _run_points(configs: Iterable[SimConfig], parallel: bool) -> list[dict]:
    return run_sweep_parallel(configs, None if parallel else 1)


# -- replication --------------------------------------------------------------


def _spread(values: Sequence[float], mean: float) -> float | None:
    """Relative spread (max − min)/|mean|, or the explicit degenerate cases.

    * any non-finite value → ``None`` (spread is meaningless);
    * all values equal → ``0.0`` (stable, even when the mean is zero);
    * zero mean with unequal values → ``None`` (no scale to normalize by).
    """
    if any(not math.isfinite(v) for v in values):
        return None
    lo, hi = min(values), max(values)
    if hi == lo:
        return 0.0
    if mean == 0 or not math.isfinite(mean):
        return None
    return (hi - lo) / abs(mean)


def run_replicated(
    config: SimConfig,
    seeds: tuple[int, ...],
    parallel: bool = False,
) -> dict[str, Any]:
    """Run ``config`` under several seeds; report mean and spread per metric.

    Research hygiene for anything you intend to quote: a single-seed number
    carries simulation noise.  Returns the mean row plus, for each numeric
    column, a ``<column>_spread`` entry (max − min across seeds, as a
    fraction of the mean; ``None`` when the column has no meaningful scale —
    see :func:`_spread`) so callers can judge stability.  ``parallel`` fans
    the seeds out over the shared sweep process pool.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    from dataclasses import replace

    rows = _run_points((replace(config, seed=seed) for seed in seeds), parallel)
    merged: dict[str, Any] = {}
    for key, value in rows[0].items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            merged[key] = value
            continue
        values = [row[key] for row in rows]
        finite = [v for v in values if math.isfinite(v)]
        mean = sum(finite) / len(finite) if finite else math.nan
        merged[key] = mean
        merged[f"{key}_spread"] = _spread(values, mean)
    merged["replications"] = len(seeds)
    return merged


# -- sweep families -----------------------------------------------------------


def run_availability_sweep(
    policy: Policy,
    sync_mode: str,
    small: bool = False,
    mean_offline_hours: float = 2.0,
    parallel: bool = False,
) -> list[dict[str, Any]]:
    """Setup A (Figures 2–9): sweep µ for one (policy, sync) configuration."""
    return _run_points(
        setup_a_configs(
            policy=policy,
            sync_mode=sync_mode,
            mean_offline_hours=mean_offline_hours,
            small=small,
        ),
        parallel,
    )


def run_scaling_sweep(
    policy: Policy,
    sync_mode: str,
    small: bool = False,
    parallel: bool = False,
) -> list[dict[str, Any]]:
    """Setup B (Figures 10–11): sweep the system size at 50% availability."""
    return _run_points(
        setup_b_configs(policy=policy, sync_mode=sync_mode, small=small), parallel
    )
