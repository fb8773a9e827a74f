"""Simulation-engine scaling benchmark: events/sec and peak RSS up to N=10^6.

The paper's evaluation (Section 6.2) stops at 1000 peers; the ROADMAP
north star is millions.  This bench measures the simulation engine on
event-budgeted Setup-B points (:func:`repro.sim.config.setup_b_point` —
the horizon shrinks with N so the *event count* stays fixed and the
per-event cost is what varies) across N ∈ {10^3, 10^4, 10^5, 10^6}:

* **speedup points** (N=10^3, 10^4, 400k-event budget): the reference
  loop (the test oracle, ``tests/sim/reference.py``) and the fast engine
  run interleaved, repeated, best-of; the N=10^4 ratio is the headline
  "≥10x" acceptance number.
* **scale points** (N=10^5 and, in full mode, 10^6, 2M-event budget):
  fast engine only — the reference loop cannot reach them in reasonable
  time.

Every point runs in its own subprocess (``_common.run_point``) so
``ru_maxrss`` is a true per-point peak, not the high-water mark of whichever
point ran first.

Entry points:

* ``python benchmarks/bench_scaling_million.py`` — full sweep including
  the million-peer point; writes ``benchmarks/out/BENCH_sim_scaling.json``.
* ``--quick`` — CI smoke: caps the sweep at N=10^5; writes
  ``BENCH_sim_scaling_quick.json``.

The floors are rows of ``benchmarks/check.py``: the N=10^4 fast/reference
ratio (10x for a full run, half that for a quick one), a quick run's N=10^4
fast events/sec and every run's N=10^5 peak RSS against the *committed* full
run's, and — full runs only — the million-peer point under 10 minutes and
within a quarter of its committed peak RSS.
"""

from __future__ import annotations

from dataclasses import replace

import _common

from repro.sim.config import setup_b_point

SPEEDUP_BUDGET = 400_000
SCALE_BUDGET = 2_000_000
SPEEDUP_SIZES = (1_000, 10_000)
SPEEDUP_REPEATS = 5
HEADLINE_N = 10_000
SEED = 20060704


def run_point(n_peers: int, engine: str, event_budget: int, seed: int = SEED) -> dict:
    """Run one point in a fresh subprocess and return its row."""
    config = replace(setup_b_point(n_peers, event_budget=event_budget), seed=seed)
    row = _common.run_point(config, engine)
    return {
        "n_peers": n_peers,
        "engine": engine,
        "event_budget": event_budget,
        "seed": seed,
        "sim_duration_s": config.duration,
        "events": row["events"],
        "payments_made": row["payments_made"],
        "setup_s": round(row["total_s"] - row["wall_s"], 4),
        "wall_s": round(row["wall_s"], 4),
        "total_s": round(row["total_s"], 4),
        "events_per_sec": round(row["events_per_sec"]),
        "peak_rss_kb": row["peak_rss_kb"],
    }


def run_sweep(quick: bool = False) -> dict:
    points: list[dict] = []

    # Interleave reference/fast repeats so machine-load drift hits both
    # engines alike; keep the best run of each (the least-perturbed one).
    best: dict[tuple[int, str], dict] = {}
    for n in SPEEDUP_SIZES:
        for rep in range(SPEEDUP_REPEATS):
            for engine in ("reference", "fast"):
                row = run_point(n, engine, SPEEDUP_BUDGET)
                key = (n, engine)
                if key not in best or row["events_per_sec"] > best[key]["events_per_sec"]:
                    best[key] = row
                print(
                    f"  n={n:>9,} engine={engine:<9} rep={rep} "
                    f"{row['events_per_sec']:>12,} events/s  "
                    f"rss={row['peak_rss_kb'] / 1024:,.0f} MiB",
                    flush=True,
                )
    points.extend(best[(n, e)] for n in SPEEDUP_SIZES for e in ("reference", "fast"))

    scale_sizes = (100_000,) if quick else (100_000, 1_000_000)
    for n in scale_sizes:
        row = run_point(n, "fast", SCALE_BUDGET)
        points.append(row)
        print(
            f"  n={n:>9,} engine=fast      "
            f"{row['events_per_sec']:>12,} events/s  "
            f"total={row['total_s']:.1f}s  "
            f"rss={row['peak_rss_kb'] / 1024:,.0f} MiB",
            flush=True,
        )

    ratios = {}
    for n in SPEEDUP_SIZES:
        ref = best[(n, "reference")]["events_per_sec"]
        fast = best[(n, "fast")]["events_per_sec"]
        ratios[str(n)] = {
            "reference_events_per_sec": ref,
            "fast_events_per_sec": fast,
            "speedup": round(fast / ref, 2) if ref else None,
        }

    headline = ratios[str(HEADLINE_N)]
    print(
        f"N={HEADLINE_N:,}: reference {headline['reference_events_per_sec']:,} ev/s, "
        f"fast {headline['fast_events_per_sec']:,} ev/s -> {headline['speedup']}x"
    )
    return {
        "seed": SEED,
        "speedup_budget_events": SPEEDUP_BUDGET,
        "scale_budget_events": SCALE_BUDGET,
        "speedup_repeats": SPEEDUP_REPEATS,
        "headline_n": HEADLINE_N,
        "speedup": ratios,
        "points": points,
    }


if __name__ == "__main__":
    _common.report_main("BENCH_sim_scaling", run_sweep, __doc__)
