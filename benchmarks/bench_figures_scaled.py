"""Extended-scale figure campaign: fig2-fig11 and the ablation grid at 10x.

The paper's evaluation (Section 6.2) runs Setup A at 1000 peers and Setup B
up to 1000 peers.  With the fast engine as the default this campaign re-runs
every figure's sweep at **10x paper scale** — Setup A at N = 10^4 over the
full 8-point µ grid, Setup B over sizes 1000..10000 — for all four
(policy, sync) configurations, plus the ablation grid (detection, power-law
population, layered coins, policy II, message loss, broker restarts) at
N = 10^4, plus **100x spot columns** (N = 10^5, event-budgeted horizons per
the scaling-bench methodology) for selected Setup-A points and the Setup-B
corner.

Every point runs in its own subprocess (``_common.run_point``) so the
``peak_rss_kb`` stamp is a true per-point peak (one process's ``ru_maxrss``
only ever rises), and every row carries the runner's ``wall_s`` /
``events_per_sec`` / ``peak_rss_kb`` stamps — which is what its rows in
``benchmarks/check.py`` hold: sanity floors, not figure-shape assertions
(those live in the paper-scale benches).

Entry points:

* ``python benchmarks/bench_figures_scaled.py`` — the full campaign
  (~25 min on one core); writes ``benchmarks/out/BENCH_figures_scaled.json``
  and a ``figures_scaled.txt`` report.
* ``--quick`` — CI smoke: 3-point µ grid, 2 Setup-B sizes, no 100x spots,
  event-budgeted horizons (~1 min); writes ``BENCH_figures_scaled_quick.json``
  (``figures_scaled.txt`` is written by full runs only).
"""

from __future__ import annotations

import time
from dataclasses import replace

import _common
from bench_ablations import VARIANTS

from repro.analysis.tables import format_series_table
from repro.core.clock import HOUR
from repro.sim.config import FULL_MU_SWEEP_HOURS, FULL_SIZE_SWEEP, SimConfig, event_budgeted
from repro.sim.figures import CONFIGS
from repro.sim.policies import POLICY_II_A, policy_by_name

SCALE = 10
SETUP_A_PEERS = 10_000          # 10x the paper's 1000
SPOT_PEERS = 100_000            # 100x spot columns
SPOT_BUDGET = 10_000_000        # event budget for 100x spots (scaling-bench style)
QUICK_BUDGET = 300_000          # event budget per point in --quick mode

#: Ablation rows, all at the 10x Setup-B corner (N = 10^4, µ = ν = 2 h).
ABLATIONS = (
    ("baseline", {}),
    ("detection", VARIANTS["detection"]),
    ("powerlaw", VARIANTS["powerlaw"]),
    ("superpeer_capped", {**VARIANTS["powerlaw"], "superpeer_max_availability": 0.9}),
    ("layered", {**VARIANTS["layered"], "max_layers": 4}),
    ("policy_II_budget", {"policy": POLICY_II_A, "initial_balance": 50}),
    ("message_loss_10pct", {"message_loss": 0.1}),
    ("broker_restarts_3", {"broker_restarts": 3}),
)

#: 100x Setup-A spot columns: (policy I, proactive) at the sweep's edges
#: and the paper's median-availability point.
SPOT_MU_HOURS = (0.25, 2.0, 32.0)

TIMING_KEYS = ("wall_s", "events_per_sec", "peak_rss_kb")


def run_point(config: SimConfig, label: str) -> dict:
    """Run one point in a fresh subprocess; return its stamped row."""
    row = _common.run_point(config)
    del row["total_s"]  # the runner's stamps are this campaign's columns
    row["label"] = label
    print(
        f"  {label:<42} {row['events']:>12,} ev  {row['wall_s']:>7.1f}s  "
        f"{row['events_per_sec']:>12,.0f} ev/s  "
        f"rss={row['peak_rss_kb'] / 1024:,.0f} MiB",
        flush=True,
    )
    return row


def _setup_a_config(policy_name: str, sync_mode: str, mu_hours: float) -> SimConfig:
    return SimConfig(
        n_peers=SETUP_A_PEERS,
        policy=policy_by_name(policy_name),
        sync_mode=sync_mode,
        mean_online=mu_hours * HOUR,
    )


def _setup_b_config(policy_name: str, sync_mode: str, n_peers: int) -> SimConfig:
    return SimConfig(
        n_peers=n_peers,
        policy=policy_by_name(policy_name),
        sync_mode=sync_mode,
    )


def run_campaign(quick: bool = False) -> dict:
    mu_grid = (0.25, 2.0, 32.0) if quick else FULL_MU_SWEEP_HOURS
    size_grid = (
        (1_000, 2_000) if quick else tuple(n * SCALE for n in FULL_SIZE_SWEEP)
    )

    def prepared(config: SimConfig) -> SimConfig:
        return event_budgeted(config, QUICK_BUDGET) if quick else config

    started = time.perf_counter()
    setup_a: dict[str, list[dict]] = {}
    for policy_name, sync_mode in CONFIGS:
        key = f"{policy_name}+{sync_mode}"
        print(f"Setup A 10x ({key}):", flush=True)
        setup_a[key] = [
            run_point(
                prepared(_setup_a_config(policy_name, sync_mode, mu)),
                f"A:{key} mu={mu:g}h",
            )
            for mu in mu_grid
        ]

    setup_b: dict[str, list[dict]] = {}
    for policy_name, sync_mode in CONFIGS:
        key = f"{policy_name}+{sync_mode}"
        print(f"Setup B 10x ({key}):", flush=True)
        setup_b[key] = [
            run_point(
                prepared(_setup_b_config(policy_name, sync_mode, n)),
                f"B:{key} N={n}",
            )
            for n in size_grid
        ]

    print("Ablations at 10x:", flush=True)
    base = SimConfig(n_peers=SETUP_A_PEERS)
    ablations = [
        run_point(prepared(replace(base, **overrides)), f"ablation:{name}")
        for name, overrides in ABLATIONS
    ]

    spots: list[dict] = []
    if not quick:
        print("100x spot columns:", flush=True)
        for mu in SPOT_MU_HOURS:
            config = event_budgeted(
                replace(_setup_a_config("I", "proactive", mu), n_peers=SPOT_PEERS),
                SPOT_BUDGET,
            )
            spots.append(run_point(config, f"spot:A mu={mu:g}h N={SPOT_PEERS}"))
        for policy_name, sync_mode in CONFIGS:
            config = event_budgeted(
                _setup_b_config(policy_name, sync_mode, SPOT_PEERS), SPOT_BUDGET
            )
            spots.append(
                run_point(config, f"spot:B {policy_name}+{sync_mode} N={SPOT_PEERS}")
            )

    report = {
        "scale_factor": SCALE,
        "setup_a_peers": SETUP_A_PEERS,
        "spot_peers": SPOT_PEERS,
        "spot_budget_events": SPOT_BUDGET,
        "mu_grid_hours": list(mu_grid),
        "size_grid": list(size_grid),
        "campaign_wall_s": round(time.perf_counter() - started, 1),
        "setup_a": setup_a,
        "setup_b": setup_b,
        "ablations": ablations,
        "spots_100x": spots,
    }
    if not quick:
        _common.emit("figures_scaled", _report(report))
    rows = sum(len(group) for group in (*setup_a.values(), *setup_b.values(), ablations, spots))
    print(f"{rows} rows in {report['campaign_wall_s']:,.0f}s")
    return report


def _report(report: dict) -> str:
    """The figures_scaled.txt tables: figure series + timing stamps per row."""
    parts: list[str] = []
    a_metrics = ("broker_cpu", "broker_comm", "broker_cpu_share")
    for key, rows in report["setup_a"].items():
        x = [r["mu_hours"] for r in rows]
        series = {m: [r[m] for r in rows] for m in a_metrics}
        for stamp in TIMING_KEYS:
            series[stamp] = [r[stamp] for r in rows]
        parts.append(
            format_series_table(
                "mu_hours", x, series,
                title=f"Setup A 10x ({key}, N={report['setup_a_peers']:,})",
            )
        )
    b_metrics = ("broker_cpu_share", "broker_comm_share")
    for key, rows in report["setup_b"].items():
        x = [r["n_peers"] for r in rows]
        series = {m: [r[m] for r in rows] for m in b_metrics}
        for stamp in TIMING_KEYS:
            series[stamp] = [r[stamp] for r in rows]
        parts.append(
            format_series_table("n_peers", x, series, title=f"Setup B 10x ({key})")
        )
    for title, rows in (
        ("Ablations at 10x (N=10^4, mu=nu=2h)", report["ablations"]),
        ("100x spot columns (event-budgeted)", report["spots_100x"]),
    ):
        if not rows:
            continue
        x = [r["label"] for r in rows]
        series = {
            m: [r[m] for r in rows]
            for m in ("events", "broker_cpu_share", "broker_comm_share")
        }
        for stamp in TIMING_KEYS:
            series[stamp] = [r[stamp] for r in rows]
        parts.append(format_series_table("label", x, series, title=title))
    return "\n\n".join(parts)


if __name__ == "__main__":
    _common.report_main("BENCH_figures_scaled", run_campaign, __doc__)
