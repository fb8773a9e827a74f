"""Figures 2–11, stated once (paper Section 6.2).

:data:`FIGURES` is the one table of what each figure plots: sweep,
configuration(s), row keys, column names and rounding, x-axis cut, title,
and the artefact under ``benchmarks/out`` holding the committed series.
Everything that draws a figure reads it: :func:`generate_all` (``python -m
repro figures``: CSVs plus a text report), ``benchmarks/bench_figures.py``
(the same text to the artefact, then the shape assertions of DESIGN.md §2)
and the engine-equivalence test (at reduced scale that text equals the
committed artefact byte for byte).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any, Mapping, NamedTuple

from repro.analysis.tables import format_series_table
from repro.sim.policies import policy_by_name
from repro.sim.runner import run_availability_sweep, run_scaling_sweep

Config = tuple[str, str]  # (policy name, sync mode)

#: The four (policy, sync) configurations of Figures 6–11, in column order.
CONFIGS: tuple[Config, ...] = (
    ("I", "proactive"),
    ("I", "lazy"),
    ("III", "proactive"),
    ("III", "lazy"),
)

SCALE_NOTES = {
    True: "reduced scale (150 peers, 5 days; WHOPAY_FULL=1 for paper scale)",
    False: "paper scale (1000 peers, 10 days)",
}


class Column(NamedTuple):
    """One plotted series: ``label`` heads the column, the values are
    ``row[key]`` over the ``config`` sweep, rounded to ``digits`` if set."""

    label: str
    config: Config
    key: str
    digits: int | None = None


class Figure(NamedTuple):
    """One figure: its artefact, title, sweep (``setup`` A: µ, B: N),
    columns and — Figures 8/9 show µ ∈ [0.25, 6] h only — x-axis cut."""

    artefact: str
    title: str  # may name ``{n_peers}``
    setup: str
    columns: tuple[Column, ...]
    max_x: float = float("inf")


def _broker_ops(config: Config, *ops: str):
    """Columns of a broker-load figure (2, 3): plural label, ``broker_<op>`` counts."""
    return tuple(Column(op + "s", config, "broker_" + op) for op in ops)


def _peer_ops(config: Config, *ops: str):
    """Columns of a peer-load figure (4, 5): ``peer_avg_<op>`` to two places."""
    return tuple(Column(op, config, "peer_avg_" + op, 2) for op in ops)


def _per_config(key: str, digits: int | None = None):
    """Columns of a four-configuration figure (6–11): one row key, four sweeps."""
    return tuple(Column(f"{p}+{sync[:4]}", (p, sync), key, digits) for p, sync in CONFIGS)


_BROKER_OPS = ("purchase", "downtime_transfer", "downtime_renewal", "sync")
_PEER_OPS = ("purchase", "issue", "transfer", "renewal", "downtime_transfer", "downtime_renewal")

FIGURES: dict[str, Figure] = {
    "fig2": Figure(
        "fig2_broker_load_pro", "Broker Load, Policy I + Proactive Sync", "A",
        # Deposits are plotted to show they are zero: policy I never deposits.
        _broker_ops(("I", "proactive"), *_BROKER_OPS, "deposit"),
    ),
    "fig3": Figure(
        "fig3_broker_load_lazy", "Broker Load, Policy I + Lazy Sync", "A",
        # Syncs likewise: lazy synchronization eliminates them.
        _broker_ops(("I", "lazy"), *_BROKER_OPS),
    ),
    "fig4": Figure(
        "fig4_peer_load_pro", "Average Peer Load, Policy I + Proactive Sync", "A",
        _peer_ops(("I", "proactive"), *_PEER_OPS, "sync"),
    ),
    "fig5": Figure(
        "fig5_peer_load_lazy", "Average Peer Load, Policy I + Lazy Sync", "A",
        _peer_ops(("I", "lazy"), *_PEER_OPS, "check", "lazy_sync", "sync"),
    ),
    "fig6": Figure(
        "fig6_broker_cpu", "Broker CPU Load (Table 3 units)", "A", _per_config("broker_cpu")
    ),
    "fig7": Figure(
        "fig7_broker_comm", "Broker Communication Load (message endpoints)", "A",
        _per_config("broker_comm"),
    ),
    "fig8": Figure(
        "fig8_cpu_ratio", "Broker-Peer CPU Load Ratio (N={n_peers})", "A",
        _per_config("cpu_ratio", 1), max_x=6.0,
    ),
    "fig9": Figure(
        "fig9_comm_ratio", "Broker-Peer Communication Load Ratio (N={n_peers})", "A",
        _per_config("comm_ratio", 1), max_x=6.0,
    ),
    "fig10": Figure(
        "fig10_cpu_scaling", "Broker CPU Load Share vs System Size", "B",
        _per_config("broker_cpu_share", 4),
    ),
    "fig11": Figure(
        "fig11_comm_scaling", "Broker Communication Load Share vs System Size", "B",
        _per_config("broker_comm_share", 4),
    ),
}


def figure_data(
    figure_id: str, sweeps: Mapping[Config, list[dict[str, Any]]], small: bool = True
) -> dict[str, Any]:
    """One figure's ``{"title", "x_label", "x", "series", "n_peers"}``: the
    values as plotted — cut and rounded per :data:`FIGURES` — from ``sweeps``,
    the :func:`repro.sim.runner.run_one` rows of each configuration it names."""
    figure = FIGURES[figure_id]
    x_label = {"A": "mu_hours", "B": "n_peers"}[figure.setup]
    reference = sweeps[figure.columns[0].config]
    shown = [i for i, row in enumerate(reference) if row[x_label] <= figure.max_x]
    n_peers = reference[0]["n_peers"]
    title = figure.title.format(n_peers=n_peers)
    series = {}
    for label, config, key, digits in figure.columns:
        values = [sweeps[config][i][key] for i in shown]
        series[label] = values if digits is None else [round(v, digits) for v in values]
    return {
        "title": f"Figure {figure_id[3:]}: {title} — {SCALE_NOTES[small]}",
        "x_label": x_label,
        "x": [reference[i][x_label] for i in shown],
        "series": series,
        "n_peers": n_peers,
    }


def render(data: Mapping[str, Any]) -> str:
    """The text of one figure — what ``benchmarks/out/<artefact>.txt`` holds."""
    return format_series_table(data["x_label"], data["x"], data["series"], title=data["title"])


def generate_all(
    small: bool = True, out_dir: str | Path | None = None
) -> dict[str, dict[str, Any]]:
    """Run the eight sweeps and derive every figure's series.

    Returns ``{figure_id: figure_data(...)}``; when ``out_dir`` is given,
    also writes ``<figure>.csv`` per figure and a combined ``figures.txt``
    there.
    """
    run = {"A": run_availability_sweep, "B": run_scaling_sweep}
    sweeps = {
        setup: {
            (policy, sync): run[setup](policy_by_name(policy), sync, small=small)
            for policy, sync in CONFIGS
        }
        for setup in run
    }
    figures = {
        figure_id: figure_data(figure_id, sweeps[figure.setup], small)
        for figure_id, figure in FIGURES.items()
    }
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for figure_id, data in figures.items():
            with open(out_dir / f"{figure_id}.csv", "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow([data["x_label"], *data["series"]])
                writer.writerows(zip(data["x"], *data["series"].values()))
        (out_dir / "figures.txt").write_text("\n\n".join(map(render, figures.values())) + "\n")
    return figures
