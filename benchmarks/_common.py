"""Shared helpers for everything under ``benchmarks/`` (see conftest.py).

Two styles of measurement live here (DESIGN.md §2, "Benchmarks"):

* **Paper artefacts** (Tables 1–3, Figures 2–11, the ablations) run under
  ``pytest benchmarks/ --benchmark-only``; the timed body is the sweep (or
  crypto loop) that produces the artefact's data, the bench prints the
  series the paper's figure plots and writes it to
  ``benchmarks/out/<artefact>.txt`` (:func:`emit`), and its assertions check
  the *shape* of the series per the reproduction criteria.  Simulator points
  all go through :func:`simulate`: each distinct configuration runs once per
  process however many figures and ablations read it (Figures 2/4 share a
  sweep; four ablations re-read Figure 3's), fanned over the runner's
  process pool under ``WHOPAY_PARALLEL=1``.  Default scale is the reduced
  preset (150 peers, 5 simulated days — every ratio the analysis depends on
  preserved; see ``repro.sim.config``); ``WHOPAY_FULL=1`` is paper scale.
* **Engineering evidence** (``BENCH_*.json``) comes from scripts: a function
  returning the report body, handed to :func:`report_main` (``--quick``,
  ``--out``, the ``<name>.json`` / ``<name>_quick.json`` path rule, the
  ``benchmark`` / ``host`` / ``commit`` / ``quick`` stamp), its floors rows
  of the table in ``check.py``.  A script that needs a true per-point
  ``ru_maxrss`` runs each point through :func:`run_point` (a fresh child of
  this file printing :func:`repro.sim.runner.run_one`'s row).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import fields
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from e2e.envelope import commit_stamp, host_stamp

from repro.sim.config import SimConfig, setup_a_configs, setup_b_configs
from repro.sim.engine import build_simulation, resolve_engine
from repro.sim.metrics import SimMetrics
from repro.sim.policies import policy_by_name
from repro.sim.runner import map_points, metrics_row, run_one

FULL_SCALE = os.environ.get("WHOPAY_FULL", "") == "1"
#: Opt-in process-pool fan-out of simulator points (``WHOPAY_PARALLEL=1``).
#: Metrics are bit-identical to the sequential run's (each point carries its
#: own seed); only wall-clock changes, so artefacts stay comparable.
PARALLEL = os.environ.get("WHOPAY_PARALLEL", "") == "1"
OUT_DIR = Path(__file__).parent / "out"

# -- paper artefacts ----------------------------------------------------------

_metrics: dict[SimConfig, SimMetrics] = {}


def _simulate_one(config: SimConfig, engine: str) -> SimMetrics:
    return build_simulation(config, engine).run().metrics


def simulate(configs: Iterable[SimConfig]) -> list[SimMetrics]:
    """The metrics of each configuration, simulating each distinct one once.

    Treat the returned objects as read-only: the next caller naming the same
    configuration gets the same object.
    """
    configs = list(configs)
    missing = [config for config in dict.fromkeys(configs) if config not in _metrics]
    point = partial(_simulate_one, engine=resolve_engine(None))
    _metrics.update(zip(missing, map_points(point, missing, None if PARALLEL else 1)))
    return [_metrics[config] for config in configs]


def sweep(setup: str, policy_name: str, sync_mode: str, **family: float) -> list[dict[str, Any]]:
    """One configuration's Setup-A (µ) or Setup-B (N) sweep as figure rows
    (``family``: Setup A's ``mean_offline_hours``, Table 1's three downtimes)."""
    configs = {"A": setup_a_configs, "B": setup_b_configs}[setup](
        policy=policy_by_name(policy_name), sync_mode=sync_mode, small=not FULL_SCALE, **family
    )
    engine = resolve_engine(None)
    return [metrics_row(config, metrics, engine) for config, metrics in zip(configs, simulate(configs))]


def emit(artifact: str, text: str) -> None:
    """Print a reproduced series and persist it under benchmarks/out/."""
    print()
    print(text)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{artifact}.txt").write_text(text + "\n")


# -- engineering evidence -----------------------------------------------------


def report_main(
    name: str, measure: Callable[[bool], dict], doc: str | None, benchmark: str | None = None
) -> dict:
    """The command line of a script bench: run ``measure(quick)``, stamp, write.

    The report is ``{"benchmark", "host", "commit", "quick", **body}`` — what
    (``name``, unless an older committed file fixed another ``benchmark``),
    where, which tree, which scale — written to ``--out`` or, by default, to
    ``benchmarks/out/<name>.json`` (``<name>_quick.json`` under ``--quick``,
    which is git-ignored, so a smoke run never touches committed evidence).
    Floors are not judged here: ``python benchmarks/check.py <report>``.
    """
    import argparse

    parser = argparse.ArgumentParser(description=doc, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--quick", action="store_true", help="CI smoke scale")
    parser.add_argument("--out", type=Path, default=None, help="report path (default: see above)")
    args = parser.parse_args()
    body = measure(args.quick)
    report = {
        "benchmark": benchmark or name,
        "host": host_stamp(Path(tempfile.gettempdir())),
        "commit": commit_stamp(Path(__file__).resolve().parent.parent),
        "quick": args.quick,
        **body,
    }
    out = args.out or OUT_DIR / f"{name}{'_quick' if args.quick else ''}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    return report


def run_point(config: SimConfig, engine: str | None = None) -> dict[str, Any]:
    """Run one simulator point in a fresh interpreter; return its row.

    The row is :func:`repro.sim.runner.run_one`'s plus ``total_s`` (build and
    run, as the child timed it).  One process per point, because one
    process's ``ru_maxrss`` only ever rises: ``peak_rss_kb`` is this point's.
    """
    spec = {f.name: getattr(config, f.name) for f in fields(SimConfig)}
    spec["policy"] = config.policy.name
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--point", json.dumps([spec, engine])],
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"point {config.describe()} failed (rc={proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _point_child(argument: str) -> None:
    spec, engine = json.loads(argument)
    spec["policy"] = policy_by_name(spec["policy"])
    start = time.perf_counter()
    row = run_one(SimConfig(**spec), engine)
    row["total_s"] = time.perf_counter() - start
    print(json.dumps(row))


if __name__ == "__main__":
    if sys.argv[1:2] != ["--point"] or len(sys.argv) != 3:
        sys.exit("usage: _common.py --point <json>  (internal: see run_point)")
    _point_child(sys.argv[2])
