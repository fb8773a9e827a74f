#!/usr/bin/env python3
"""Every floor a ``BENCH_*.json`` must clear, in one table.

    python benchmarks/check.py benchmarks/out/BENCH_throughput_quick.json [more reports…]

Each report names itself (its ``benchmark`` key; a report older than the
stamp, by its file name) and its scale (its ``quick`` key), and that selects
the rows of :data:`FLOORS` and the column of bounds it is held to.  Exit 0
when every selected row holds, 1 naming each row that does not.  It takes
report paths and nothing else: a bound is changed here, in review, not on a
command line.  (This table replaces ``--check-speedup``, ``--check-baseline``
and ``--check-flatten`` and the floors ``bench_crypto_ops.main`` carried.)

A *floor* judges a finished report.  What stays inside the scripts are the
assertions that a measurement is valid at all — the workload was fully
accepted, the audit ran, a detector curve trades latency for false
positives — because a run that fails one has no report worth writing.

Paths are dotted keys into the report; ``*`` is every child of a dict or
list, ``**.key`` every ``key`` at any depth, ``key=value`` the items of a
list whose ``key`` equals ``value`` (read as JSON; no dots).  A path that
selects nothing fails.
"""

from __future__ import annotations

import json
import operator
import sys
from pathlib import Path
from typing import Any, Iterator, NamedTuple

OUT_DIR = Path(__file__).resolve().parent / "out"


class Floor(NamedTuple):
    report: str
    path: str
    op: str
    quick: Any  # bound for a --quick report; None: not held at this scale
    full: Any  # bound for a full run
    why: str


_CRYPTO = "speedup over the in-file pre-acceleration replica (DESIGN §1.1), either key size"
_STAMPED = "every row of the campaign carries the runner's stamps"

FLOORS = (
    Floor("BENCH_crypto", "groups.*.fixed_base_pow.speedup", ">=", 1.3, 1.3,
          "byte-wide table of g over the cached width; " + _CRYPTO),
    Floor("BENCH_crypto", "groups.*.dsa_verify.speedup", ">=", 1.8, 1.8, _CRYPTO),
    Floor("BENCH_crypto", "groups.*.group_verify_roster16.speedup", ">=", 2.0, 2.0, _CRYPTO),
    Floor("BENCH_crypto", "groups.*.group_verify_hinted_roster16.speedup", ">=", 1.5, 1.5,
          "hinted verifier over the exact one at roster 16"),
    Floor("BENCH_crypto", "groups.*.group_sign_roster16.speedup", ">=", 1.5, 1.5,
          "witness-aware signer over the verifier-style signer at roster 16"),
    Floor("broker_throughput_pipeline", "best_speedup", ">=", 1.5, 2.0,
          "batch verify + group commit over scalar verify + fsync per request; full runs read "
          "about 2.4x, the one quick row on a shared runner with cold caches less"),
    Floor("broker_federation_load", "flatten_at_largest", "<=", 0.5, 0.35,
          "max per-shard load at M=4 over the M=1 load (perfect split 0.25); the quick workload "
          "is smaller, so sync fan-out weighs more"),
    Floor("BENCH_sim_scaling", "speedup.10000.speedup", ">=", 5.0, 10.0,
          "fast over reference engine at N=10^4, same run; quick is half the 10x headline so "
          "shared-runner noise does not flake"),
    Floor("BENCH_sim_scaling", "speedup.10000.fast_events_per_sec", ">= committed x", 0.4, None,
          "absolute floor against the committed full run: a shared runner is slower than the "
          "dev container, a hot-path slip past the in-run ratio still trips it"),
    Floor("BENCH_sim_scaling", "points.n_peers=1000000.total_s", "<=", None, 600.0,
          "the million-peer Setup-B point completes in ten minutes"),
    Floor("BENCH_sim_scaling", "points.n_peers=100000.peak_rss_kb", "<= committed x", 1.25, 1.25,
          "peak RSS of a point is a function of peers and coins (docs/SIMULATOR.md, What sets peak "
          "memory) and repeats to a megabyte; a quarter over the committed run means scratch space is back"),
    Floor("BENCH_sim_scaling", "points.n_peers=1000000.peak_rss_kb", "<= committed x", None, 1.25,
          "… and the same at the million-peer point"),
    Floor("BENCH_figures_scaled", "**.engine", "==", "fast", "fast",
          "every row ran on the default engine; " + _STAMPED),
    Floor("BENCH_figures_scaled", "**.wall_s", ">", 0, 0, _STAMPED),
    Floor("BENCH_figures_scaled", "**.events_per_sec", ">", 0, 0, _STAMPED),
    Floor("BENCH_figures_scaled", "**.peak_rss_kb", ">", 0, 0, _STAMPED),
    Floor("BENCH_liveness", "curves.*.points.*.detection_latency", ">", 0, 0,
          "a killed shard is detected at every operating point"),
    Floor("BENCH_liveness", "curves.*.points.phi_threshold=6.spurious_restarts_per_min", "==", 0, 0,
          "at the highest threshold swept, 35 % heartbeat loss restarts no live shard"),
    Floor("BENCH_recovery", "rows.*.audit_ok", "==", True, True,
          "the invariant audit passes after every replay"),
    Floor("BENCH_recovery", "snapshot_recovery.records_replayed", "==", 0, 0,
          "a snapshot covers the whole journal: nothing is replayed"),
)

_COMPARE = {">=": operator.ge, "<=": operator.le, ">": operator.gt, "==": operator.eq}
#: Suffix of an operator whose bound multiplies the committed full run's value.
_RELATIVE = " committed x"


def select(node: Any, path: str) -> Iterator[Any]:
    """Every value of ``node`` that ``path`` names (see the module docstring)."""
    head, _, rest = path.partition(".")
    if head == "**":
        children = node.values() if isinstance(node, dict) else node if isinstance(node, list) else ()
        if isinstance(node, dict) and rest in node:
            yield node[rest]
        for child in children:
            yield from select(child, path)
        return
    if head == "*":
        matched = list(node.values() if isinstance(node, dict) else node)
    elif "=" in head:
        key, _, want = head.partition("=")
        matched = [item for item in node if item.get(key) == json.loads(want)]
    else:
        matched = [node[head]] if isinstance(node, dict) and head in node else []
    for child in matched:
        if rest:
            yield from select(child, rest)
        else:
            yield child


def holds(op: str, value: Any, bound: Any, committed: Any = None) -> bool:
    """One comparison.  ``>= committed x`` / ``<= committed x``: against ``bound`` times ``committed``."""
    if op.endswith(_RELATIVE):
        if committed is None:
            return False
        op, bound = op.removesuffix(_RELATIVE), bound * committed
    return value is not None and _COMPARE[op](value, bound)


def check(report: dict, name: str, out_dir: Path = OUT_DIR) -> list[str]:
    """The failures of ``report`` (named ``name`` if it carries no stamp) against its rows."""
    name = report.get("benchmark", name)
    rows = [floor for floor in FLOORS if floor.report == name]
    if not rows:
        return [f"{name}: no floor is written for this report"]
    scale = "quick" if report["quick"] else "full"
    failures = []
    for floor in rows:
        bound = getattr(floor, scale)
        if bound is None:
            continue
        values = list(select(report, floor.path))
        committed = [None] * len(values)
        if floor.op.endswith(_RELATIVE):
            committed = list(select(json.loads((out_dir / f"{name}.json").read_text()), floor.path))
        for value, reference in zip(values, committed):
            if not holds(floor.op, value, bound, reference):
                versus = f"{bound} x {reference}" if reference is not None else repr(bound)
                failures.append(f"{name} [{scale}] {floor.path}: {value!r} not {floor.op} {versus} — {floor.why}")
        if not values:
            failures.append(f"{name} [{scale}] {floor.path}: selects nothing — {floor.why}")
    return failures


def main(argv: list[str]) -> int:
    if not argv or any(arg.startswith("-") for arg in argv):
        sys.exit("usage: python benchmarks/check.py <report.json>…  (report paths and nothing else)")
    failed = 0
    for arg in argv:
        path = Path(arg)
        failures = check(json.loads(path.read_text()), path.stem.removesuffix("_quick"))
        for line in failures:
            print(f"FAIL {line}")
        failed += len(failures)
        if not failures:
            print(f"ok   {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
