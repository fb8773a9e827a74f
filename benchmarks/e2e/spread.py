#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, against its bound.

    python3 benchmarks/e2e/spread.py [--runs 10] [--first-seed 1] [--workload NAME]

Runs each workload ``--runs`` times, every time with another seed, exactly
as the driver does (``run.py --workload W --seed N --seconds S --trace 0``),
and reports for each metric its median and the distance between its first
and third quartile as a share of the median.  A bound in ``BENCHMARK.json``
is only worth having if that spread stays well inside it (a third of it is
the target), so this is the evidence to commit next to a bound — and to
re-run before widening or tightening one.  Writes
``out/BENCH_e2e_spread.json`` and exits 1 if any spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from envelope import envelope
from run import HERE, REPO, spawn


def main(argv: list[str] | None = None) -> int:
    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--out", type=Path, default=HERE / "out" / "BENCH_e2e_spread.json")
    args = parser.parse_args(argv)
    names = args.workload or [workload["name"] for workload in contract["workloads"]]
    bounds = {metric["name"]: metric["bound"] for metric in contract["end_to_end"]}
    seconds = contract["run_seconds"]

    workloads: dict[str, dict] = {}
    worst = 0.0
    for name in names:
        values: dict[str, list[float]] = {metric: [] for metric in bounds}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            start = time.perf_counter()
            done = spawn(name, seed, seconds, 0)
            walls.append(time.perf_counter() - start)
            if done.returncode != 0:
                sys.stderr.write(done.stdout + done.stderr)
                return 1
            result = json.loads(done.stdout.strip().rsplit("\n", 1)[-1])
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
        rows = {}
        for metric, series in values.items():
            low, _mid, high = statistics.quantiles(series, n=4)
            spread = (high - low) / statistics.median(series)
            rows[metric] = {
                "median": statistics.median(series),
                "iqr_over_median": spread,
                "bound": bounds[metric],
                "values": series,
            }
            if metric != "setup_s":  # the driver does not hold set-up to its spread
                worst = max(worst, spread / bounds[metric])
            print(f"{name:<14} {metric:<12} median {rows[metric]['median']:>14.6g}  "
                  f"IQR/median {spread:6.3f}  bound {bounds[metric]:.2f}")
        workloads[name] = {"metrics": rows, "run_wall_s": walls}
        print(f"{name:<14} wall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")

    document = envelope(
        "e2e_spread", REPO, HERE, args.first_seed,
        {"runs": args.runs, "run_seconds": seconds, "seeds": [args.first_seed, args.first_seed + args.runs - 1]},
        workloads,
    )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {args.out}; worst spread is {worst:.2f} of its bound")
    return 0 if worst <= 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
