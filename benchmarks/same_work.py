#!/usr/bin/env python3
"""Same work, as a command: the counts a refactor must not move.

    python3 benchmarks/same_work.py            # compare with out/BENCH_counts.json
    python3 benchmarks/same_work.py --write    # regenerate that file

Each of the five protocol workloads runs once through ``benchmarks/e2e/run.py
--seed 1 --units 40 --trace 1`` in a child process, with ``--seconds`` so large
that the unit cap, not the clock, ends each pass.  Under the harness's seeded
entropy every metric whose unit is ``count`` or ``B`` (calls, messages, fsyncs,
wire and journal bytes per operation) then repeats bit for bit, so a change
that claims to do the same work must reproduce the committed file exactly.
``sim_setup_b`` runs the same way capped at 3 units (three 2M-event runs); no
protocol layer runs in it, so its counts are the simulator's own two,
``sim.events`` and ``sim.payments_made``.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

from e2e.envelope import commit_stamp

HERE = Path(__file__).resolve().parent
COMMITTED = HERE / "out" / "BENCH_counts.json"
SEED, UNITS, SECONDS = 1, 40, 3600
#: workload -> (unit cap, prefix of the count metrics that are its work)
WORKLOADS = {
    **dict.fromkeys(("peer_ops_m1", "peer_ops_m3", "peer_ops_1024", "detect_lazy", "broker_batch"), (UNITS, "")),
    "sim_setup_b": (3, "sim."),
}


def counts(workload: str) -> dict[str, float]:
    """The ``count`` and ``B`` metrics of one capped, traced run of ``workload``."""
    units, prefix = WORKLOADS[workload]
    command = [
        sys.executable, str(HERE / "e2e" / "run.py"), "--workload", workload, "--seed", str(SEED),
        "--units", str(units), "--seconds", str(SECONDS), "--trace", "1",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=1800, check=False)
    if done.returncode != 0:
        sys.exit(f"{workload}: run.py exited {done.returncode}\n{done.stdout}{done.stderr}")
    metrics = json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])["metrics"]
    return {
        key: m["value"] for key, m in metrics.items() if m["unit"] in ("count", "B") and key.startswith(prefix)
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help=f"regenerate {COMMITTED.name}")
    args = parser.parse_args()
    measured = {workload: counts(workload) for workload in WORKLOADS}
    if args.write:
        document = {
            "benchmark": "same_work", "commit": commit_stamp(HERE.parent)["rev"], "python": platform.python_version(),
            "seed": SEED, "units": {workload: units for workload, (units, _) in WORKLOADS.items()},
            "workloads": measured,
        }
        COMMITTED.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"wrote {COMMITTED}")
        return 0
    committed = json.loads(COMMITTED.read_text())
    differing = 0
    for workload in WORKLOADS:
        want = committed["workloads"].get(workload, {})
        for key in sorted(want.keys() | measured[workload].keys()):
            if want.get(key) != measured[workload].get(key):
                differing += 1
                print(f"{workload} {key}: committed {want.get(key)}, measured {measured[workload].get(key)}")
    print(
        f"{sum(map(len, measured.values()))} counts over {len(WORKLOADS)} workloads, {differing} differ "
        f"from {COMMITTED.name} (commit {committed['commit']}, Python {committed['python']})"
    )
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
