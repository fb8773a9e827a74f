#!/usr/bin/env python3
"""The repo benchmark: one command, six workloads, every metric by name.

    python3 benchmarks/e2e/run.py                      # every workload once
    python3 benchmarks/e2e/run.py --workload peer_ops_m1 --seed 7
    python3 benchmarks/e2e/run.py --trace 1            # the per-layer run

A run of one workload sets it up several times (median → ``setup_s``), measures whole units of its work until ``--seconds`` have
passed (timings are medians over the quieter half of those units), checks
the outputs, prints every metric with its unit and ends with
one JSON line ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` half
the time runs untraced, half traced, and the metrics are the per-layer
ones.  End-to-end numbers never come from a traced pass.

Without ``--workload`` each workload runs in a child process of its own (so
peak RSS is per workload) and one envelope is written under ``out/``.

See README.md beside this file for what each number means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
WORK = HERE / ".work"  # journals live here: inside the checkout, git-ignored
OUT = HERE / "out"

#: Peak RSS is read once this many units are done, not when time is up: the
#: program's state grows with every operation (about 150 kB a cycle), so at
#: the end of a timed run it would say how fast the host was.
RSS_AFTER_UNITS = 10

#: (name, unit, better) of the end-to-end metrics; every workload has all.
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def load_program() -> None:
    """Make ``repro`` importable from this checkout, or refuse to run."""
    source = REPO / "src"
    if not (source / "repro").is_dir():
        sys.exit(f"run.py: no program to measure: {source / 'repro'} is missing")
    sys.path.insert(0, str(source))


def pin_to_one_core() -> None:
    """One process, one thread, one core — the highest-numbered one allowed."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def set_up(entry: Any, seed: int, scratch: Path, entropy: Any) -> tuple[Any, list[float]]:
    """Build the workload ``entry.setup_repeats`` times; keep the last.

    Every repeat gets the same inputs and cold fixed-base tables, so each
    does the first one's work.  Returns the workload and the calibrated
    set-up times.
    """
    from hostspeed import reference_seconds, slowdown
    from repro.crypto import fastexp

    workload = None
    setups = []
    for repeat in range(entry.setup_repeats):
        if workload is not None:
            workload.close()
        entropy.seed(seed)
        fastexp.clear_caches()
        gc.collect()
        workdir = scratch / f"setup{repeat}"
        workdir.mkdir()
        before = reference_seconds()
        start = time.perf_counter()
        workload = entry.build(seed, workdir)
        seconds = time.perf_counter() - start
        setups.append(seconds / slowdown(before, reference_seconds()))
    return workload, setups


def measure(
    workload: Any, seconds: float, max_units: int | None
) -> tuple[list, list[str], float]:
    """Run whole units until the time (or the unit cap) is used up.

    The reference loop is timed between units, so that each unit knows how
    slow the host was while it ran.  Returns the units, the errors that
    stopped the pass early, and the peak RSS at :data:`RSS_AFTER_UNITS`
    units (at the end, if the pass stopped sooner).
    """
    from hostspeed import reference_seconds, slowdown
    from repro.core.errors import ProtocolError
    from repro.net.transport import NetworkError

    units: list = []
    errors: list[str] = []
    rss = None
    gc.collect()
    deadline = time.perf_counter() + seconds
    before = reference_seconds()
    while max_units is None or len(units) < max_units:
        try:
            unit = workload.run_unit()
        except (ProtocolError, NetworkError) as exc:
            errors.append(f"{type(exc).__name__}: {exc}")
            break
        after = reference_seconds()
        unit.slowdown = slowdown(before, after)
        before = after
        units.append(unit)
        if len(units) == RSS_AFTER_UNITS:
            rss = peak_rss_mb()
        if unit.failed or time.perf_counter() >= deadline:
            break
    return units, errors, peak_rss_mb() if rss is None else rss


def per_operation(units: list) -> float:
    """Median seconds per operation over the quieter half of ``units``."""
    from workloads import quiet_half

    return statistics.median(unit.seconds / unit.ops for unit in quiet_half(units))


@dataclass
class Measured:
    """What the measuring phase of one run produced."""

    units: list  # every unit run, as timed
    untraced: list  # the untraced pass's units, calibrated
    errors: list[str]
    metrics: dict[str, float]
    samples: dict[str, int]


def measure_end_to_end(
    workload: Any, setups: list[float], seconds: float, max_units: int | None
) -> Measured:
    """``--trace 0``: one untraced pass, the four numbers every workload has."""
    from workloads import quiet_half

    units, errors, rss = measure(workload, seconds, max_units)
    untraced = [unit.calibrated() for unit in units]
    metrics = {}
    if units:
        latencies = [
            seconds
            for unit in quiet_half(untraced)
            for label, seconds in unit.samples
            if label == workload.headline
        ]
        metrics = {
            "ops_per_s": 1.0 / per_operation(untraced),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
        }
    return Measured(units, untraced, errors, metrics, {"setup_s": len(setups)})


def measure_per_layer(workload: Any, seconds: float, max_units: int | None) -> Measured:
    """``--trace 1``: half the time untraced, then half traced."""
    from layers import PER_LAYER, instrument, layer_metrics
    from tracer import Tracer

    plain, errors, _rss = measure(workload, seconds / 2, max_units)
    untraced = [unit.calibrated() for unit in plain]
    if not plain:
        return Measured(plain, untraced, errors, {}, {})
    with Tracer() as tracer:
        instrument(tracer)
        before = workload.counters()
        traced, more, _rss = measure(workload, seconds / 2, max_units)
        after = workload.counters()
    calibrated = [unit.calibrated() for unit in traced]
    wall = sum(unit.seconds for unit in traced)
    metrics = dict.fromkeys((key for key, _unit, _better in PER_LAYER), 0.0)
    metrics.update(
        layer_metrics(
            tracer,
            workload.timed_roots,
            ops=sum(unit.ops for unit in traced),
            traced_wall=wall,
            slowdown=wall / sum(unit.seconds for unit in calibrated),
            counters={key: after[key] - before[key] for key in after},
        )
    )
    metrics["trace.overhead_ratio"] = per_operation(calibrated) / per_operation(untraced)
    metrics["trace.host_slowdown"] = statistics.median(unit.slowdown for unit in plain + traced)
    samples = {"units_traced": len(traced), "spans": len(tracer.spans)}
    return Measured(plain + traced, untraced, errors + more, metrics, samples)


def run_workload(
    name: str, seed: int, seconds: float, trace: int, max_units: int | None
) -> dict[str, Any]:
    """Set up, measure, check one workload; returns its envelope entry."""
    from layers import PER_LAYER
    from workloads import WORKLOADS, seeded_entropy

    entry = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    workload = None
    try:
        with seeded_entropy(seed) as entropy:
            workload, setups = set_up(entry, seed, scratch, entropy)
            if trace:
                measured = measure_per_layer(workload, seconds, max_units)
            else:
                measured = measure_end_to_end(workload, setups, seconds, max_units)
            if not measured.units:
                sys.exit(f"{name}: the first unit failed: {measured.errors}")
            failures = workload.gate()
            if trace:
                measured.metrics.update(workload.extras(measured.untraced))
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(scratch, ignore_errors=True)

    samples = measured.samples
    samples["units"] = len(measured.untraced)
    for unit in measured.untraced:
        for label, _seconds in unit.samples:
            samples[label] = samples.get(label, 0) + 1
    units_of = {key: unit for key, unit, _better in (PER_LAYER if trace else END_TO_END)}
    attempted = sum(unit.ops for unit in measured.units) + len(measured.errors)
    failed = sum(unit.failed for unit in measured.units) + len(measured.errors)
    return {
        "why": entry.why,
        "params": entry.params,
        "operation": workload.operation,
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "gate_failures": failures + measured.errors,
        "host_slowdown": statistics.median(unit.slowdown for unit in measured.units),
        "metrics": {
            key: {"value": value, "unit": units_of[key]} for key, value in measured.metrics.items()
        },
        "samples": samples,
    }


def report(name: str, seed: int, trace: int, entry: dict[str, Any]) -> None:
    print(
        f"{name} seed={seed} trace={trace}: {entry['attempted']} x {entry['operation']}, "
        f"{entry['failed']} failed, outputs {'correct' if entry['correct'] else 'WRONG'}"
    )
    for failure in entry["gate_failures"]:
        print(f"  FAILED: {failure}")
    for key, metric in entry["metrics"].items():
        print(f"  {key:<40} {metric['value']:>16.6g} {metric['unit']}")


def write_envelope(path: Path, seed: int, seconds: float, trace: int, workloads: dict) -> None:
    from envelope import envelope

    document = envelope(
        "e2e",
        REPO,
        WORK if WORK.exists() else HERE,
        seed,
        {"run_seconds": seconds, "trace": trace, "rss_after_units": RSS_AFTER_UNITS},
        workloads,
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2) + "\n")


def spawn(name: str, seed: int, seconds: float, trace: int, *more: str) -> subprocess.CompletedProcess:
    """One workload in a process of its own, invoked the way the driver does."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), *more,
    ]
    return subprocess.run(command, capture_output=True, text=True, timeout=900, check=False)


def run_all(args: argparse.Namespace, names: list[str]) -> int:
    """Every workload in a child process of its own; one envelope out."""
    WORK.mkdir(exist_ok=True)
    workloads: dict[str, Any] = {}
    more = [] if args.units is None else ["--units", str(args.units)]
    for name in names:
        with tempfile.TemporaryDirectory(dir=WORK) as scratch:
            detail = Path(scratch) / "detail.json"
            done = spawn(name, args.seed, args.seconds, args.trace, "--out", str(detail), *more)
            sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")  # all but the JSON line
            sys.stderr.write(done.stderr)
            if not detail.exists():
                print(f"{name}: no result (exit {done.returncode})")
                return 1
            workloads.update(json.loads(detail.read_text())["workloads"])
    default = OUT / ("BENCH_e2e_trace.json" if args.trace else "BENCH_e2e.json")
    path = args.out if args.out is not None else default
    write_envelope(path, args.seed, args.seconds, args.trace, workloads)
    print(f"wrote {path}")
    return 0 if all(entry["correct"] for entry in workloads.values()) else 1


def main(argv: list[str] | None = None) -> int:
    run_seconds = json.loads((REPO / "BENCHMARK.json").read_text())["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None, help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=1, help="the only workload input")
    parser.add_argument("--seconds", type=float, default=run_seconds, help="measuring time per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the per-layer run (half untraced, half traced)")
    parser.add_argument("--units", type=int, default=None,
                        help="stop each pass after this many units, so that counts repeat exactly")
    parser.add_argument("--out", type=Path, default=None, help="write the envelope here")
    args = parser.parse_args(argv)
    load_program()
    from workloads import WORKLOADS

    if args.workload is None:
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    pin_to_one_core()
    entry = run_workload(args.workload, args.seed, args.seconds, args.trace, args.units)
    report(args.workload, args.seed, args.trace, entry)
    if args.out is not None:
        write_envelope(args.out, args.seed, args.seconds, args.trace, {args.workload: entry})
    print(json.dumps({key: entry[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if entry["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
