"""Broker throughput: one admission path, measured by window.

Every configuration replays the same seeded Zipf workload (downtime
transfers, renewals, purchases — fully signed wire envelopes from
:class:`repro.pipeline.loadgen.LoadGenerator`) against a journaled broker,
timing only the broker-side work
(:meth:`repro.pipeline.engine.ThroughputEngine.run`).  Every configuration
is the same code — the broker's own verification pool and a group
committer — and differs only in two windows:

* the **verify window** — how many requests share one pool fold
  (``verify_batch``);
* the **commit window** — how many journal records share one fsync (the
  committer's ``max_batch``).

``(1, 1)`` is a request served alone — one fold, one fsync — and the
baseline every row is divided by.  ``(32, 1)`` isolates the shared fold,
``(1, 32)`` group commit, ``(32, 32)`` and ``(8, 8)`` both.  Each
configuration runs :data:`RUNS` times, interleaved with the others, and
reports the median payments/s; ``speedup`` is a row's median over the
baseline's.

Entry points:

* ``python benchmarks/bench_throughput.py`` — full sweep; writes
  ``benchmarks/out/BENCH_throughput.json``, host and commit stamped.
* ``--quick`` — CI smoke: fewer ops, one row, artifact still written (to
  ``BENCH_throughput_quick.json`` unless ``--out`` says otherwise).

The floor — the best row's speedup — is a row of ``benchmarks/check.py``.
"""

from __future__ import annotations

import statistics
import tempfile
import time

from _common import report_main

from repro.crypto.params import PARAMS_TEST_512
from repro.pipeline import LoadGenerator, ThroughputEngine
from repro.store.groupcommit import GroupCommitter

SEED = 20060704
#: Roster size matters: scalar group verification is linear in the roster
#: while the batch verifier is nearly flat, and the paper's population is
#: 1000 peers — 16 is still a conservative stand-in.
PEERS = 16
COINS_PER_PEER = 2
#: (verify window, commit window) of each row; the baseline is (1, 1).
CONFIGS = ((32, 1), (1, 32), (32, 32), (8, 8))
QUICK_CONFIGS = ((16, 16),)
#: Runs per configuration (the median is reported): one run times 144
#: operations and swings by about ±30 % on a shared host.
RUNS = 5
QUICK_RUNS = 5


def run_config(ops_per_round: int, rounds: int, verify_window: int, commit_window: int) -> dict:
    """Replay the seeded workload through one pair of windows; one run's row."""
    with tempfile.TemporaryDirectory() as tmp:
        generator = LoadGenerator(
            peers=PEERS,
            coins_per_peer=COINS_PER_PEER,
            params=PARAMS_TEST_512,
            store_dir=tmp,
            seed=SEED,
        )
        broker = generator.broker
        engine = ThroughputEngine(
            broker,
            pool=broker.pool,
            committer=GroupCommitter(broker.store, max_batch=commit_window),
            verify_batch=verify_window,
        )
        accepted = 0
        fsyncs = 0
        elapsed = 0.0
        for _ in range(rounds):
            requests = generator.make_round(ops_per_round)
            wire = [(r.kind, r.src, r.data, r.idem) for r in requests]
            start = time.perf_counter()
            records, stats = engine.run(wire)
            elapsed += time.perf_counter() - start
            generator.absorb(records)
            accepted += stats.accepted
            fsyncs += stats.fsyncs
        ops = ops_per_round * rounds
        if accepted != ops:
            raise AssertionError(
                f"workload not fully accepted: {accepted}/{ops} "
                f"(windows {verify_window}, {commit_window})"
            )
        return {"ops": ops, "fsyncs": fsyncs, "payments_per_sec": ops / elapsed}


def run_sweep(quick: bool) -> dict:
    """The baseline and one row per configuration, each the median of its runs."""
    if quick:
        ops_per_round, rounds, configs, runs = 24, 2, QUICK_CONFIGS, QUICK_RUNS
    else:
        ops_per_round, rounds, configs, runs = 48, 3, CONFIGS, RUNS
    pairs = [(1, 1), *configs]
    samples: dict[tuple[int, int], list[dict]] = {pair: [] for pair in pairs}
    for _ in range(runs):
        for pair in pairs:  # interleaved: host drift hits every row alike
            samples[pair].append(run_config(ops_per_round, rounds, *pair))

    def row(pair: tuple[int, int]) -> dict:
        rates = [sample["payments_per_sec"] for sample in samples[pair]]
        return {
            "verify_window": pair[0],
            "commit_window": pair[1],
            "ops": samples[pair][0]["ops"],
            "fsyncs": samples[pair][0]["fsyncs"],
            "payments_per_sec": round(statistics.median(rates), 2),
            "runs_payments_per_sec": [round(rate, 2) for rate in rates],
        }

    baseline = row((1, 1))
    print(f"window (1, 1): {baseline['payments_per_sec']} payments/s over {baseline['ops']} ops")
    rows = []
    for pair in configs:
        entry = row(pair)
        entry["speedup"] = round(entry["payments_per_sec"] / baseline["payments_per_sec"], 2)
        rows.append(entry)
        print(
            f"window {pair}: {entry['payments_per_sec']} payments/s "
            f"({entry['speedup']}x, {entry['fsyncs']} fsyncs for {entry['ops']} ops)"
        )
    best = max(rows, key=lambda entry: entry["speedup"])
    return {
        "params": "PARAMS_TEST_512",
        "seed": SEED,
        "runs": runs,
        "workload": {
            "peers": PEERS,
            "coins_per_peer": COINS_PER_PEER,
            "ops_per_round": ops_per_round,
            "rounds": rounds,
            "mix": {"transfer": 0.6, "renewal": 0.25, "purchase": 0.15},
            "zipf_s": 1.1,
        },
        "baseline": baseline,
        "rows": rows,
        "best_speedup": best["speedup"],
        "best_config": {"verify_window": best["verify_window"], "commit_window": best["commit_window"]},
    }


if __name__ == "__main__":
    report_main("BENCH_throughput", run_sweep, __doc__, benchmark="broker_throughput_pipeline")
