"""Broker throughput: batched verification + group commit vs scalar baseline.

The pipeline PR's acceptance artifact.  Every configuration replays the
same seeded Zipf workload (downtime transfers, renewals, purchases —
fully signed wire envelopes from :class:`repro.pipeline.loadgen.LoadGenerator`)
against a journaled broker, timing only the broker-side work
(:meth:`repro.pipeline.engine.ThroughputEngine.run`):

* **baseline** — no verification pool (the broker runs its own scalar
  group check per request) and no group commit (one fsync per request):
  the pre-pipeline state of the repo.
* **sweep rows** — one per batch size.  The batch size is used for both
  the verification batch and the group-commit ``max_batch``, so one knob
  moves both amortizers: randomized batch verification and one fsync per
  batch.

Entry points:

* ``python benchmarks/bench_throughput.py`` — full sweep; writes
  ``benchmarks/out/BENCH_throughput.json``, host and commit stamped.
* ``--quick`` — CI smoke: fewer ops, one row, artifact still written (to
  ``BENCH_throughput_quick.json`` unless ``--out`` says otherwise).

The floor — the best sweep row against the baseline rate — is a row of
``benchmarks/check.py``.
"""

from __future__ import annotations

import tempfile
import time

from _common import report_main

from repro.crypto.params import PARAMS_TEST_512
from repro.pipeline import LoadGenerator, ThroughputEngine, VerificationPool
from repro.store.groupcommit import GroupCommitter

SEED = 20060704
#: Roster size matters: scalar group verification is linear in the roster
#: while the batch verifier is nearly flat, and the paper's population is
#: 1000 peers — 16 is still a conservative stand-in.
PEERS = 16
COINS_PER_PEER = 2


def run_config(ops_per_round: int, rounds: int, batch: int | None) -> dict:
    """Replay the seeded workload through one pipeline configuration.

    ``batch=None`` is the baseline: no pool, no committer.  Returns the
    row dict for the JSON artifact.
    """
    with tempfile.TemporaryDirectory() as tmp:
        generator = LoadGenerator(
            peers=PEERS,
            coins_per_peer=COINS_PER_PEER,
            params=PARAMS_TEST_512,
            store_dir=tmp,
            seed=SEED,
        )
        pool = None
        committer = None
        if batch is not None:
            pool = VerificationPool(
                generator.params, generator.broker.public_key, [generator._gpk]
            )
            committer = GroupCommitter(generator.broker.store, max_batch=batch)
        engine = ThroughputEngine(
            generator.broker,
            pool=pool,
            committer=committer,
            verify_batch=batch or 1,
        )
        accepted = 0
        staged = 0
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
            staged += stats.staged
            fsyncs += stats.fsyncs
        ops = ops_per_round * rounds
        if accepted != ops:
            raise AssertionError(
                f"workload not fully accepted: {accepted}/{ops} (batch={batch})"
            )
        return {
            "mode": "baseline" if batch is None else "pipeline",
            "batch": batch,
            "ops": ops,
            "accepted": accepted,
            "staged": staged,
            "fsyncs": fsyncs,
            "seconds": round(elapsed, 4),
            "payments_per_sec": round(ops / elapsed, 2),
        }


def run_sweep(quick: bool) -> dict:
    """Baseline plus one row per batch size."""
    if quick:
        ops_per_round, rounds = 24, 2
        batches = [16]
    else:
        ops_per_round, rounds = 48, 3
        batches = [8, 32]
    baseline = run_config(ops_per_round, rounds, None)
    print(
        f"baseline (scalar verify, fsync/request): "
        f"{baseline['payments_per_sec']} payments/s over {baseline['ops']} ops"
    )
    rows = []
    for batch in batches:
        row = run_config(ops_per_round, rounds, batch)
        row["speedup"] = round(
            row["payments_per_sec"] / baseline["payments_per_sec"], 2
        )
        rows.append(row)
        print(
            f"batch={batch}: {row['payments_per_sec']} payments/s "
            f"({row['speedup']}x, {row['fsyncs']} fsyncs for {row['ops']} ops)"
        )
    best = max(rows, key=lambda row: row["speedup"])
    return {
        "params": "PARAMS_TEST_512",
        "seed": SEED,
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
        "best_config": {"batch": best["batch"]},
    }


if __name__ == "__main__":
    report_main("BENCH_throughput", run_sweep, __doc__, benchmark="broker_throughput_pipeline")
