"""Recovery-cost benchmark: journal replay time vs journal length.

Not a paper artifact — engineering instrumentation for the durability layer
(DESIGN.md's crash-consistency section).  Measures how long
:class:`repro.store.recovery.RecoveryManager` takes to rebuild a broker
whose journal holds N mint records (replay applies each mutation, refills
the replay cache, batch-re-verifies every signature, and audits the
result), and how much a snapshot+compaction shortens it.

Two entry points:

* ``pytest benchmarks/bench_recovery.py --benchmark-only`` — pytest-benchmark
  timing of one mid-sized recovery;
* ``python benchmarks/bench_recovery.py [--quick]`` — the replay-length
  sweep; prints the table and writes machine-readable rows to
  ``benchmarks/out/BENCH_recovery.json`` (floors: ``check.py``).
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from _common import report_main

from repro.core.network import PeerConfig, WhoPayNetwork
from repro.crypto.params import PARAMS_TEST_512

SIZES = (8, 32, 128)
QUICK_SIZES = (4, 16)


def _build_net(store_root, n_records: int) -> WhoPayNetwork:
    """A broker whose journal holds ``n_records`` mint records."""
    net = WhoPayNetwork(params=PARAMS_TEST_512, store_dir=store_root)
    peer = net.add_peer("buyer", PeerConfig(balance=n_records))
    for _ in range(n_records):
        peer.purchase()
    return net


def _timed_restart(net: WhoPayNetwork):
    start = time.perf_counter()
    result = net.restart_broker()
    return time.perf_counter() - start, result


def measure(quick: bool) -> dict:
    sizes = QUICK_SIZES if quick else SIZES
    rows = []
    for n_records in sizes:
        with tempfile.TemporaryDirectory() as root:
            net = _build_net(Path(root), n_records)
            elapsed, result = _timed_restart(net)
            assert result.audit is not None  # its verdict is a floor (check.py)
            # One mint record a purchase, +2 bookkeeping: broker_init and open_account.
            assert result.records_replayed == n_records + 2
            rows.append(
                {
                    "journal_records": result.records_replayed,
                    "recovery_seconds": elapsed,
                    "records_per_second": result.records_replayed / elapsed,
                    "audit_ok": result.audit.ok,
                }
            )
    # Snapshot + compaction at the largest size: replay drops to zero.
    with tempfile.TemporaryDirectory() as root:
        net = _build_net(Path(root), sizes[-1])
        net.snapshot_broker()
        elapsed, result = _timed_restart(net)
        assert result.snapshot_loaded  # that nothing is replayed is a floor
        snapshot_row = {
            "journal_records_covered": sizes[-1],
            "records_replayed": result.records_replayed,
            "recovery_seconds": elapsed,
        }
    print(f"{'records':>8}  {'seconds':>9}  {'records/s':>10}")
    for row in rows:
        print(
            f"{row['journal_records']:>8}  {row['recovery_seconds']:>9.4f}  "
            f"{row['records_per_second']:>10.1f}"
        )
    print(f"snapshot over {sizes[-1]} records: {elapsed:.4f}s (0 replayed)")
    return {
        "params": "512-bit test group",
        "workload": "N coin purchases (one mint record each)",
        "rows": rows,
        # Longest over shortest replay: a floor at full size only (check.py).
        "replay_growth": rows[-1]["recovery_seconds"] / rows[0]["recovery_seconds"],
        "snapshot_recovery": snapshot_row,
    }


def test_bench_broker_recovery(benchmark, tmp_path):
    net = _build_net(tmp_path, 32)

    def cycle():
        return net.restart_broker()

    result = benchmark.pedantic(cycle, rounds=3, iterations=1)
    assert result.audit is not None and result.audit.ok


if __name__ == "__main__":
    report_main("BENCH_recovery", measure, __doc__)
