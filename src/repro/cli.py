"""Command-line interface: ``python -m repro <command>``.

Four commands cover the common entry points without writing any code:

* ``sweep``  — run a Setup-A availability sweep (or Setup-B size sweep) for
  one (policy, sync) configuration and print the figure-style table;
* ``run``    — run a single simulation with explicit parameters (one point
  of a sweep: same engine selection) and print its operation counts and
  load summary;
* ``crypto`` — time the crypto substrate on this host (Table 2 style);
* ``figures`` — regenerate the data of Figures 2–11 (CSV + text report).

Examples::

    python -m repro sweep --policy I --sync lazy
    python -m repro sweep --setup B --policy III --full
    python -m repro run --peers 200 --days 3 --mu 4 --nu 2 --policy II.a
    python -m repro crypto --bits 1024
    python -m repro figures --out figures-out
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.analysis.tables import format_series_table, format_table
from repro.core.clock import DAY, HOUR
from repro.sim.config import SimConfig
from repro.sim.costs import BROKER_OPS, PEER_OPS
from repro.sim.policies import POLICIES, policy_by_name
from repro.sim.runner import run_availability_sweep, run_one, run_scaling_sweep


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WhoPay reproduction driver (simulation sweeps, single runs, crypto timing)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a Setup-A (availability) or Setup-B (size) sweep")
    sweep.add_argument("--setup", choices=("A", "B"), default="A")
    sweep.add_argument("--policy", choices=sorted(POLICIES), default="I")
    sweep.add_argument("--sync", choices=("proactive", "lazy"), default="proactive")
    sweep.add_argument("--nu", type=float, default=2.0, help="mean offline hours (Setup A)")
    sweep.add_argument("--full", action="store_true", help="paper scale (1000 peers, 10 days)")
    sweep.add_argument(
        "--parallel",
        action="store_true",
        help="fan sweep points over a process pool (identical rows, less wall-clock)",
    )

    single = sub.add_parser("run", help="run one simulation configuration")
    single.add_argument("--peers", type=int, default=150)
    single.add_argument("--days", type=float, default=5.0)
    single.add_argument("--mu", type=float, default=2.0, help="mean online hours")
    single.add_argument("--nu", type=float, default=2.0, help="mean offline hours")
    single.add_argument("--renewal-days", type=float, default=1.5)
    single.add_argument("--policy", choices=sorted(POLICIES), default="I")
    single.add_argument("--sync", choices=("proactive", "lazy"), default="proactive")
    single.add_argument("--heterogeneity", choices=("uniform", "powerlaw"), default="uniform")
    single.add_argument("--seed", type=int, default=20060704)

    crypto = sub.add_parser("crypto", help="time the crypto substrate (Table 2 style)")
    crypto.add_argument("--bits", type=int, choices=(512, 1024, 2048), default=1024)
    crypto.add_argument("--iterations", type=int, default=50)

    figures = sub.add_parser(
        "figures", help="regenerate every figure's data (CSV + text report)"
    )
    figures.add_argument("--out", default="figures-out", help="output directory")
    figures.add_argument("--full", action="store_true", help="paper scale (slow)")

    return parser


def _cmd_sweep(args: argparse.Namespace) -> int:
    policy = policy_by_name(args.policy)
    if args.setup == "A":
        rows = run_availability_sweep(
            policy,
            args.sync,
            small=not args.full,
            mean_offline_hours=args.nu,
            parallel=args.parallel,
        )
        x_label, x_values = "mu_hours", [r["mu_hours"] for r in rows]
    else:
        rows = run_scaling_sweep(policy, args.sync, small=not args.full, parallel=args.parallel)
        x_label, x_values = "n_peers", [r["n_peers"] for r in rows]
    print(format_series_table(
        x_label,
        x_values,
        {
            "purchases": [r["broker_purchase"] for r in rows],
            "dt_transfers": [r["broker_downtime_transfer"] for r in rows],
            "dt_renewals": [r["broker_downtime_renewal"] for r in rows],
            "syncs": [r["broker_sync"] for r in rows],
            "broker_cpu": [r["broker_cpu"] for r in rows],
            "cpu_ratio": [round(r["cpu_ratio"], 1) for r in rows],
            "broker_share": [round(r["broker_cpu_share"], 4) for r in rows],
        },
        title=f"Setup {args.setup}: policy {policy.name} + {args.sync} sync"
        + ("" if args.full else "  (reduced scale; --full for paper scale)"),
    ))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = SimConfig(
        n_peers=args.peers,
        duration=args.days * DAY,
        mean_online=args.mu * HOUR,
        mean_offline=args.nu * HOUR,
        renewal_period=args.renewal_days * DAY,
        policy=policy_by_name(args.policy),
        sync_mode=args.sync,
        heterogeneity=args.heterogeneity,
        seed=args.seed,
    )
    row = run_one(config)
    print(
        f"# {config.describe()}  [{row['engine']} engine: simulated {args.days:g} days, "
        f"{row['events']:,} events in {row['wall_s']:.2f}s]"
    )
    print(format_table(
        [
            {
                "operation": op,
                "per_peer_avg": round(row[f"peer_avg_{op}"], 2) if op in PEER_OPS else "",
                "at_broker": row[f"broker_{op}"] if op in BROKER_OPS else "",
            }
            for op in sorted({*PEER_OPS, *BROKER_OPS})
        ],
        ["operation", "per_peer_avg", "at_broker"],
        title="operation counts",
    ))
    print()
    print(format_table(
        [
            {"metric": "payments made", "value": row["payments_made"]},
            {"metric": "broker CPU load", "value": row["broker_cpu"]},
            {"metric": "broker/peer CPU ratio", "value": round(row["cpu_ratio"], 2)},
            {"metric": "broker share of CPU load", "value": round(row["broker_cpu_share"], 4)},
            {"metric": "broker share of comm load", "value": round(row["broker_comm_share"], 4)},
        ],
        ["metric", "value"],
        title="load summary",
    ))
    return 0


def _cmd_crypto(args: argparse.Namespace) -> int:
    from repro.crypto.dsa import dsa_generate, dsa_sign, dsa_verify
    from repro.crypto.params import PARAMS_1024_160, PARAMS_2048_256, PARAMS_TEST_512

    params = {512: PARAMS_TEST_512, 1024: PARAMS_1024_160, 2048: PARAMS_2048_256}[args.bits]
    iterations = args.iterations

    start = time.perf_counter()
    keypairs = [dsa_generate(params) for _ in range(iterations)]
    keygen_ms = 1000 * (time.perf_counter() - start) / iterations

    keypair = keypairs[0]
    messages = [b"m%d" % i for i in range(iterations)]
    start = time.perf_counter()
    signatures = [dsa_sign(keypair, m) for m in messages]
    sign_ms = 1000 * (time.perf_counter() - start) / iterations

    start = time.perf_counter()
    for message, signature in zip(messages, signatures):
        assert dsa_verify(keypair.public, message, signature)
    verify_ms = 1000 * (time.perf_counter() - start) / iterations

    print(format_table(
        [
            {"operation": f"DSA {args.bits}-bit key generation", "mean_ms": round(keygen_ms, 3)},
            {"operation": f"DSA {args.bits}-bit signature generation", "mean_ms": round(sign_ms, 3)},
            {"operation": f"DSA {args.bits}-bit signature verification", "mean_ms": round(verify_ms, 3)},
        ],
        ["operation", "mean_ms"],
        title=f"measured operation cost ({iterations} iterations; paper Table 2: 7.8 / 13.9 / 12.3 ms)",
    ))
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.sim.figures import generate_all

    figures = generate_all(small=not args.full, out_dir=args.out)
    print(f"wrote {len(figures)} figures ({', '.join(figures)}) to {args.out}/")
    print(f"scale: {'paper (1000 peers, 10 days)' if args.full else 'reduced (use --full for paper scale)'}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    commands = {"sweep": _cmd_sweep, "run": _cmd_run, "crypto": _cmd_crypto, "figures": _cmd_figures}
    return commands[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
