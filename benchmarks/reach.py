#!/usr/bin/env python3
"""Which ``src`` functions does any entry point run?  The reach map.

    python3 benchmarks/reach.py            # write benchmarks/out/REACH.txt
    python3 benchmarks/reach.py --check    # exit 1 on an unclassified unreached function

Every entry point runs in a fresh copy of the checkout (so nothing it writes
lands in the tree) with a generated ``sitecustomize`` first on
``PYTHONPATH``.  It installs ``sys.setprofile`` (and ``threading.setprofile``)
in every interpreter that starts: the entry point itself, e2e's
per-workload children, ``_common.run_point``'s children and the sim runner's
pool workers, which inherit the hook through ``fork``.  The hook appends one
line per ``src`` code object a process enters, on first entry, to one log
opened ``O_APPEND``, so ``os._exit`` in a pool worker loses nothing.

The entry points are the eight examples, the six e2e workloads at
``--units 2`` (traced and untraced halves), ``python -m repro.lint`` (text,
JSON, SARIF and CI's alias fixture), every script bench at ``--quick``,
``pytest benchmarks --benchmark-only``, the README's ``python -m repro``
commands and the ``--parallel`` sweep.  The tier-1 suite then runs under the
same hook, only to tell a test-only function from a dead one.

Each row of ``REACH.txt`` is one function (``def``, nested ones included)
with its lines and a class:

* ``reached``   — an entry point entered it;
* ``fault``     — on :data:`FAULT_PATHS`: only crash and chaos tests drive it,
  by design;
* ``test-only`` — only the tier-1 suite enters it;
* ``dead``      — nothing enters it.

A ``test-only`` or ``dead`` row stays only with a tag in :data:`KEPT`, whose
sentence in DESIGN.md §1.10 ("What the reach map keeps") names the
requirement that keeps it; a row without one is printed with ``?``.
``--check`` re-runs the map and fails on any unreached function that the
committed ``REACH.txt`` does not list as unreached (a new function nothing
calls, or a reached one that stopped being reached), and on any ``?`` row.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "benchmarks" / "out" / "REACH.txt"
COPIED = ("src", "benchmarks", "examples", "tests", "pyproject.toml", "BENCHMARK.json")

#: Functions only crash and chaos tests drive, by design: the crash harness
#: and the recovery half of a fault, which no healthy run reaches.
#: ``path:qualname`` prefixes.
FAULT_PATHS = (
    "repro/store/crashpoints.py:",
    "repro/store/journal.py:DurableStore.truncate_torn_tail",
    "repro/store/records.py:restore_owned",
    "repro/store/apply.py:_check_unmint",
    "repro/store/apply.py:_apply_unmint",
    "repro/store/apply.py:_apply_handoff_abort",
    "repro/store/apply.py:_apply_pending_sync",
    "repro/store/apply.py:_signed_envelope",
    "repro/core/network.py:WhoPayNetwork.arm_crash_points",
    "repro/core/broker.py:Broker._published_orphan",
    "repro/net/transport.py:Transport.set_crash_handler",
    "repro/net/transport.py:Transport._node_crashed",
    "repro/net/rpc.py:RpcClient.call.<locals>.deadline_exceeded",
)

#: Why each test-only or dead function stays: ``path:qualname`` prefix ->
#: the tag of its sentence in DESIGN.md §1.10 ("What the reach map keeps").
KEPT = (
    ("repro/lint/", "lint"),
    ("repro/sim/engine.py:FastSimulation._deposit_purchase_issue", "paper"),
    ("repro/core/broker.py:Broker._handle_binding_query", "paper"),
    ("repro/core/clients.py:BrokerClient.binding_query", "paper"),
    ("repro/core/anonymous_owner.py:AnonymousOwnerPeer.release_handle", "paper"),
    ("repro/indirection/i3.py:", "paper"),
    ("repro/dht/chord.py:ChordNode.leave", "paper"),
    ("repro/crypto/params.py:", "params"),
    ("repro/crypto/primitives.py:", "params"),
    ("repro/crypto/keys.py:", "params"),
    ("repro/crypto/group_signature.py:GroupSignature.encode", "encode"),
    ("repro/crypto/dsa.py:DsaSignature.encode", "encode"),
    ("repro/crypto/schnorr.py:SchnorrProof.encode", "encode"),
    ("repro/sim/metrics.py:SimMetrics.count_", "oracle"),
    ("repro/sim/runner.py:", "oracle"),
    ("repro/crypto/fastexp.py:Fold.defer", "contract"),
    ("repro/crypto/hashchain.py:", "contract"),
    ("repro/core/clock.py:Clock.advance_to", "contract"),
    ("repro/core/supervision.py:LeaseGatedSupervision.detach", "contract"),
    ("repro/pipeline/verify.py:VerificationPool.__e", "contract"),
    *((f"repro/{name}", "inspect") for name in (
        "core/brokerapi.py:ShardRouter.shard_for_coin",
        "core/brokerapi.py:ShardRouter.total_opened",
        "core/coinshop.py:CoinShop.stock_size",
        "core/judge.py:Judge.is_expelled",
        "crypto/group_signature.py:GroupManager.is_expelled",
        "crypto/group_signature.py:GroupManager.opening_keypair",
        "core/sharding.py:ShardMap.__eq__",
        "core/sharding.py:ShardMap.spread",
        "core/supervision.py:LeaseGatedSupervision.last_seen_table",
        "net/liveness.py:LeaseTable.expires_at",
        "net/rpc.py:ReplayCache.__len__",
        "crypto/dsa.py:DsaNoncePool.__len__",
        "store/groupcommit.py:GroupCommitter.pending",
        "net/transport.py:FaultStats.as_dict",
        "net/transport.py:Transport.counter",
        "net/transport.py:Transport.addresses",
        "dht/notify.py:NotificationHub.subscriber_count",
    )),
)

_SITECUSTOMIZE = '''\
import os, sys, threading
_fd = os.open({log!r}, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
_root = {root!r}
_seen = {{}}


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _seen:
            _seen[id(code)] = code
            if code.co_filename.startswith(_root):
                line = "%s\\t%d\\t%s\\n" % (code.co_filename[len(_root):], code.co_firstlineno, code.co_qualname)
                os.write(_fd, line.encode())


_setprofile = sys.setprofile
_setprofile(_profile)
threading.setprofile(_profile)
# pytest-benchmark pauses any profiler while it times a benchmark's body
# (``PauseInstrumentation``): the map's hook does not step aside.
sys.setprofile = lambda function: None
# A cProfile run (the sim runner's ``WHOPAY_PROFILE`` hook, which tests
# drive) takes the hook over and clears it when it stops: put it back.
import cProfile
_disable = cProfile.Profile.disable


def _reinstall(self):
    _disable(self)
    _setprofile(_profile)


cProfile.Profile.disable = _reinstall
'''


def entry_points(out: Path) -> list[tuple[list[str], int]]:
    """Every command a user or CI runs, with the exit status it must end with."""
    py = sys.executable
    examples = sorted(p.name for p in (ROOT / "examples").glob("*.py"))
    benches = ("bench_crypto_ops", "bench_throughput", "bench_federation", "bench_liveness",
               "bench_scaling_million", "bench_figures_scaled", "bench_recovery")
    commands = [
        *([py, f"examples/{name}"] for name in examples),
        [py, "benchmarks/e2e/run.py", "--units", "2", "--trace", "1", "--out", str(out / "e2e.json")],
        [py, "-m", "repro.lint"],
        [py, "-m", "repro.lint", "--format", "json"],
        [py, "-m", "repro.lint", "--format", "sarif"],
        *([py, f"benchmarks/{name}.py", "--quick", "--out", str(out / f"{name}.json")] for name in benches),
        [py, "-m", "pytest", "benchmarks", "--benchmark-only", "-q", "-p", "no:cacheprovider"],
        [py, "-m", "repro", "sweep", "--policy", "I", "--sync", "lazy"],
        [py, "-m", "repro", "sweep", "--setup", "B", "--policy", "I", "--sync", "proactive", "--parallel"],
        [py, "-m", "repro", "run", "--peers", "300", "--mu", "4", "--policy", "III"],
        [py, "-m", "repro", "crypto", "--bits", "1024"],
        [py, "-m", "repro", "figures", "--out", str(out / "figures")],
    ]
    # CI's alias check: the fixture's thirteen forbidden calls must be findings.
    failing = [py, "-m", "repro.lint", "tests/lint/fixtures/alias_bad_core.py"]
    return [(argv, 0) for argv in commands] + [(failing, 1)]


def traced(copy: Path, log: Path, commands: list[tuple[list[str], int | None]]) -> set[tuple[str, int, str]]:
    """Run ``commands`` in ``copy`` under the hook; every code object entered."""
    hook = copy / ".reach"
    hook.mkdir(exist_ok=True)
    root = str(copy / "src") + os.sep
    (hook / "sitecustomize.py").write_text(_SITECUSTOMIZE.format(log=str(log), root=root))
    env = {**os.environ, "PYTHONPATH": f"{hook}{os.pathsep}{copy / 'src'}", "PYTHONHASHSEED": "0"}
    for name in ("WHOPAY_FULL", "WHOPAY_PARALLEL", "WHOPAY_PROFILE"):
        env.pop(name, None)
    for argv, status in commands:
        started = time.perf_counter()
        done = subprocess.run(argv, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, check=False)
        shown = " ".join(argv[1:])
        print(f"reach: {time.perf_counter() - started:6.1f} s  exit {done.returncode}  {shown}", file=sys.stderr)
        if status is not None and done.returncode != status:
            sys.stderr.write(done.stderr[-2000:])
            sys.exit(f"reach: {shown} exited {done.returncode}, not {status}")
    entered = set()
    for line in log.read_text().splitlines():
        path, first, qualname = line.split("\t")
        entered.add((path, int(first), qualname))
    return entered


def functions(src: Path) -> list[tuple[str, int, int, str]]:
    """``(path, first line, last line, qualname)`` of every ``def`` under ``src``."""
    rows = []

    def walk(path: str, node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                rows.append((path, first, child.end_lineno, prefix + child.name))
                walk(path, child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(path, child, f"{prefix}{child.name}.")
            else:
                walk(path, child, prefix)

    for file in sorted(src.rglob("*.py")):
        path = file.relative_to(src).as_posix()
        walk(path, ast.parse(file.read_text(), str(file)), "")
    return rows


def classify(src: Path, reached: set, tested: set) -> list[tuple[str, int, str, str]]:
    """``(class, lines, path:qualname, why)`` per function, in file order."""
    rows = []
    for path, first, last, qualname in functions(src):
        key = (path, first, qualname)
        name = f"{path}:{qualname}"
        why = ""
        if key in reached:
            kind = "reached"
        elif name.startswith(FAULT_PATHS):
            kind = "fault"
        else:
            kind = "test-only" if key in tested else "dead"
            why = next((tag for prefix, tag in KEPT if name.startswith(prefix)), "?")
        rows.append((kind, last - first + 1, name, why))
    return rows


def render(rows: list[tuple[str, int, str, str]]) -> str:
    totals: dict[str, list[int]] = {}
    for kind, lines, _name, _why in rows:
        count = totals.setdefault(kind, [0, 0])
        count[0] += 1
        count[1] += lines
    head = ["# The reach map of src/repro: python3 benchmarks/reach.py (see its docstring).",
            "# class      functions  lines"]
    for kind in ("reached", "fault", "test-only", "dead"):
        functions_, lines = totals.get(kind, (0, 0))
        head.append(f"# {kind:<10} {functions_:>9}  {lines:>5}")
    body = [f"{kind:<10} {lines:>5}  {name}  {why}".rstrip() for kind, lines, name, why in rows]
    return "\n".join(head + body) + "\n"


def committed_unreached() -> set[str]:
    """The functions the committed map lists as not reached (any class)."""
    if not OUT.exists():
        return set()
    rows = (line.split() for line in OUT.read_text().splitlines() if not line.startswith("#"))
    return {row[2] for row in rows if row[0] != "reached"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="write nothing; exit 1 if an unreached function is not in the committed map")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        copy = Path(tmp) / "tree"
        copy.mkdir()
        ignore = shutil.ignore_patterns("__pycache__", ".work", ".hypothesis", ".benchmarks")
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=ignore)
            else:
                shutil.copy2(source, copy / name)
        out = Path(tmp) / "out"
        out.mkdir()
        reached = traced(copy, Path(tmp) / "entry.log", entry_points(out))
        # Whether the suite passes under the hook is tier-1's business, not the map's.
        tests = [([sys.executable, "-m", "pytest", "tests", "-q", "-p", "no:cacheprovider"], None)]
        tested = traced(copy, Path(tmp) / "tests.log", tests)
        rows = classify(copy / "src", reached, tested)
    unexplained = [name for _, _, name, why in rows if why == "?"]
    for name in unexplained:
        print(f"reach: {name} is not reached and has no KEPT reason (DESIGN.md §1.10)")
    if args.check:
        known = committed_unreached()
        new = [name for kind, _, name, _ in rows if kind != "reached" and name not in known]
        for name in new:
            print(f"reach: {name} is not reached and {OUT.relative_to(ROOT)} does not classify it")
        return 1 if new or unexplained else 0
    OUT.write_text(render(rows))
    print(f"wrote {OUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
