"""The six named workloads: what each builds, one unit of its work, its gate.

Every workload is one process, one thread, one closed-loop client: the next
call is issued when the previous one returned, because a peer waits for its
payment and the in-process ``Transport`` is synchronous.

A workload object is built by its *set-up* (network or generator, accounts,
a fixed warm-up so fixed-base tables and caches are full before timing) and
then asked for *units* of work until the runner's time is up:

=================  =======================================  ==================
workload           one unit                                 one operation
=================  =======================================  ==================
``peer_ops_*``,    one protocol cycle (9 timed Peer calls)  one Peer API call
``detect_lazy``
``broker_batch``   one 48-request window through the        one payment request
                   batching engine
``sim_setup_b``    one 2M-event Setup-B simulation          one simulated event
=================  =======================================  ==================

All inputs come from the seed: roster order, Zipf draws, simulation seeds —
and, through :func:`seeded_entropy`, the key material the program draws.
"""

from __future__ import annotations

import math
import random
import secrets
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterator

from hostspeed import reference_seconds, slowdown
from repro.core.network import BrokerTopology, PeerConfig, WhoPayNetwork
from repro.crypto.params import PARAMS_1024_160, PARAMS_TEST_512, DlogParams
from repro.pipeline import EngineStats, LoadGenerator, ThroughputEngine, VerificationPool, WorkloadMix
from repro.sim.config import setup_b_point
from repro.sim.engine import build_simulation
from repro.store.groupcommit import GroupCommitter

#: A percentile is reported only where this many samples lie beyond it.
MIN_BEYOND = 10

ROSTER = 16
OPENING_BALANCE = 1_000_000
WARMUP_CYCLES = 8
#: The group-signed holder operations (six per cycle: transfer runs twice).
HOLDER_OPS = ("transfer", "renew", "dt_transfer", "dt_renew", "deposit")
OPS_PER_CYCLE = 9  # transfer is timed twice

ROUND_REQUESTS = 48
BATCH = 32
RECOVERIES = 5

SIM_PEERS = 10_000
SIM_SLICE_EVENTS = 2_000_000
SIM_WARMUP_EVENTS = 400_000


@contextmanager
def seeded_entropy(seed: int) -> Iterator[random.Random]:
    """Feed the program's ``secrets`` draws from a seeded generator.

    Keys, nonces and idempotency tokens are inputs too: which shard a coin
    hashes to, how many Chord hops a binding takes and how long an integer
    encodes all follow from them.  With the OS generator two runs of one
    seed would differ in every count; with this they repeat exactly.  The
    draw itself gets cheaper by about a microsecond, against operations
    that take milliseconds.  Yields the generator, so a caller can re-seed
    it before repeating a set-up.
    """
    rng = random.Random(seed)
    replacements = {
        "randbelow": rng.randrange,
        "randbits": rng.getrandbits,
        "choice": rng.choice,
        "token_bytes": lambda nbytes=None: rng.randbytes(32 if nbytes is None else nbytes),
        "token_hex": lambda nbytes=None: rng.randbytes(32 if nbytes is None else nbytes).hex(),
    }
    originals = {name: getattr(secrets, name) for name in replacements}
    for name, replacement in replacements.items():
        setattr(secrets, name, replacement)
    try:
        yield rng
    finally:
        for name, original in originals.items():
            setattr(secrets, name, original)


@dataclass
class Unit:
    """What one unit of work did."""

    ops: int  # operations attempted
    failed: int  # of those, how many raised / were refused / stayed unreleased
    seconds: float  # timed seconds (the samples' windows, summed)
    samples: list[tuple[str, float]]  # (operation name, seconds)
    slowdown: float = 1.0  # host slow-down while it ran (set by the runner)

    def calibrated(self) -> "Unit":
        """The same unit with its timings in reference seconds (hostspeed.py)."""
        return replace(
            self,
            seconds=self.seconds / self.slowdown,
            samples=[(label, seconds / self.slowdown) for label, seconds in self.samples],
            slowdown=1.0,
        )


def quiet_half(units: list[Unit]) -> list[Unit]:
    """The faster half of a pass's units, by seconds per operation.

    Every unit of a workload repeats the same work, and on a shared host
    interference only ever adds time, so the slower half says more about the
    neighbours than about the program (README, "Steadiness").
    """
    ordered = sorted(units, key=lambda unit: unit.seconds / unit.ops)
    return ordered[: (len(ordered) + 1) // 2]


def _traffic_and_journals(network: WhoPayNetwork, workdir: Path) -> dict[str, float]:
    """Running totals of what crossed the transport and what reached disk."""
    transport = network.transport
    return {
        "messages": transport.total_messages,
        "bytes": sum(counter.bytes_sent for counter in transport.counters.values()),
        "journal_bytes": sum(
            path.stat().st_size for path in workdir.rglob("*") if path.is_file()
        ),
    }


# ---------------------------------------------------------------------------
# the protocol cycle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CycleSpec:
    """The knobs that tell the four cycle workloads apart."""

    params: DlogParams
    shards: int = 1
    durable: bool = True
    detection: bool = False
    sync_mode: str = "proactive"


class CycleWorkload:
    """Owner *p* and peers *q*, *r* rotate over the roster; every cycle is

    ``p.purchase`` → ``p.issue(q)`` → ``q.transfer(r)`` → ``r.renew`` →
    ``p.depart`` → ``r.transfer_via_broker(q)`` → ``q.renew`` (downtime) →
    ``p.rejoin`` (proactive: one sync exchange; lazy: marks coins stale, so
    the next transfer pays the §5.2 check) → ``q.transfer(r)`` →
    ``r.deposit``.  Each call is timed on its own around the public method.
    """

    timed_roots = ("core.peer_api.*",)
    operation = "Peer API call"
    #: ``op_p50_ms`` is this operation's median: the payment itself, twice a
    #: cycle.  (Pooled over all nine the median would sit on the edge between
    #: two kinds of holder operation and flip between them from run to run.)
    headline = "transfer"

    def __init__(self, spec: CycleSpec, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.network = WhoPayNetwork(
            params=spec.params,
            enable_detection=spec.detection,
            dht_size=8,
            sync_mode=spec.sync_mode,
            store_dir=workdir if spec.durable else None,
            topology=BrokerTopology(shards=spec.shards),
        )
        names = [f"peer{index:02d}" for index in range(ROSTER)]
        random.Random(seed).shuffle(names)
        config = PeerConfig(balance=OPENING_BALANCE, durable=spec.durable)
        self.peers = [self.network.add_peer(name, config) for name in names]
        self.cycles = 0
        for _ in range(WARMUP_CYCLES):
            self.run_unit()

    def run_unit(self) -> Unit:
        first = self.cycles % ROSTER
        p, q, r = (self.peers[(first + offset) % ROSTER] for offset in range(3))
        samples: list[tuple[str, float]] = []

        def timed(label: str, call: Callable, *args: Any) -> Any:
            start = time.perf_counter()
            result = call(*args)
            samples.append((label, time.perf_counter() - start))
            return result

        coin_y = timed("purchase", p.purchase).coin_y
        timed("issue", p.issue, q.address, coin_y)
        timed("transfer", q.transfer, r.address, coin_y)
        timed("renew", r.renew, coin_y)
        p.depart()
        timed("dt_transfer", r.transfer_via_broker, q.address, coin_y)
        timed("dt_renew", q.renew, coin_y)
        timed("sync", p.rejoin)
        timed("transfer", q.transfer, r.address, coin_y)
        timed("deposit", r.deposit, coin_y)
        self.cycles += 1
        return Unit(
            ops=OPS_PER_CYCLE,
            failed=0,
            seconds=sum(seconds for _label, seconds in samples),
            samples=samples,
        )

    def counters(self) -> dict[str, float]:
        """Running totals the program keeps itself (the runner takes deltas)."""
        clients = {
            id(stats): stats
            for peer in self.peers
            for stats in (peer.rpc.stats, peer.broker_client.stats, peer.peer_client.stats)
        }
        ledger = self.network.broker.export_ledger()
        return {
            **_traffic_and_journals(self.network, self.workdir),
            "retries": sum(stats.retries for stats in clients.values()),
            "handoffs": ledger["operation_counts"]["handoffs"],
        }

    def gate(self) -> list[str]:
        """Every coin bought was deposited and no value was made or lost."""
        failures = []
        broker = self.network.broker
        if self.network.complete_handoffs() != 0:
            failures.append("a cross-shard handoff was left pending")
        if not broker.verify_conservation(ROSTER * OPENING_BALANCE):
            failures.append("value is not conserved")
        ledger = broker.export_ledger()
        expected = {
            "coins_minted": self.cycles,
            "coins_deposited": self.cycles,
            "circulating_value": 0,
            "pending_handoffs": 0,
            "fraud_events": 0,
        }
        for key, want in expected.items():
            if ledger[key] != want:
                failures.append(f"ledger {key} is {ledger[key]}, expected {want}")
        if any(peer.wallet for peer in self.peers):
            failures.append("a wallet still holds a deposited coin")
        if sum(len(peer.owned) for peer in self.peers) != self.cycles:
            failures.append("owners' coin views do not add up to the coins bought")
        return failures

    def extras(self, untraced: list[Unit]) -> dict[str, float]:
        """``op.*``: the Peer API layer from outside — latency per operation."""
        by_label: dict[str, list[float]] = {}
        for unit in quiet_half(untraced):
            for label, seconds in unit.samples:
                by_label.setdefault(label, []).append(seconds)
        out = {
            f"op.{label}.p50_ms": statistics.median(times) * 1e3
            for label, times in by_label.items()
        }
        # The tail is a property of the whole pass, not of its quiet half; it
        # is reported only where enough samples lie beyond it.
        holder = sorted(
            seconds for unit in untraced for label, seconds in unit.samples if label in HOLDER_OPS
        )
        if len(holder) * 0.10 >= MIN_BEYOND:
            out["op.holder.p90_ms"] = holder[math.ceil(0.90 * len(holder)) - 1] * 1e3
        return out

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# the broker-bound batching path
# ---------------------------------------------------------------------------


class BrokerBatchWorkload:
    """A seeded Zipf request stream through batched verify + group commit.

    Client-side signing (``make_round``) is outside the timed window; the
    window is ``engine.run`` — submit 48 requests, every reply released
    after its covering fsync.  The gate then kills and recovers the broker
    from its journal :data:`RECOVERIES` times.
    """

    timed_roots = ("pipeline.engine",)
    operation = "payment request"
    headline = "round"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.generator = LoadGenerator(
            peers=ROSTER,
            coins_per_peer=2,
            params=PARAMS_TEST_512,
            store_dir=workdir,
            seed=seed,
            zipf_s=1.1,
            mix=WorkloadMix(transfer=0.6, renewal=0.25, purchase=0.15),
            balance=OPENING_BALANCE,
        )
        broker = self.generator.broker
        self.pool = VerificationPool(
            self.generator.params,
            broker.public_key,
            [self.generator.network.judge.group_public_key()],
            workers=0,
            chunk_size=BATCH,
        )
        self.engine = ThroughputEngine(
            broker,
            pool=self.pool,
            committer=GroupCommitter(broker.store, max_batch=BATCH),
            verify_batch=BATCH,
        )
        self.stats = EngineStats()
        self.recoveries: list[tuple[float, int]] = []  # (reference seconds, records replayed)
        self.run_unit()
        self.stats = EngineStats()

    def run_unit(self) -> Unit:
        requests = self.generator.make_round(ROUND_REQUESTS)
        wire = [(request.kind, request.src, request.data, request.idem) for request in requests]
        start = time.perf_counter()
        records, stats = self.engine.run(wire)
        seconds = time.perf_counter() - start
        self.generator.absorb(records)
        self.stats.merge(stats)
        return Unit(
            ops=len(records),
            failed=sum(1 for record in records if not (record.ok and record.released)),
            seconds=seconds,
            samples=[("round", seconds)],
        )

    def counters(self) -> dict[str, float]:
        return {
            **_traffic_and_journals(self.generator.network, self.workdir),
            "pool_jobs": self.stats.pool_jobs,
            "preverified": self.stats.preverified,
            "nonces_pooled": self.stats.nonces_pooled,
        }

    def gate(self) -> list[str]:
        """Recovery from the journal alone reproduces the pre-kill ledger."""
        failures = []
        network = self.generator.network

        def durable_ledger() -> dict[str, Any]:
            ledger = network.broker.export_ledger()
            del ledger["operation_counts"]  # process telemetry, not journaled
            return ledger

        before = durable_ledger()
        for _ in range(RECOVERIES):
            reference = reference_seconds()
            start = time.perf_counter()
            result = network.restart_broker()
            seconds = time.perf_counter() - start
            seconds /= slowdown(reference, reference_seconds())
            self.recoveries.append((seconds, result.records_replayed))
            if durable_ledger() != before:
                failures.append("the recovered ledger differs from the pre-kill ledger")
                break
        if not network.broker.verify_conservation(ROSTER * OPENING_BALANCE):
            failures.append("value is not conserved")
        return failures

    def extras(self, untraced: list[Unit]) -> dict[str, float]:
        return {
            "store.recover.ms": statistics.median(s for s, _n in self.recoveries) * 1e3,
            "store.recover.records_per_s": statistics.median(n / s for s, n in self.recoveries),
        }

    def close(self) -> None:
        self.pool.close()


# ---------------------------------------------------------------------------
# the simulator
# ---------------------------------------------------------------------------


class SimWorkload:
    """Setup-B at N = 10 000 on the fast engine, one 2M-event run per unit."""

    timed_roots = ("sim.run",)
    operation = "simulated event"
    headline = "slice"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.builds: list[float] = []
        self.first_run: dict[str, int] = {}
        self._simulate(SIM_WARMUP_EVENTS)

    def _simulate(self, event_budget: int) -> tuple[float, float, Any]:
        config = replace(
            setup_b_point(SIM_PEERS, event_budget=event_budget),
            seed=self.rng.getrandbits(31),
        )
        start = time.perf_counter()
        simulation = build_simulation(config, "fast")
        built = time.perf_counter()
        metrics = simulation.run().metrics
        return built - start, time.perf_counter() - built, metrics

    def run_unit(self) -> Unit:
        build_s, run_s, metrics = self._simulate(SIM_SLICE_EVENTS)
        self.builds.append(build_s)
        if not self.first_run:
            self.first_run = {"events": metrics.events, "payments_made": metrics.payments_made}
        ok = metrics.events >= SIM_SLICE_EVENTS and metrics.payments_made > 0
        return Unit(
            ops=metrics.events,
            failed=0 if ok else metrics.events,
            seconds=run_s,
            samples=[("slice", run_s)],
        )

    def counters(self) -> dict[str, float]:
        return {}  # no protocol layer runs

    def gate(self) -> list[str]:
        return []  # each run is checked as it ends: see run_unit

    def extras(self, untraced: list[Unit]) -> dict[str, float]:
        return {
            "sim.build_s": statistics.median(self.builds),
            "sim.run_s": statistics.median(unit.seconds for unit in quiet_half(untraced)),
            "sim.ns_per_event": statistics.median(
                unit.seconds / unit.ops for unit in quiet_half(untraced)
            ) * 1e9,
            "sim.events": self.first_run["events"],
            "sim.payments_made": self.first_run["payments_made"],
        }

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadEntry:
    build: Callable[[int, Path], Any]
    why: str
    params: dict[str, Any] = field(default_factory=dict)
    #: ``setup_s`` is the median of this many set-ups on identical inputs;
    #: the short set-ups are repeated more often, at about 3 s a run in all.
    setup_repeats: int = 3


def _cycle_entry(spec: CycleSpec, why: str) -> WorkloadEntry:
    params = {
        "peers": ROSTER,
        "bits": spec.params.p.bit_length(),
        "shards": spec.shards,
        "durable": spec.durable,
        "sync": spec.sync_mode,
        "detection": "chord/8" if spec.detection else None,
        "warmup_cycles": WARMUP_CYCLES,
        "ops_per_cycle": OPS_PER_CYCLE,
    }
    return WorkloadEntry(lambda seed, workdir: CycleWorkload(spec, seed, workdir), why, params)


WORKLOADS: dict[str, WorkloadEntry] = {
    "peer_ops_m1": _cycle_entry(
        CycleSpec(PARAMS_TEST_512),
        "Reference row: every operation type on the real durable path, one broker; "
        "per-request fsync and scalar group signatures do the work.",
    ),
    "peer_ops_m3": _cycle_entry(
        CycleSpec(PARAMS_TEST_512, shards=3),
        "Same cycle over a 3-shard federation: about 2/3 of purchases and deposits become "
        "journaled cross-shard handoffs, so the m1-to-m3 delta is the federation cost.",
    ),
    "peer_ops_1024": _cycle_entry(
        CycleSpec(PARAMS_1024_160),
        "Same cycle at the paper's Table 2 key size: crypto share grows, codec/store/net "
        "share shrinks, so a tuning that only helps 512-bit shows here.",
    ),
    "detect_lazy": _cycle_entry(
        CycleSpec(PARAMS_TEST_512, durable=False, detection=True, sync_mode="lazy"),
        "In-memory peers, Chord detection on, lazy sync: the store is idle and the DHT "
        "carries 3-4x the messages, so a store change must not move it.",
    ),
    "broker_batch": WorkloadEntry(
        BrokerBatchWorkload,
        "Broker-bound path: Zipf request windows through batch verification and group "
        "commit, then kill-and-recover; bypasses scalar verify and per-request fsync.",
        {
            "peers": ROSTER,
            "bits": 512,
            "coins_per_peer": 2,
            "zipf_s": 1.1,
            "mix": {"transfer": 0.6, "renewal": 0.25, "purchase": 0.15},
            "round_requests": ROUND_REQUESTS,
            "verify_batch": BATCH,
            "commit_batch": BATCH,
            "pool_workers": 0,
            "recoveries": RECOVERIES,
        },
        setup_repeats=5,
    ),
    "sim_setup_b": WorkloadEntry(
        SimWorkload,
        "Only the simulator works (fast engine, Setup-B, N=10^4, 2M-event runs); every "
        "protocol layer is idle, so protocol changes must not move it.",
        {
            "n_peers": SIM_PEERS,
            "engine": "fast",
            "slice_events": SIM_SLICE_EVENTS,
            "warmup_events": SIM_WARMUP_EVENTS,
        },
        setup_repeats=9,
    ),
}
