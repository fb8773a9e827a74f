"""The simulation engine (paper Section 6.1, at up to a million peers).

:class:`FastSimulation` runs the operation-level model: struct-of-arrays
state (stdlib :mod:`array` / ``bytearray``), batched candidate-payment
sampling via the Poisson superposition theorem, and bucket-level vectorized
thinning with an optional numpy accelerator.  The model's plain statement
is a per-event loop — one heap entry per candidate payment, one object per
peer and coin — kept as the test oracle (``tests/sim/reference.py``).
This engine is *statistically* equivalent to it (same processes, same
mechanics, a different but equally valid random-stream architecture),
bit-identically reproducible per seed, and — by construction, see below —
produces **identical results with and without numpy**.

Why the engine cannot be bit-equal to the oracle
------------------------------------------------
The oracle draws its randomness from a single stream in per-event
interleaved order and schedules one candidate-payment event per peer; coin
selection in ``_find_held`` even depends on ``set`` iteration order.  Any
batched sampler necessarily consumes randomness in a different order, so
this engine instead targets the *distributional* contract: per-peer Poisson
candidate processes with aggregate rate ``Λ = n / payment_interval`` are
replaced by one global Poisson stream at the same rate with the payer drawn
per event (the superposition theorem), and the global stream is sampled per
bucket as a Poisson count ``K ~ Poisson(Λ · span)`` followed by ``K`` sorted
uniforms on the bucket span (the conditional-uniformity property of the
Poisson process).  Both identities are exact, not approximations.  Coin
selection walks deterministic per-peer lists.  The equivalence gate in
``tests/sim`` checks the engine against the oracle within statistical
tolerance and against the golden figure rows byte for byte.

Exact bucket-level thinning
---------------------------
A candidate payment materializes iff the payee (and, by default, the payer)
is online.  Online state changes only at session-toggle events, and every
toggle that can fire inside a bucket is either present in the bucket's entry
list when the bucket opens or is pushed by such a toggle *for the same
peer*.  The set of peers whose online state can change during a bucket is
therefore known at bucket entry ("dirty" peers).  Candidates touching no
dirty peer are thinned in one vectorized pass against the entry-time online
masks — exactly, not approximately — while candidates touching a dirty peer
are evaluated scalar at fire time, interleaved with the queue events in
timestamp order.

numpy-independence
------------------
The accelerated path is restricted to operations that are bitwise-exact
against their scalar equivalents: MT19937 uniform blocks (numpy's
``RandomState`` after a state transplant from ``random.Random`` emits the
identical double stream), elementwise IEEE-754 scale/shift (``start + u *
span``), sorting (same multiset of doubles in, same sequence out),
floor-multiplies ``int(u * k)``, ``searchsorted`` (≡ ``bisect_left``), and
integer/boolean mask arithmetic.  Transcendental transforms stay scalar on
both paths — ``numpy.log`` and ``math.log`` may differ in the last ulp — so
the per-bucket Poisson counts come from a scalar PTRS sampler and the
session-toggle exponential gaps from ``math.log``, neither of which is
per-candidate work.  ``WHOPAY_NUMPY=0`` forces the fallback; the results
are identical either way, which the test suite asserts.
"""

from __future__ import annotations

import bisect
import math
import os
import random
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Any

from repro.sim import policies as pol
from repro.sim.config import SimConfig
from repro.sim.costs import (
    BROKER_OPS,
    OP_INDEX,
    OP_NAMES,
    REPLAY_RECORD_COST,
    expected_attempts,
)
from repro.sim.metrics import SimMetrics

#: Renew at this fraction of the renewal period after the last renewal.
RENEWAL_POINT = 0.9


@dataclass
class SimResult:
    """Everything a figure bench needs from one run."""

    config: SimConfig
    metrics: SimMetrics
    final_time: float


#: Calendar-bucket sizing bounds: at least 16 buckets (tiny runs stay exact
#: without degenerate widths), at most 2^17 (a million peers must not
#: allocate a bucket list per handful of events).
MIN_BUCKETS = 16
MAX_BUCKETS = 1 << 17


def bucket_count(expected_events: float, per_bucket: int = 256) -> int:
    """Calendar bucket count for ~``per_bucket`` events per bucket.

    :class:`FastSimulation` sizes its CSR bucket columns with it, on the
    queued-event estimate only (candidates bypass the queue).
    """
    return min(max(int(expected_events / per_bucket) + 2, MIN_BUCKETS), MAX_BUCKETS)


def _poisson(rnd, lam: float) -> int:
    """One exact Poisson(λ) draw from a U[0,1) source ``rnd``.

    Knuth's product method below λ=10 and Hörmann's PTRS transformed
    rejection above it — the same split numpy's legacy generator uses.  Pure
    scalar ``math`` on both engine paths, so the draw is bitwise identical
    with and without numpy (the sampler runs once per *bucket*, never per
    event, so scalar cost is irrelevant).
    """
    if lam < 10.0:
        enlam = math.exp(-lam)
        k = 0
        prod = rnd()
        while prod > enlam:
            k += 1
            prod *= rnd()
        return k
    loglam = math.log(lam)
    b = 0.931 + 2.53 * math.sqrt(lam)
    a = -0.059 + 0.02483 * b
    invalpha = 1.1239 + 1.1328 / (b - 3.4)
    vr = 0.9277 - 3.6224 / (b - 2.0)
    while True:
        u = rnd() - 0.5
        v = rnd()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + lam + 0.43)
        if us >= 0.07 and v <= vr:
            return int(k)
        if k < 0 or (us < 0.013 and v > us):
            continue
        if (math.log(v) + math.log(invalpha) - math.log(a / (us * us) + b)) <= (
            k * loglam - lam - math.lgamma(k + 1.0)
        ):
            return int(k)

# Flat-array operation indices (module constants so the hot paths do one
# global load instead of a dict hash per operation).
_OP_PURCHASE = OP_INDEX["purchase"]
_OP_ISSUE = OP_INDEX["issue"]
_OP_TRANSFER = OP_INDEX["transfer"]
_OP_DEPOSIT = OP_INDEX["deposit"]
_OP_RENEWAL = OP_INDEX["renewal"]
_OP_DOWNTIME_TRANSFER = OP_INDEX["downtime_transfer"]
_OP_DOWNTIME_RENEWAL = OP_INDEX["downtime_renewal"]
_OP_SYNC = OP_INDEX["sync"]
_OP_CHECK = OP_INDEX["check"]
_OP_LAZY_SYNC = OP_INDEX["lazy_sync"]
_OP_DHT_PUBLISH = OP_INDEX["dht_publish"]
_OP_DHT_READ = OP_INDEX["dht_read"]
_OP_LAYERED = OP_INDEX["layered_transfer"]
_BROKER_OP_IDX = tuple(OP_INDEX[op] for op in BROKER_OPS)


def _resolve_numpy(use_numpy: bool | None):
    """The numpy module to accelerate with, or ``None`` for pure Python.

    Imported here, when the first :class:`FastSimulation` is built, so a
    process that only plays a protocol role never loads it.
    """
    if use_numpy is None:
        env = os.environ.get("WHOPAY_NUMPY", "").strip().lower()
        use_numpy = env not in ("0", "off", "false", "no")
    if not use_numpy:
        return None
    try:  # optional accelerator; the pure-Python path is bitwise-identical
        import numpy
    except ImportError:  # pragma: no cover - numpy is present in the dev image
        return None
    return numpy


class _BlockStream:
    """Block-buffered U[0,1) stream, bitwise-identical with or without numpy.

    Seeded via ``random.Random(f"{seed}|{label}")`` (string seeding is
    stable across processes and Python versions).  On the numpy path the
    MT19937 state is transplanted into a ``RandomState``: both generators
    build doubles from the same two 32-bit words, so the streams match
    bitwise and consumption stays aligned.
    """

    __slots__ = ("_rng", "_rs")

    def __init__(self, seed: Any, label: str, np_mod) -> None:
        self._rng = random.Random(f"{seed}|{label}")
        self._rs = None
        if np_mod is not None:
            state = self._rng.getstate()
            key = np_mod.array(state[1][:-1], dtype=np_mod.uint32)
            rs = np_mod.random.RandomState(0)
            rs.set_state(("MT19937", key, state[1][-1]))
            self._rs = rs

    def uniforms(self, count: int):
        """``count`` uniforms as an ndarray (numpy) or list (fallback)."""
        if self._rs is not None:
            return self._rs.random_sample(count)
        rnd = self._rng.random
        return [rnd() for _ in range(count)]


class FastSimulation:
    """Struct-of-arrays bucket engine for very large populations.

    Same model, different mechanics (see the module docstring):

    * candidate payments come from one global Poisson stream (superposition)
      with payer/payee drawn per event from dedicated uniform streams;
    * peer and coin state live in flat ``bytearray``/list columns; wallets
      are per-peer lists with O(1) swap-remove, and owned-coin lists are
      singly-linked over the coin columns with lazy retired-coin compaction;
    * thinning is evaluated per bucket in one vectorized pass for candidates
      that touch no dirty peer (exact — see module docstring) and scalar at
      fire time for the rest;
    * metrics accumulate into flat lists indexed by ``costs.OP_INDEX`` and
      are folded into a :class:`SimMetrics` once, after the run.

    Deliberately mirrored reference quirks: a coin transferred away from a
    peer while its renewal is pending loses its renewal chain (the reference
    discards the pending entry on move and never reschedules); proactive
    rejoins count one ``sync`` even for peers that own nothing; offline
    payers still pay when ``require_payer_online`` is off.
    """

    #: Method-chain opcode per policy preference (dispatch on small ints in
    #: the inlined hot path instead of string compares).
    _METHOD_IDS = {
        pol.TRANSFER_ONLINE: 0,
        pol.TRANSFER_OFFLINE: 1,
        pol.ISSUE_EXISTING: 2,
        pol.PURCHASE_ISSUE: 3,
        pol.DEPOSIT_PURCHASE_ISSUE: 4,
        pol.LAYERED_OFFLINE: 5,
    }

    def __init__(self, config: SimConfig, use_numpy: bool | None = None) -> None:
        self.config = config
        self.metrics = SimMetrics(
            n_peers=config.n_peers,
            msg_overhead=expected_attempts(config.message_loss, config.rpc_max_attempts),
        )
        self.now = 0.0
        self._np = _resolve_numpy(use_numpy)
        self._lazy = config.sync_mode == "lazy"
        self._track = config.track_per_peer
        self._detection = config.detection
        self._gate = config.require_payer_online
        self._coin_value = float(config.coin_value)
        self._max_layers = config.max_layers
        self._renew_delay = RENEWAL_POINT * config.renewal_period

        seed = config.seed
        self._rng_pop = random.Random(f"{seed}|population")
        self._init_stream = _BlockStream(seed, "init", self._np)
        self._rng_toggle = random.Random(f"{seed}|toggle")
        self._rng_retry = random.Random(f"{seed}|payee-retry")
        self._rng_counts = random.Random(f"{seed}|counts")
        self._cand_stream = _BlockStream(seed, "candidates", self._np)
        self._payer_stream = _BlockStream(seed, "payer", self._np)
        self._payee_stream = _BlockStream(seed, "payee", self._np)

        n = config.n_peers
        self._build_population()
        self._cand_gap_mean = config.payment_interval / n  # 1/Λ, both models

        # Peer columns.  Flags live in bytearrays (compact, and `online`
        # doubles as the zero-copy numpy view the thinning masks index);
        # balances in an `array("d")`.  The id columns are plain lists:
        # `array("q")` re-boxes a PyLong on every load, which measures ~2.7×
        # slower than a list load on the wallet-walk hot path.  Wallets are
        # per-peer lists with swap-remove — selection order is deterministic
        # but differs from the reference's set iteration, which is already
        # outside the bitwise contract.
        self._online = bytearray(n)
        self._wallets: list[list[int]] = [[] for _ in range(n)]
        self._owned_head = [-1] * n
        balance = float("inf") if config.initial_balance is None else float(config.initial_balance)
        self._balance = array("d", [balance]) * n
        self._pending: dict[int, list[int]] = {}

        # Coin columns (append-grown).
        self._n_coins = 0
        self._c_owner: list[int] = []
        self._c_holder: list[int] = []
        self._c_dirty = bytearray()
        self._c_check = bytearray()
        self._c_retired = bytearray()
        self._c_layers: list[int] = []
        self._c_onext: list[int] = []
        # Bound append methods: coin creation appends to every column, and
        # the bound form skips one attribute lookup per column per purchase.
        self._ap_owner = self._c_owner.append
        self._ap_holder = self._c_holder.append
        self._ap_dirty = self._c_dirty.append
        self._ap_check = self._c_check.append
        self._ap_retired = self._c_retired.append
        self._ap_layers = self._c_layers.append
        self._ap_onext = self._c_onext.append

        self._ids = None
        if self._np is not None:
            self._online_np = self._np.frombuffer(self._online, dtype=self._np.uint8)
            self._dirty_np = self._np.zeros(n, dtype=self._np.uint8)
            if n <= self._ID_TABLE_PEERS:
                # ``ids[k] is`` one shared int equal to ``k`` for ``k`` in
                # ``[-n, n)``: the negative half sits at the end, where numpy's
                # negative indexing finds it, so a dirty payee ``-1 - q``
                # gathers like any other.
                self._ids = self._np.array([*range(n), *range(-n, 0)], dtype=object)
        else:
            self._online_np = None
            self._dirty_np = None

        # Scheduler state.  Candidate payments bypass the queue entirely,
        # renewals live in a plain FIFO (every renewal is scheduled at
        # ``now + 0.9 * renewal_period`` with ``now`` monotone, so the FIFO
        # is always time-sorted without a heap), and the full toggle/restart
        # schedule is precomputed by ``_initialize`` into per-bucket CSR
        # columns — no event queue and no event tuples at all; this engine
        # only needs the bucket geometry.  The ``n`` term dates from the
        # queue that held one pending toggle per peer; the out-of-horizon
        # ones are no longer stored, but the bucket count fixes the bucket
        # boundaries and so which Poisson draw covers which candidates —
        # dropping the term would change every committed realization.
        qevents = (
            n
            + config.broker_restarts
            + config.duration * 2.0 * n / (config.mean_online + config.mean_offline)
        )
        self._n_buckets = max(2, bucket_count(qevents))
        # The last bucket starts exactly at ``duration`` and catches events
        # at the horizon itself.
        self._width = config.duration / (self._n_buckets - 1)
        # Renewal FIFO as two parallel columns with a head cursor instead of
        # a deque of tuples: appends stay O(1) and time-sorted (every entry
        # is ``now + 0.9 * renewal_period`` with ``now`` monotone), pops are
        # cursor bumps, and no tuple or boxed pair outlives the bucket that
        # consumed it — at N=10^6 the tuple deque alone was tens of MiB.
        # Plain lists beat array('d')/array('q') here: appends skip the
        # box→C conversion and peeks return existing refs, and the boxed
        # overhead is bounded by the live renewal backlog (~tens of MB at
        # N=10^6 against a peak budget in the hundreds).
        self._r_times: list[float] = []
        self._r_cids: list[int] = []
        self._r_head = 0
        self._dirty: dict[int, bool] = {}

        # Flat metric accumulators.
        self._ops = [0] * len(OP_NAMES)
        self._micro_ver = 0
        self._micro_gver = 0
        self._made = 0
        self._failed = 0
        self._by_slot = [0] * len(config.policy.preferences)
        self._coins_created = 0
        self._coins_retired = 0
        self._layered_total = 0
        self._layered_max = 0
        self._per_served: Counter = Counter()
        self._per_payments: Counter = Counter()
        self._restarts = 0
        self._replayed = 0
        self._replay_cost = 0.0
        self._ops_snapshotted = 0
        self._cand_events = 0
        self._qevents = 0
        self._last_cand_t = 0.0
        self._last_queue_t = 0.0

        self._method_ids = tuple(
            self._METHOD_IDS[m] for m in config.policy.preferences
        )
        self._chain = tuple(enumerate(self._method_ids))
        # The merge loop inlines the whole method chain when it is exactly
        # policy I's (online transfer → offline transfer → issue-existing →
        # purchase) and no per-payment bookkeeping beyond the counters is
        # active; every other configuration dispatches through the generic
        # ``_attempt``.
        self._plain = (
            not self._lazy
            and not self._track
            and not self._detection
            and config.broker_restarts == 0
            and self._method_ids == (0, 1, 2, 3)
        )

    # -- population ---------------------------------------------------------

    def _build_population(self) -> None:
        """Identical parameterization to the reference loop's, fed from the
        dedicated population stream (a permutation of the same weight
        multiset, so every aggregate distribution matches)."""
        cfg = self.config
        n = cfg.n_peers
        if cfg.heterogeneity == "uniform":
            self._mean_on = [cfg.mean_online] * n
            self._mean_off = [cfg.mean_offline] * n
            self._avail = [cfg.availability] * n
            self._payee_cum: list[float] | None = None
            self._payee_cum_np = None
            self._payee_total = 0.0
            return
        weights = [1.0 / (rank + 1) ** cfg.zipf_exponent for rank in range(n)]
        self._rng_pop.shuffle(weights)
        w_max = max(weights)
        base = cfg.availability
        cap = max(base, cfg.superpeer_max_availability)
        self._avail = [base + (cap - base) * (w / w_max) for w in weights]
        self._mean_on = [cfg.mean_online] * n
        self._mean_off = [cfg.mean_online * (1.0 - a) / a for a in self._avail]
        cumulative: list[float] = []
        running = 0.0
        for w in weights:
            running += w
            cumulative.append(running)
        self._payee_cum = cumulative
        self._payee_total = running
        self._payee_cum_np = None if self._np is None else self._np.array(cumulative)

    # -- candidate stream ---------------------------------------------------

    def _redraw_payee(self, payer: int) -> int:
        """Scalar collision redraw (power-law mode), dedicated stream."""
        cum = self._payee_cum
        total = self._payee_total
        last = self.config.n_peers - 1
        rnd = self._rng_retry.random
        left = bisect.bisect_left
        while True:
            q = min(left(cum, rnd() * total), last)
            if q != payer:
                return q

    #: Candidate chunk size for the numpy fast path: payer/payee index
    #: columns are built for a run of buckets at a time (one astype /
    #: searchsorted per ~64k candidates instead of per bucket).  A candidate
    #: costs a measured 41 B while its chunk is built — two float64 uniform
    #: columns, three int64 index columns, one bool — so the transient is
    #: bounded by 41 B x 2^16 = 2.7 MB, which fits the cache; 2^18 peaked
    #: at 10.7 MB for no gain in ns per event (DESIGN §1.8).
    _CHUNK_CANDIDATES = 1 << 16

    #: Peers per block of ``_initialize``'s uniform draws: two boxed floats
    #: per peer live for one block (2.6 MB), not for the whole population
    #: (80 B a peer — 80 MB at N=10^6, more than half the built engine).
    _INIT_BLOCK_PEERS = 1 << 15

    #: Largest population for which the numpy path gathers survivor ids from
    #: one interned table instead of boxing a fresh ``int`` per id in
    #: ``tolist()``: every coin's owner and holder then shares one of ``n``
    #: objects.  The table costs 80 B a peer; above 2^16 its random gathers
    #: miss the cache and it loses on both time and peak memory (DESIGN §1.8).
    _ID_TABLE_PEERS = 1 << 16

    def _advance_chunk(self, b: int) -> None:
        """Build payer/payee index columns for buckets ``[b, b1)``.

        Stream consumption is order-identical to per-bucket draws (the
        uniform streams are sequential, so block size never changes the
        values; collision redraws consume the retry stream in global
        candidate order either way), which keeps the fallback path — which
        still samples per bucket — bitwise in lockstep.
        """
        coff = self._cand_coff
        lo = coff[b]
        b1 = b + 1
        nb = self._n_buckets
        cap = lo + self._CHUNK_CANDIDATES
        while b1 < nb and coff[b1 + 1] <= cap:
            b1 += 1
        total = coff[b1] - lo
        np_mod = self._np
        n = self.config.n_peers
        payer_u = self._payer_stream.uniforms(total)
        payee_u = self._payee_stream.uniforms(total)
        if self._payee_cum is None:
            pr = (payer_u * n).astype(np_mod.int64)
            raw = (payee_u * (n - 1)).astype(np_mod.int64)
            pe = raw + (raw >= pr)
        else:
            wtotal = self._payee_total
            last = n - 1
            pr = np_mod.minimum(
                np_mod.searchsorted(self._payee_cum_np, payer_u * wtotal, side="left"),
                last,
            )
            pe = np_mod.minimum(
                np_mod.searchsorted(self._payee_cum_np, payee_u * wtotal, side="left"),
                last,
            )
            for k in np_mod.nonzero(pe == pr)[0].tolist():
                pe[k] = self._redraw_payee(int(pr[k]))
        self._ck_lo = lo
        self._ck_b1 = b1
        self._ck_pr = pr
        self._ck_pe = pe

    def _sample_bucket(self, b: int, start: float, end: float, dirty: dict[int, bool]):
        """Thin bucket ``b``'s candidate payments (time in [start, end)).

        The window's candidate count is one Poisson(Λ · span) draw (made in
        bucket order by ``_initialize``) and the times are sorted uniforms
        on the span (conditional uniformity — an exact identity, see the
        module docstring); payer and payee marks are i.i.d., so pairing
        them with the order statistics in draw order preserves the marked
        process exactly.  Thinning runs against the bucket-entry online
        masks (exact under the dirty-peer argument) and returns only the
        survivors: ``(total, ct, cp, cq)`` where ``total`` counts every
        candidate in the window (the events denominator) and the parallel
        lists hold fire time, payer, and payee per survivor.

        Times are drawn for the *kept* candidates only: keeping a candidate
        depends solely on its marks (the dirty re-check happens later, but
        dirty membership is itself time-independent), so the kept set is an
        independent random subset of an i.i.d. sample — and such a subset
        is again i.i.d. uniform.  Sorted uniforms for the kept count are
        therefore exactly the kept candidates' order statistics, and the
        rejected majority never costs a time draw or a sort slot.

        A candidate that touches a dirty peer cannot be thinned against the
        entry masks; it is kept with its *payee* encoded as ``-1 - payee``
        so the merge loop re-evaluates it scalar at fire time — the sign
        doubles as the status flag, and because the end-of-bucket sentinel
        also carries a negative payee, clean candidates (the vast majority)
        pay exactly one sign test for sentinel and dirty handling combined.
        Rejected candidates never enter a Python-level loop on the
        accelerated path.
        """
        total = self._cand_counts[b]
        if not total:
            return 0, [], [], []
        span = end - start
        n = self.config.n_peers
        np_mod = self._np
        gate = self._gate
        if np_mod is not None:
            if b >= self._ck_b1:
                self._advance_chunk(b)
            lo = self._cand_coff[b] - self._ck_lo
            pr = self._ck_pr[lo : lo + total]
            pe = self._ck_pe[lo : lo + total]
        else:
            payer_u = self._payer_stream.uniforms(total)
            payee_u = self._payee_stream.uniforms(total)
            if self._payee_cum is None:
                pr = [int(u * n) for u in payer_u]
                pe = []
                append_pe = pe.append
                for k in range(total):
                    q = int(payee_u[k] * (n - 1))
                    if q >= pr[k]:
                        q += 1
                    append_pe(q)
            else:
                wtotal = self._payee_total
                last = n - 1
                cum = self._payee_cum
                left = bisect.bisect_left
                pr = [min(left(cum, u * wtotal), last) for u in payer_u]
                pe = []
                for k in range(total):
                    q = min(left(cum, payee_u[k] * wtotal), last)
                    if q == pr[k]:
                        q = self._redraw_payee(pr[k])
                    pe.append(q)
        ct: list[float] = []
        cp: list[int] = []
        cq: list[int] = []
        if np_mod is not None:
            online_np = self._online_np
            accept = online_np[pe]
            if gate:
                accept = accept & online_np[pr]
            st = accept << 1
            if dirty:
                dirty_np = self._dirty_np
                st[(dirty_np[pr] | dirty_np[pe]) != 0] = 1
            sel = np_mod.nonzero(st)[0]
            if sel.size:
                pes = pe[sel]
                if dirty:
                    pes = np_mod.where(st[sel] == 2, pes, -1 - pes)
                ids = self._ids
                if ids is None:
                    cq = pes.tolist()
                    cp = pr[sel].tolist()
                else:
                    cq = ids[pes].tolist()
                    cp = ids[pr[sel]].tolist()
        else:
            online = self._online
            if dirty:
                for j in range(total):
                    p = pr[j]
                    q = pe[j]
                    if p in dirty or q in dirty:
                        cp.append(p)
                        cq.append(-1 - q)
                    elif online[q] and (online[p] or not gate):
                        cp.append(p)
                        cq.append(q)
            else:
                for j in range(total):
                    q = pe[j]
                    if online[q]:
                        p = pr[j]
                        if online[p] or not gate:
                            cp.append(p)
                            cq.append(q)
        kept = len(cp)
        if kept:
            # Both paths draw exactly ``kept`` time uniforms, and the kept
            # count is mask-identical between them, so the streams stay in
            # lockstep; sorting the same multiset yields the same sequence.
            us = self._cand_stream.uniforms(kept)
            if np_mod is not None:
                ct = np_mod.sort(start + us * span).tolist()
            else:
                ct = [start + u * span for u in us]
                ct.sort()
            self._last_cand_t = ct[-1]
        return total, ct, cp, cq

    # -- run ----------------------------------------------------------------

    def _initialize(self) -> None:
        # Stationary start, like the reference loop: one availability draw
        # and one residual-session draw per peer, drawn from the init stream
        # a block of peers at a time (identical values to per-call draws —
        # same stream, same order, whatever the block) with the exponential
        # transform kept scalar for bitwise numpy independence.
        #
        # The whole toggle *schedule* is precomputed here.  A peer's session
        # process is an alternating renewal process independent of
        # everything else in the model, so its entire in-horizon toggle
        # sequence can be generated up front (per-peer sequential draws from
        # the toggle stream; the gap mean is the mean of the state the
        # toggle switches *into*, exactly as the old in-loop draw applied
        # it).  The sequences are stably time-sorted and cut into compact
        # per-bucket CSR columns (times, subjects) whose slices the merge
        # loops walk directly.  This removes every RNG draw, ``log``,
        # sequence number, tuple allocation and heap/insort operation from
        # the merge loop's toggle branch — and it stores *nothing* for the
        # out-of-horizon tail, which at N=10^6 (where most peers never
        # toggle inside the short event-budgeted horizon) was the single
        # largest block of peak RSS as one queue tuple per peer.  Broker
        # restarts ride the same columns with the sentinel subject ``n``
        # (ties at equal times keep toggles first, matching the reference's
        # kind order).
        n = self.config.n_peers
        duration = self.config.duration
        uniforms = self._init_stream.uniforms
        block = self._INIT_BLOCK_PEERS
        avail = self._avail
        mean_on = self._mean_on
        mean_off = self._mean_off
        online = self._online
        log = math.log
        rnd = self._rng_toggle.random
        times: list[float] = []
        subjects: list[int] = []
        t_append = times.append
        s_append = subjects.append
        for base in range(0, n, block):
            stop = min(base + block, n)
            us = uniforms(2 * (stop - base))
            if self._np is not None:
                us = us.tolist()
            k = 0
            for index in range(base, stop):
                if us[k] < avail[index]:
                    online[index] = 1
                    s = 1
                else:
                    s = 0
                t = -log(1.0 - us[k + 1]) * (mean_on[index] if s else mean_off[index])
                k += 2
                while t <= duration:
                    t_append(t)
                    s_append(index)
                    s = 1 - s
                    t += -log(1.0 - rnd()) * (mean_on[index] if s else mean_off[index])
        restarts = self.config.broker_restarts
        for i in range(1, restarts + 1):
            t_append(duration * i / (restarts + 1))
            s_append(n)
        # Sort the whole schedule by time (stable), then cut CSR bucket
        # columns from the sorted arrays.  Stability is the tie rule:
        # restarts are generated after every toggle, so an equal-time
        # toggle/restart pair keeps the toggle first — the reference's kind
        # order — and toggle/toggle ties (probability zero) keep generation
        # order, which merely needs determinism.  Because the sort key is
        # the fire time itself, each bucket's slice is already time-ordered
        # and the merge loops can walk it directly; numpy's stable argsort
        # and Timsort are both stable sorts of the same multiset, so the
        # two paths produce the identical permutation.  Bucket assignment
        # is one IEEE divide + truncation on both, so the offsets agree.
        qwidth = self._width
        qlast = self._n_buckets - 1
        total = len(times)
        np_mod = self._np
        if np_mod is not None:
            ta = np_mod.array(times)
            order = np_mod.argsort(ta, kind="stable")
            ta = ta[order]
            bi = (ta / qwidth).astype(np_mod.int64)
            np_mod.minimum(bi, qlast, out=bi)
            tog_t = array("d")
            tog_t.frombytes(ta.tobytes())
            tog_s = array("i")
            tog_s.frombytes(
                np_mod.array(subjects, dtype=np_mod.int32)[order].tobytes()
            )
            offsets = [0]
            offsets.extend(
                np_mod.cumsum(np_mod.bincount(bi, minlength=qlast + 1)).tolist()
            )
        else:
            order = sorted(range(total), key=times.__getitem__)
            counts = [0] * (qlast + 2)
            tog_t = array("d", bytes(8 * total))
            tog_s = array("i", bytes(4 * total))
            for pos in range(total):
                j = order[pos]
                t = times[j]
                b = int(t / qwidth)
                if b > qlast:
                    b = qlast
                counts[b + 1] += 1
                tog_t[pos] = t
                tog_s[pos] = subjects[j]
            running = 0
            offsets = counts
            for b in range(len(counts)):
                running += counts[b]
                offsets[b] = running
        self._tog_t = tog_t
        self._tog_s = tog_s
        self._tog_off = offsets
        # Candidate-count schedule: one Poisson draw per bucket, consumed in
        # bucket order from the dedicated counts stream — exactly the order
        # the per-bucket sampler used, so the realization is unchanged and
        # the numpy path can batch payer/payee index math across buckets.
        nb = self._n_buckets
        gap = self._cand_gap_mean
        rndc = self._rng_counts.random
        ccounts = [0] * nb
        coff = [0] * (nb + 1)
        running = 0
        for b in range(nb):
            cstart = b * qwidth
            cend = cstart + qwidth
            if cend > duration:
                cend = duration
            if cend > cstart:
                c = _poisson(rndc, (cend - cstart) / gap)
                ccounts[b] = c
                running += c
            coff[b + 1] = running
        self._cand_counts = ccounts
        self._cand_coff = coff
        self._ck_b1 = 0
        self._ck_lo = 0
        self._ck_pr = None
        self._ck_pe = None

    def run(self) -> SimResult:
        """Execute the configured run and return its metrics."""
        self._initialize()
        duration = self.config.duration
        for b in range(self._n_buckets):
            self._run_bucket(b, duration)
        self._fold_metrics()
        final = min(max(self._last_cand_t, self._last_queue_t), duration)
        self.now = final
        return SimResult(config=self.config, metrics=self.metrics, final_time=final)

    def _run_bucket(self, b: int, duration: float) -> None:
        """Process one bucket of the precomputed schedule."""
        off = self._tog_off
        lo = off[b]
        hi = off[b + 1]
        npeers = self.config.n_peers
        if hi > lo:
            # This bucket's toggles/restarts, already time-sorted by
            # ``_initialize`` (ties resolved there; see the sort comment).
            ptimes = self._tog_t[lo:hi].tolist()
            psubs = self._tog_s[lo:hi].tolist()
        else:
            ptimes = []
            psubs = []
        dirty = self._dirty
        for s in psubs:
            if s < npeers:
                dirty[s] = True
        # End-of-schedule sentinel: never fires (it loses every ``rt < ht``
        # race once both are +inf and the candidate sentinel breaks first),
        # but it lets the merge loops read ``ptimes[qi]`` unconditionally.
        ptimes.append(math.inf)
        psubs.append(npeers)
        dirty_np = self._dirty_np
        if dirty_np is not None and dirty:
            for x in dirty:
                dirty_np[x] = 1
        width = self._width
        start = b * width
        end = start + width
        if end > duration:
            end = duration  # no candidates or renewals beyond the horizon
        total, ct, cp, cq = self._sample_bucket(b, start, end, dirty)
        self._cand_events += total
        # Candidates drive the merge: the ``for`` loop iterates them at C
        # speed in time order, draining the schedule events due first
        # between consecutive candidates.  The +inf sentinel candidate
        # drains whatever the bucket still holds past the last survivor.
        # Every stored event is in-horizon by construction (``_initialize``
        # drops the out-of-horizon tail), so no horizon check runs here.
        ct.append(math.inf)
        cp.append(-1)
        cq.append(-1)
        if self._plain:
            self._merge_plain(ptimes, psubs, ct, cp, cq, end)
        else:
            self._merge_generic(ptimes, psubs, ct, cp, cq, end)
        if dirty:
            if dirty_np is not None:
                for x in dirty:
                    dirty_np[x] = 0
            dirty.clear()

    def _merge_plain(self, ptimes, psubs, ct, cp, cq, end: float) -> None:
        """Merge loop specialized for the plain configuration.

        Plain means policy I's method chain, proactive sync, no detection,
        no per-peer tracking, and no broker restarts — the paper's Setup
        A/B defaults.  Everything the generic machinery would do beyond the
        counters is provably dead here, and the loop body says so inline:

        * The owner check is a no-op (proactive) and per-payment tracking
          is off, so payments update only the counters.
        * One wallet scan serves both transfer methods: if no coin's owner
          is online, *every* owner is offline, so the offline method's
          first match is simply the first wallet coin.  The scan tries the
          trailing coin first (a bare ``pop``, no shift — and with ~50%
          availability it wins about half the time); other matches leave
          by swap-remove.  Selection order is deterministic either way,
          and wallet order was never part of the statistical contract.
        * Per-coin dirty/check/retired/layer columns and the owned-coin
          chain are never read (no deposit method → no retirement, no
          detection → no checks, proactive → no lazy marks), so mints skip
          those appends, renewals skip the staleness test, and rejoins
          skip the owned-chain walk entirely.
        * The renewal FIFO length is tracked in a local (``rn``): every
          append site is inline in this loop, so the live ``len()`` reads
          of the generic path collapse to integer bumps.
        """
        online = self._online
        gate = self._gate
        wallets = self._wallets
        owner = self._c_owner
        holder = self._c_holder
        pending = self._pending
        r_times = self._r_times
        r_cids = self._r_cids
        rh = self._r_head
        rn = len(r_times)
        rt_append = r_times.append
        rc_append = r_cids.append
        renew_delay = self._renew_delay
        inf = math.inf
        balance = self._balance
        coin_value = self._coin_value
        n_coins = self._n_coins
        ap_owner = self._ap_owner
        ap_holder = self._ap_holder
        qi = 0
        qevents = 0
        fast_on = 0
        fast_off = 0
        fast_pur = 0
        fast_fail = 0
        renewed = 0
        down_renewed = 0
        syncs = 0
        last_q = -1.0
        ht = ptimes[0]
        rt = r_times[rh] if rh < rn else inf
        if rt > end:
            rt = inf  # due in a later bucket
        next_t = ht if ht < rt else rt
        for t, p, q in zip(ct, cp, cq):
            if next_t < t:
                while True:
                    if rt < ht:
                        # Renewal due (ties go to the toggle columns:
                        # _TOGGLE sorts before _RENEWAL in the reference
                        # order).
                        cid = r_cids[rh]
                        rh += 1
                        last_q = rt
                        qevents += 1
                        h = holder[cid]
                        if online[h]:
                            if online[owner[cid]]:
                                renewed += 1
                            else:
                                down_renewed += 1
                            rt_append(rt + renew_delay)
                            rc_append(cid)
                            rn += 1
                        else:
                            pend = pending.get(h)
                            if pend is None:
                                pending[h] = [cid]
                            else:
                                pend.append(cid)
                        rt = r_times[rh] if rh < rn else inf
                        if rt > end:
                            rt = inf
                    else:
                        # Session toggle: a pure state flip — the next
                        # toggle is already in the precomputed schedule,
                        # and no restarts exist in plain mode.
                        subject = psubs[qi]
                        qi += 1
                        last_q = ht
                        qevents += 1
                        if online[subject]:
                            online[subject] = 0
                        else:
                            online[subject] = 1
                            # Inline proactive rejoin: one sync, then the
                            # pending renewals parked while this holder
                            # was offline replay.
                            syncs += 1
                            pend = pending.pop(subject, None)
                            if pend is not None:
                                rtime = ht + renew_delay
                                for cid in pend:
                                    if holder[cid] == subject:
                                        if online[owner[cid]]:
                                            renewed += 1
                                        else:
                                            down_renewed += 1
                                        rt_append(rtime)
                                        rc_append(cid)
                                        rn += 1
                                # The replay may have repopulated an empty
                                # FIFO within this bucket's span.
                                rt = r_times[rh] if rh < rn else inf
                                if rt > end:
                                    rt = inf
                        ht = ptimes[qi]
                    next_t = ht if ht < rt else rt
                    if next_t >= t:
                        break
            if q < 0:
                # One sign test covers both rare cases: the end-of-bucket
                # sentinel (p < 0 too) and dirty-peer candidates, whose
                # thinning re-evaluates scalar at fire time.
                if p < 0:
                    break  # sentinel: bucket fully drained
                q = -1 - q
                if not (online[q] and (online[p] or not gate)):
                    continue
            w = wallets[p]
            if w:
                # Last-element fast path: with ~50% owner availability the
                # tail coin matches half the time and its swap-remove is a
                # bare pop.  Selection order is deterministic either way
                # (wallet order is not part of the statistical contract).
                c = w[-1]
                if online[owner[c]]:
                    w.pop()
                    holder[c] = q
                    wallets[q].append(c)
                    fast_on += 1
                else:
                    last = len(w) - 1
                    for k in range(last):
                        c = w[k]
                        if online[owner[c]]:
                            w[k] = w[last]
                            w.pop()
                            holder[c] = q
                            wallets[q].append(c)
                            fast_on += 1
                            break
                    else:
                        c = w[0]
                        w[0] = w[last]
                        w.pop()
                        holder[c] = q
                        wallets[q].append(c)
                        fast_off += 1
            else:
                # Purchase + issue (ISSUE_EXISTING can never match — see
                # ``_attempt``): mint the coin directly in its post-issue
                # state.
                bal = balance[p]
                if bal >= coin_value:
                    balance[p] = bal - coin_value
                    c = n_coins
                    n_coins = c + 1
                    ap_owner(p)
                    ap_holder(q)
                    wallets[q].append(c)
                    rt_append(t + renew_delay)
                    rc_append(c)
                    rn += 1
                    fast_pur += 1
                else:
                    fast_fail += 1
        # Renewal-FIFO cursor write-back, with amortized compaction of the
        # consumed prefix (O(1) per element over the run).
        if rh and rh >= 1024 and rh * 2 >= rn:
            del r_times[:rh]
            del r_cids[:rh]
            rh = 0
        self._r_head = rh
        if last_q >= 0.0:
            self._last_queue_t = last_q
        # Only the inline chain mints through the local counter; in the
        # generic mode ``_purchase_issue`` owns ``self._n_coins``.
        self._n_coins = n_coins
        self._qevents += qevents
        ops = self._ops
        made = fast_on + fast_off + fast_pur
        if made:
            self._made += made
            by_slot = self._by_slot
            if fast_on:
                by_slot[0] += fast_on
                ops[_OP_TRANSFER] += fast_on
            if fast_off:
                by_slot[1] += fast_off
                ops[_OP_DOWNTIME_TRANSFER] += fast_off
            if fast_pur:
                by_slot[3] += fast_pur
                ops[_OP_PURCHASE] += fast_pur
                ops[_OP_ISSUE] += fast_pur
                self._coins_created += fast_pur
        if fast_fail:
            self._failed += fast_fail
        if renewed:
            ops[_OP_RENEWAL] += renewed
        if down_renewed:
            ops[_OP_DOWNTIME_RENEWAL] += down_renewed
        if syncs:
            ops[_OP_SYNC] += syncs

    def _merge_generic(self, ptimes, psubs, ct, cp, cq, end: float) -> None:
        """Merge loop for every non-plain configuration.

        Same drain structure as :meth:`_merge_plain`, but payments dispatch
        through the generic ``_attempt`` method chain and renewals/rejoins
        through the full bookkeeping methods (retirement staleness, lazy
        marks, per-peer tracking, detection publishes, restarts).  The
        renewal FIFO length is re-read live because the called methods
        append to it out of the loop's sight.
        """
        online = self._online
        gate = self._gate
        npeers = self.config.n_peers
        holder = self._c_holder
        retired = self._c_retired
        pending = self._pending
        r_times = self._r_times
        r_cids = self._r_cids
        rh = self._r_head
        attempt = self._attempt
        inf = math.inf
        qi = 0
        qevents = 0
        last_q = -1.0
        ht = ptimes[0]
        rt = r_times[rh] if rh < len(r_times) else inf
        if rt > end:
            rt = inf  # due in a later bucket
        next_t = ht if ht < rt else rt
        for t, p, q in zip(ct, cp, cq):
            if next_t < t:
                while True:
                    if rt < ht:
                        # Renewal due (ties go to the toggle columns).
                        # Stale entries for retired coins are dropped
                        # lazily; wallet coins are always issued in this
                        # engine, so no issued check is needed.
                        cid = r_cids[rh]
                        rh += 1
                        last_q = rt
                        qevents += 1
                        if not retired[cid]:
                            h = holder[cid]
                            if online[h]:
                                self.now = rt
                                self._renew(cid)
                            else:
                                pend = pending.get(h)
                                if pend is None:
                                    pending[h] = [cid]
                                else:
                                    pend.append(cid)
                        rt = r_times[rh] if rh < len(r_times) else inf
                        if rt > end:
                            rt = inf
                    else:
                        subject = psubs[qi]
                        qi += 1
                        last_q = ht
                        qevents += 1
                        if subject < npeers:
                            # Session toggle: a pure state flip — the next
                            # toggle is already in the precomputed schedule.
                            if online[subject]:
                                online[subject] = 0
                            else:
                                online[subject] = 1
                                self.now = ht
                                self._on_rejoin(subject)
                                # The pending-renewal replay may have
                                # repopulated an empty FIFO within this
                                # bucket's span.
                                rt = r_times[rh] if rh < len(r_times) else inf
                                if rt > end:
                                    rt = inf
                        else:
                            self.now = ht
                            self._on_broker_restart()
                        ht = ptimes[qi]
                    next_t = ht if ht < rt else rt
                    if next_t >= t:
                        break
            if q < 0:
                if p < 0:
                    break  # sentinel: bucket fully drained
                q = -1 - q
                if not (online[q] and (online[p] or not gate)):
                    continue
            self.now = t
            attempt(p, q)
        if rh and rh >= 1024 and rh * 2 >= len(r_times):
            del r_times[:rh]
            del r_cids[:rh]
            rh = 0
        self._r_head = rh
        if last_q >= 0.0:
            self._last_queue_t = last_q
        self._qevents += qevents

    # -- churn --------------------------------------------------------------

    def _on_rejoin(self, index: int) -> None:
        # One synchronization per join (proactive) or stale-marking (lazy),
        # compacting retired coins out of the owned list while walking it.
        onext = self._c_onext
        retired = self._c_retired
        if not self._lazy:
            self._ops[_OP_SYNC] += 1
            marks = self._c_dirty
            value = 0
        else:
            marks = self._c_check
            value = 1
        cid = self._owned_head[index]
        prev = -1
        while cid >= 0:
            nxt = onext[cid]
            if retired[cid]:
                if prev < 0:
                    self._owned_head[index] = nxt
                else:
                    onext[prev] = nxt
            else:
                marks[cid] = value
                prev = cid
            cid = nxt
        pend = self._pending.pop(index, None)
        if pend is not None:
            holder = self._c_holder
            for cid in pend:
                # Lazily invalidated: the coin may have moved or retired
                # while this peer was offline.
                if not retired[cid] and holder[cid] == index:
                    self._renew(cid)

    # -- broker restarts ----------------------------------------------------

    def _on_broker_restart(self) -> None:
        ops = self._ops
        journaled = 0
        for idx in _BROKER_OP_IDX:
            journaled += ops[idx]
        backlog = journaled - self._ops_snapshotted
        self._restarts += 1
        self._replayed += backlog
        self._replay_cost += backlog * REPLAY_RECORD_COST
        self._ops_snapshotted = journaled

    # -- renewals -----------------------------------------------------------

    def _schedule_renewal(self, cid: int) -> None:
        # Every renewal is scheduled at ``now + 0.9 * renewal_period`` and
        # ``now`` is monotone, so plain appends keep the columns time-sorted.
        self._r_times.append(self.now + self._renew_delay)
        self._r_cids.append(cid)

    def _renew(self, cid: int) -> None:
        owner = self._c_owner[cid]
        if self._online[owner]:
            self._owner_check(cid)
            self._ops[_OP_RENEWAL] += 1
            if self._track:
                self._per_served[owner] += 1
        else:
            self._ops[_OP_DOWNTIME_RENEWAL] += 1
            self._c_dirty[cid] = 1
        if self._detection:
            self._ops[_OP_DHT_PUBLISH] += 1
        self._schedule_renewal(cid)

    def _owner_check(self, cid: int) -> None:
        if self._lazy and self._c_check[cid]:
            self._ops[_OP_CHECK] += 1
            if self._c_dirty[cid]:
                self._ops[_OP_LAZY_SYNC] += 1
                self._c_dirty[cid] = 0
            self._c_check[cid] = 0

    # -- payments -----------------------------------------------------------

    def _attempt(self, payer: int, payee: int) -> None:
        # The policy chain, dispatched on small-int opcodes with the
        # online/offline transfer methods (wallet scan + swap-remove) fully
        # inlined — this is the hottest generic call site.  Wallet coins are
        # always issued and never retired (coins are created issued and
        # deposits remove them), so the scans test only owner availability.
        owner = self._c_owner
        online = self._online
        wallets = self._wallets
        ops = self._ops
        for slot, mid in self._chain:
            if mid <= 1:
                want = 1 - mid  # TRANSFER_ONLINE wants the owner up, OFFLINE down
                w = wallets[payer]
                found = -1
                for k in range(len(w)):
                    cid = w[k]
                    if online[owner[cid]] == want:
                        found = k
                        break
                if found < 0:
                    continue
                if mid == 0:
                    self._owner_check(cid)
                    ops[_OP_TRANSFER] += 1
                    if self._track:
                        self._per_served[owner[cid]] += 1
                else:
                    ops[_OP_DOWNTIME_TRANSFER] += 1
                    self._c_dirty[cid] = 1
                if self._detection:
                    ops[_OP_DHT_PUBLISH] += 1
                    ops[_OP_DHT_READ] += 1
                self._c_layers[cid] = 0
                # Pending-renewal entries are invalidated lazily (holder
                # check at rejoin), matching the reference's eager discard
                # outcome-for-outcome.
                w[found] = w[-1]
                w.pop()
                self._c_holder[cid] = payee
                wallets[payee].append(cid)
            elif mid == 3:
                if not self._purchase_issue(payer, payee):
                    continue
            elif mid == 2:
                # ISSUE_EXISTING: unissued coins exist only transiently
                # inside purchase+issue (in the reference too — _purchase is
                # only ever called by _purchase_issue, which issues the coin
                # immediately), so the method can never find one.
                continue
            elif mid == 4:
                if not self._deposit_purchase_issue(payer, payee):
                    continue
            elif not self._layered_transfer(payer, payee):
                continue
            self._made += 1
            self._by_slot[slot] += 1
            if self._track:
                self._per_payments[payer] += 1
            return
        self._failed += 1

    def _layered_transfer(self, payer: int, payee: int) -> bool:
        max_layers = self._max_layers
        owner = self._c_owner
        online = self._online
        layers = self._c_layers
        w = self._wallets[payer]
        found = -1
        for k in range(len(w)):
            cid = w[k]
            if layers[cid] < max_layers and not online[owner[cid]]:
                found = k
                break
        if found < 0:
            return False
        self._ops[_OP_LAYERED] += 1
        depth = layers[cid]
        if depth:
            self._micro_ver += depth
            self._micro_gver += depth
        depth += 1
        layers[cid] = depth
        self._layered_total += depth
        if depth > self._layered_max:
            self._layered_max = depth
        w[found] = w[-1]
        w.pop()
        self._c_holder[cid] = payee
        self._wallets[payee].append(cid)
        return True

    def _purchase_issue(self, payer: int, payee: int) -> bool:
        # Purchase and issue fused: the reference adds the new coin to the
        # payer's wallet and unissued stack, then immediately pops and issues
        # it to the payee — the transient state is unobservable, so the fast
        # engine creates the coin directly in its post-issue state.
        balance = self._balance[payer]
        if balance < self._coin_value:
            return False
        self._balance[payer] = balance - self._coin_value
        cid = self._n_coins
        self._n_coins = cid + 1
        self._ap_owner(payer)
        self._ap_holder(payee)
        self._ap_dirty(0)
        self._ap_check(0)
        self._ap_retired(0)
        self._ap_layers(0)
        self._ap_onext(self._owned_head[payer])
        self._owned_head[payer] = cid
        self._wallets[payee].append(cid)
        ops = self._ops
        ops[_OP_PURCHASE] += 1
        ops[_OP_ISSUE] += 1
        self._coins_created += 1
        if self._track:
            self._per_served[payer] += 1
        if self._detection:
            ops[_OP_DHT_PUBLISH] += 1
            ops[_OP_DHT_READ] += 1
        self._schedule_renewal(cid)
        return True

    def _deposit_purchase_issue(self, payer: int, payee: int) -> bool:
        owner = self._c_owner
        online = self._online
        w = self._wallets[payer]
        found = -1
        for k in range(len(w)):
            cid = w[k]
            if not online[owner[cid]]:
                found = k
                break
        if found < 0:
            return False
        w[found] = w[-1]
        w.pop()
        self._c_retired[cid] = 1
        self._c_layers[cid] = 0
        # Owner's owned-list entry is compacted lazily at the next walk.
        self._balance[payer] += self._coin_value
        self._ops[_OP_DEPOSIT] += 1
        self._coins_retired += 1
        return self._purchase_issue(payer, payee)

    # -- metrics ------------------------------------------------------------

    def _fold_metrics(self) -> None:
        metrics = self.metrics
        metrics.ops = Counter(
            {name: count for name, count in zip(OP_NAMES, self._ops) if count}
        )
        micro: Counter = Counter()
        if self._micro_ver:
            micro["ver"] = self._micro_ver
        if self._micro_gver:
            micro["gver"] = self._micro_gver
        metrics.extra_peer_micro = micro
        metrics.payments_attempted = self._cand_events
        metrics.payments_made = self._made
        metrics.payments_failed = self._failed
        metrics.payments_by_method = Counter(
            {
                name: count
                for name, count in zip(self.config.policy.preferences, self._by_slot)
                if count
            }
        )
        metrics.coins_created = self._coins_created
        metrics.coins_retired = self._coins_retired
        metrics.layered_depth_total = self._layered_total
        metrics.layered_depth_max = self._layered_max
        metrics.per_peer_served = self._per_served
        metrics.per_peer_payments = self._per_payments
        metrics.broker_restarts = self._restarts
        metrics.snapshots_taken = self._restarts
        metrics.recovery_records_replayed = self._replayed
        metrics.recovery_replay_cost = self._replay_cost
        metrics.events = self._cand_events + self._qevents


def build_simulation(config: SimConfig, engine: str = "fast") -> FastSimulation:
    """``FastSimulation(config)``; ``engine`` names it, and no other name exists.

    The signature is the one ``benchmarks/e2e/workloads.py`` calls.
    """
    if engine != "fast":
        raise ValueError(f"unknown engine {engine!r}; the one engine is 'fast'")
    return FastSimulation(config)
