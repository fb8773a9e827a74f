"""The serial broker stage: verify in windows, commit in groups.

:class:`ThroughputEngine` drives a broker through a stream of raw requests
in windows of ``verify_batch``; a request that reaches the broker alone is
the same code as a window of one (:meth:`repro.core.broker.Broker.handle`):

1. a window's requests go to the :class:`~repro.pipeline.verify.VerificationPool`
   together, and each is handed its verdict in a
   :class:`~repro.core.broker.Admission` (without a pool, each request is
   verified alone by the broker's own);
2. with a :class:`~repro.store.groupcommit.GroupCommitter`, the engine
   *holds each reply* until the covering fsync runs its ``on_durable``
   callback (without one, the broker's own committer flushes each record
   before its reply);
3. the engine tops its :class:`~repro.crypto.dsa.DsaNoncePool` up once per
   window with a precomputed ``(k, g^k, k^-1)`` triple per reply binding.

Holding replies preserves the write-ahead discipline under group commit: a
crash between staging and fsync loses the whole batch atomically, no
client has seen a reply from it, and every affected client retries.

The engine is deterministic and single-threaded (lint rule WP102 keeps
wall clocks out of ``repro.*``): a batch is flushed when it reaches the
committer's ``max_batch`` or when the stream is drained, never by time.

One accepted edge: a replay-cache hit for a retried request releases the
cached reply immediately even if the original's batch is still pending —
the transport only retries after a reply was actually lost (crash or
drop), at which point the original batch has either been flushed or
discarded by recovery, so the live engine never hits that window.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Iterable, Sequence

from repro.core import protocol
from repro.core.broker import Admission, Broker
from repro.core.errors import ProtocolError
from repro.crypto.dsa import DsaNoncePool
from repro.net.rpc import wrap_idempotent
from repro.pipeline.verify import JOB_HOLDER, JOB_PURCHASE, Verdict, VerificationPool
from repro.store.groupcommit import GroupCommitter

#: Which pool job, if any, verifies each broker request kind.
_JOB_FOR_KIND = {
    **{row.broker_kind: JOB_HOLDER for row in protocol.HOLDER_OPS.values()},
    protocol.PURCHASE: JOB_PURCHASE,
}

#: Request kinds whose reply carries a freshly broker-signed binding.
_BINDING_KINDS = frozenset({protocol.DOWNTIME_TRANSFER, protocol.DOWNTIME_RENEWAL})


@dataclass
class ReplyRecord:
    """Outcome of one request, in submission order.

    ``released`` is the durability gate: an accepted reply may be shown to
    its client only once ``released`` is True, which the engine sets from
    the group-commit ``on_durable`` callback (at once for requests that
    staged nothing or whose record the broker flushed alone).
    """

    kind: str
    idem: str | None
    ok: bool = False
    reply: Any = None
    error: str | None = None
    released: bool = False
    durable_lsn: int | None = None


@dataclass
class EngineStats:
    """Counters for one :meth:`ThroughputEngine.run`."""

    processed: int = 0
    accepted: int = 0
    rejected: int = 0
    staged: int = 0  # requests that staged a journal record
    fsyncs: int = 0
    pool_jobs: int = 0
    preverified: int = 0
    nonces_pooled: int = 0  # signing nonces precomputed for batch reply signing

    def merge(self, other: "EngineStats") -> None:
        """Accumulate another run's counters into this one."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


class ThroughputEngine:
    """Run raw broker requests through pool verification and group commit.

    Requests are ``(kind, src, data, idem)`` tuples — the exact arguments a
    transport delivery would carry, with ``idem`` the retry key (``None``
    sends the request un-wrapped, outside the replay cache).
    """

    def __init__(
        self,
        broker: Broker,
        pool: VerificationPool | None = None,
        committer: GroupCommitter | None = None,
        verify_batch: int = 32,
    ) -> None:
        if verify_batch < 1:
            raise ValueError("verify_batch must be >= 1")
        if committer is not None and broker.store is None:
            raise ValueError("group commit needs a broker with a durable store")
        self.broker = broker
        self.pool = pool
        self.committer = committer
        self.verify_batch = verify_batch
        if committer is not None:
            broker.committer = committer  # the broker stages into it
        # Batch reply signing: the broker draws reply-binding nonces from
        # this pool, which the engine tops up once per drained window.
        self.nonce_pool = DsaNoncePool(broker.keypair)
        broker.nonce_pool = self.nonce_pool

    def run(
        self, requests: Iterable[tuple[str, str, bytes, str | None]]
    ) -> tuple[list[ReplyRecord], EngineStats]:
        """Process every request; returns per-request records and counters.

        All staged records are flushed before returning, so every accepted
        record in the result is ``released``.  A :class:`SimulatedCrash`
        (or any non-protocol error) propagates with staged-but-unflushed
        replies still unreleased — exactly the state a real crash leaves.
        """
        stats = EngineStats()
        records: list[ReplyRecord] = []
        batch: list[tuple[str, str, bytes, str | None]] = []
        committer = self.broker.committer
        flushes_before = 0 if committer is None else committer.flushes

        def drain() -> None:
            if not batch:
                return
            verdicts = self._verify(batch, stats)
            bindings = sum(1 for kind, _src, _data, _idem in batch if kind in _BINDING_KINDS)
            if bindings:
                stats.nonces_pooled += self.nonce_pool.ensure(bindings)
            for (kind, src, data, idem), verdict in zip(batch, verdicts):
                records.append(self._handle_one(kind, src, data, idem, verdict, stats))
            batch.clear()

        for request in requests:
            batch.append(request)
            if len(batch) >= self.verify_batch:
                drain()
        drain()
        if committer is not None:
            committer.flush()
            stats.fsyncs = committer.flushes - flushes_before
        return records, stats

    def _verify(
        self, batch: Sequence[tuple[str, str, bytes, str | None]], stats: EngineStats
    ) -> list[Verdict | None]:
        """One pool call per window: each request's verdict, or ``None``."""
        handed: list[Verdict | None] = [None] * len(batch)
        jobs = {
            index: (_JOB_FOR_KIND[kind], data)
            for index, (kind, _src, data, _idem) in enumerate(batch)
            if kind in _JOB_FOR_KIND
        }
        if self.pool is not None and jobs:
            verdicts: list[Verdict] = []
            stats.preverified += sum(self.pool.verify(list(jobs.values()), verdicts))
            stats.pool_jobs += len(jobs)
            for index, verdict in zip(jobs, verdicts):
                handed[index] = verdict
        return handed

    def _handle_one(
        self, kind: str, src: str, data: bytes, idem: str | None, verdict: Verdict | None,
        stats: EngineStats,
    ) -> ReplyRecord:
        record = ReplyRecord(kind=kind, idem=idem)
        stats.processed += 1
        payload: Any = data if idem is None else wrap_idempotent(data, idem)

        def release(lsn: int) -> None:
            record.released = True
            record.durable_lsn = lsn

        admission = Admission(verdict, None if self.committer is None else release)
        self.broker.admission = admission
        try:
            result = self.broker.handle(kind, src, payload)
        except ProtocolError as exc:
            # Rejections stage nothing, so the error reply needs no fsync.
            record.error = f"{type(exc).__name__}: {exc}"
            record.released = True
            stats.rejected += 1
        else:
            record.ok = True
            record.reply = result
            stats.accepted += 1
            if admission.staged:
                stats.staged += 1
            if not admission.staged or self.committer is None:
                # Read-only, or flushed alone inside handle(); else released
                # by the covering flush (maybe already, at max_batch).
                record.released = True
        return record
