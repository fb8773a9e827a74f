"""The serial broker stage: verify in batches, commit in groups.

:class:`ThroughputEngine` drives a broker through a stream of raw
requests with the two batched accelerators wired in:

1. each verify-batch of requests goes to the :class:`~repro.pipeline.verify.VerificationPool`
   first; the digests of the requests that pass are handed to
   :meth:`~repro.core.broker.Broker.mark_preverified` — beside the holder
   request the pool opened for each — so the broker's handlers skip
   re-running the signature checks and decode nothing a second time;
2. with a :class:`~repro.store.groupcommit.GroupCommitter` attached, the
   broker stages each request's journal record instead of fsyncing it, and
   the engine *holds the reply* until the committer's covering fsync runs
   the record's ``on_durable`` callback;
3. reply *signing* is batched too: the engine owns a
   :class:`~repro.crypto.dsa.DsaNoncePool` and tops it up once per drained
   batch with exactly as many precomputed ``(k, g^k, k^-1)`` triples as the
   batch has binding-minting requests, so each broker-signed reply binding
   costs two modular multiplications instead of an exponentiation plus an
   inversion.

Holding replies is what preserves the PR-4 write-ahead discipline under
group commit: a client never observes a reply whose mutations are not yet
durable, so a crash between staging and fsync loses the whole batch
atomically and every affected client simply retries — the same lost-reply
story as the per-request path, amortized.

The engine is deterministic and single-threaded (lint rule WP102 keeps
wall clocks out of ``repro.*``): a batch is flushed when it reaches the
committer's ``max_batch`` or when the window is drained, never by time.

One accepted edge: a replay-cache hit for a retried request releases the
cached reply immediately even if the original's batch is still pending —
the transport only retries after a reply was actually lost (crash or
drop), at which point the original batch has either been flushed or
discarded by recovery, so the live engine never hits that window.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import Any, Iterable, Sequence

from repro.core import protocol
from repro.core.broker import Broker
from repro.core.errors import ProtocolError
from repro.crypto.dsa import DsaNoncePool
from repro.net.rpc import wrap_idempotent
from repro.pipeline.verify import JOB_HOLDER, JOB_PURCHASE, VerificationPool
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
    the group-commit ``on_durable`` callback (immediately, for requests
    that staged nothing or when no committer is attached).
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
    staged: int = 0  # requests whose journal record went through the committer/store
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
        # The broker stages into this committer (or appends per request if None).
        broker.committer = committer
        # Batch reply signing: the broker draws signing nonces for reply
        # bindings from this pool, which the engine tops up once per drained
        # batch (fixed-base exponentiation + one Montgomery batch inversion)
        # instead of paying a fresh exponentiation inside every handler.
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
        flushes_before = 0 if self.committer is None else self.committer.flushes

        def drain() -> None:
            if not batch:
                return
            self._preverify(batch, stats)
            bindings = sum(1 for kind, _src, _data, _idem in batch if kind in _BINDING_KINDS)
            if bindings:
                stats.nonces_pooled += self.nonce_pool.ensure(bindings)
            for kind, src, data, idem in batch:
                records.append(self._handle_one(kind, src, data, idem, stats))
            batch.clear()

        for request in requests:
            batch.append(request)
            if len(batch) >= self.verify_batch:
                drain()
        drain()
        if self.committer is not None:
            self.committer.flush()
            stats.fsyncs = self.committer.flushes - flushes_before
        else:
            stats.fsyncs = stats.staged
        return records, stats

    def _preverify(
        self, batch: Sequence[tuple[str, str, bytes, str | None]], stats: EngineStats
    ) -> None:
        """Pool-verify one batch; mark the passing digests on the broker, each
        with the holder request the pool opened for it (if it handed one)."""
        if self.pool is None:
            return
        jobs = [
            (_JOB_FOR_KIND[kind], data)
            for kind, _src, data, _idem in batch
            if kind in _JOB_FOR_KIND
        ]
        if not jobs:
            return
        opened: dict[int, protocol.HolderRequest] = {}
        verdicts = self.pool.verify(jobs, opened)
        stats.pool_jobs += len(jobs)
        vouched = {
            hashlib.sha256(data).digest(): opened.get(index)
            for index, ((_job, data), passed) in enumerate(zip(jobs, verdicts))
            if passed
        }
        stats.preverified += len(vouched)
        self.broker.mark_preverified(vouched)

    def _handle_one(
        self, kind: str, src: str, data: bytes, idem: str | None, stats: EngineStats
    ) -> ReplyRecord:
        record = ReplyRecord(kind=kind, idem=idem)
        stats.processed += 1
        payload: Any = data if idem is None else wrap_idempotent(data, idem)

        def release(lsn: int) -> None:
            record.released = True
            record.durable_lsn = lsn

        if self.committer is not None:
            self.broker.on_durable = release
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
            if self.broker.store is not None and self.broker.last_request_staged:
                stats.staged += 1
                if self.committer is None:
                    record.released = True  # fsynced inside handle()
                # else: released by the covering flush's callback (which may
                # already have run, if staging tripped the max_batch flush).
            else:
                record.released = True  # read-only request: nothing to make durable
        finally:
            self.broker.on_durable = None
        return record
