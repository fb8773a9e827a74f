"""Group commit: amortize one fsync over a batch of journal records.

The PR-4 write-ahead discipline says a reply may leave the broker only
after the journal record describing its mutations is fsynced.  Honoring
that per request costs one fsync per operation — on commodity storage the
fsync alone caps throughput well below what batched signature verification
can sustain.  :class:`GroupCommitter` restores the balance: handlers
*stage* their records (and the callbacks that release their replies), and
a later *flush* writes the whole batch as one group frame
(:meth:`repro.store.journal.DurableStore.append_many`) with a single
fsync, then — and only then — runs the callbacks.

Crash semantics are exactly the per-record ones, batched: a crash before
the covering fsync loses the *entire* batch atomically (the group frame is
one checksummed unit, so no torn prefix of it survives recovery), and no
reply for any record in it has been released — every affected client
retries against the recovered state, which is precisely the per-record
lost-reply story.  A crash after the fsync is the usual
durable-but-reply-lost ambiguity the idempotent-retry path already covers.

Flushing policy is one knob, ``max_batch``: staging the Nth record
triggers an automatic flush.  Otherwise the owning loop (the throughput
engine at the end of each window, a test harness) decides when to call
:meth:`flush`; the committer has no timer and no thread of its own, which
keeps crash injection and replay deterministic.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.store.journal import DurableStore


class GroupCommitter:
    """Stage journal records; fsync them in batches; then release replies.

    ``on_durable`` callbacks are the reply-release hook: they run strictly
    after the covering fsync, in staging order, and never run at all if the
    append died first — so a caller that only replies from its callback can
    never leak a reply for an unfsynced mutation.
    """

    def __init__(self, store: DurableStore, max_batch: int = 32) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self.store = store
        self.max_batch = max_batch
        self.flushes = 0  # fsync count: one per non-empty flush
        self._records: list[dict[str, Any]] = []
        self._callbacks: list[Callable[[int], None] | None] = []

    @property
    def pending(self) -> int:
        """Records staged but not yet durable."""
        return len(self._records)

    def stage(
        self, record: dict[str, Any], on_durable: Callable[[int], None] | None = None
    ) -> None:
        """Queue ``record``; run ``on_durable(lsn)`` after its covering fsync.

        Reaching ``max_batch`` staged records flushes immediately, so a
        caller that only ever stages still gets bounded reply latency.
        """
        self._records.append(record)
        self._callbacks.append(on_durable)
        if len(self._records) >= self.max_batch:
            self.flush()

    def flush(self) -> list[int]:
        """Make every staged record durable with one fsync; returns LSNs.

        The staged batch is consumed *before* the append so a crash raised
        at the fsync boundary (:class:`~repro.store.crashpoints.SimulatedCrash`)
        cannot double-append on a later flush: the batch is simply lost,
        which is the correct crash outcome.  Callbacks run only on success.
        """
        if not self._records:
            return []
        records, self._records = self._records, []
        callbacks, self._callbacks = self._callbacks, []
        lsns = self.store.append_many(records)
        self.flushes += 1
        for lsn, callback in zip(lsns, callbacks):
            if callback is not None:
                callback(lsn)
        return lsns
