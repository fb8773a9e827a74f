"""Crash-consistent durability for brokers and wallets.

The paper's central trust assumption is that the broker's monetary state
survives failures: losing an account destroys money, losing the deposited
ledger re-enables double spending.  This package provides the machinery a
production deployment would put under that assumption:

* :mod:`repro.store.journal` — an append-only write-ahead journal with
  length-prefixed, SHA-256-checksummed records plus atomic
  write-temp-then-rename snapshots and log compaction;
* :mod:`repro.store.crashpoints` — deterministic crash injection at every
  fsync boundary, so tests can kill the broker at each point where a real
  process could die;
* :mod:`repro.store.groupcommit` — group commit: stage many records, fsync
  them as one atomic group frame, release replies only afterwards;
* :mod:`repro.store.apply` — the single mutation-application layer shared
  by the live broker path and recovery replay (the only code allowed to
  touch durable broker fields — lint rule WP106 enforces this);
* :mod:`repro.store.records` — canonical journal-record serializers shared
  by peer journaling, the snapshots that compact the journal, and replay;
* :mod:`repro.store.recovery` — rebuilds a broker or peer by replaying its
  snapshot's records and then its journal's, and re-verifies every
  replayed signature;
* :mod:`repro.store.audit` — the post-recovery invariant auditor.

See ``docs/DURABILITY.md`` for the journal format and crash-point model.
"""

from repro.store.crashpoints import CrashPointPlan, SimulatedCrash
from repro.store.groupcommit import GroupCommitter
from repro.store.journal import DurableStore, JournalCorrupt

__all__ = [
    "CrashPointPlan",
    "DurableStore",
    "GroupCommitter",
    "JournalCorrupt",
    "SimulatedCrash",
]
