"""Group commit: one fsync per batch, with per-record crash semantics intact.

Extends the PR-4 crash-point sweep to the group-commit boundaries
(``journal.group.pre_sync`` / ``journal.group.post_sync``): a crash
between staging and the covering fsync must lose the whole batch
atomically — and must never have released a reply for an unfsynced
mutation — while a crash after the fsync keeps the batch and serves
retries from the recovered replay cache (exactly-once).
"""

from __future__ import annotations

import pytest

from repro.crypto.params import PARAMS_TEST_512
from repro.pipeline import LoadGenerator, ThroughputEngine
from repro.store.crashpoints import CrashPointPlan, SimulatedCrash
from repro.store.groupcommit import GroupCommitter
from repro.store.journal import DurableStore


def sample_record(i: int) -> dict:
    return {"kind": "op", "idem": f"key-{i}", "muts": [{"type": "noop", "i": i}]}


class TestAppendMany:
    def test_lsns_are_consecutive_and_load_expands_the_group(self, tmp_path):
        store = DurableStore(tmp_path / "s")
        store.append(sample_record(0))
        assert store.append_many([sample_record(1), sample_record(2)]) == [2, 3]
        store.append(sample_record(3))
        _state, records, torn = store.load()
        assert not torn
        assert [r["lsn"] for r in records] == [1, 2, 3, 4]
        assert [r["muts"][0]["i"] for r in records] == [0, 1, 2, 3]

    def test_batch_of_one_degenerates_to_plain_append(self, tmp_path):
        plan = CrashPointPlan(fire_at=None)
        store = DurableStore(tmp_path / "s", crash_points=plan)
        assert store.append_many([sample_record(0)]) == [1]
        assert plan.sites == ["journal.append.pre_sync", "journal.append.post_sync"]

    def test_empty_batch_is_a_noop(self, tmp_path):
        store = DurableStore(tmp_path / "s")
        assert store.append_many([]) == []
        assert store.fresh

    def test_group_frame_has_its_own_crash_sites(self, tmp_path):
        plan = CrashPointPlan(fire_at=None)
        store = DurableStore(tmp_path / "s", crash_points=plan)
        store.append_many([sample_record(0), sample_record(1), sample_record(2)])
        assert plan.sites == ["journal.group.pre_sync", "journal.group.post_sync"]

    def test_a_record_holding_a_group_key_is_not_a_group_frame(self, tmp_path):
        store = DurableStore(tmp_path / "s")
        record = {"kind": "op", "idem": None, "group": ["decoy"], "muts": []}
        store.append(dict(record))
        _state, records, _torn = store.load()
        assert len(records) == 1 and records[0]["group"] == ("decoy",)

    def test_snapshot_compacts_a_fully_covered_group(self, tmp_path):
        store = DurableStore(tmp_path / "s")
        store.append_many([sample_record(0), sample_record(1)])
        store.snapshot(b"S")
        _state, records, _torn = store.load()
        assert records == []
        reopened = DurableStore(tmp_path / "s")
        assert reopened.next_lsn == 3  # LSNs reserved by the group survive

    def test_compact_reframes_a_partially_covered_group(self, tmp_path):
        # Defensive path: no live interleaving produces a group straddling
        # a snapshot (appends are atomic units), but compaction must not
        # silently drop or duplicate members if one ever does.
        store = DurableStore(tmp_path / "s")
        store.append_many([sample_record(0), sample_record(1), sample_record(2)])
        store._compact(covers=2)
        _state, records, _torn = store.load()
        assert [r["lsn"] for r in records] == [3]
        assert records[0]["muts"][0]["i"] == 2


class TestGroupCommitterMechanics:
    def test_flush_runs_callbacks_in_staging_order_with_lsns(self, tmp_path):
        store = DurableStore(tmp_path / "s")
        committer = GroupCommitter(store, max_batch=10)
        released: list[tuple[int, int]] = []
        for i in range(3):
            committer.stage(sample_record(i), on_durable=lambda lsn, i=i: released.append((i, lsn)))
        assert committer.pending == 3 and released == []
        assert committer.flush() == [1, 2, 3]
        assert released == [(0, 1), (1, 2), (2, 3)]
        assert committer.flushes == 1 and committer.pending == 0

    def test_max_batch_triggers_automatic_flush(self, tmp_path):
        store = DurableStore(tmp_path / "s")
        committer = GroupCommitter(store, max_batch=2)
        released: list[int] = []
        committer.stage(sample_record(0), on_durable=released.append)
        assert released == []
        committer.stage(sample_record(1), on_durable=released.append)
        assert released == [1, 2]  # staging the 2nd record flushed the batch
        assert committer.pending == 0

    def test_crashed_flush_never_runs_callbacks_or_double_appends(self, tmp_path):
        root = tmp_path / "s"
        store = DurableStore(root, crash_points=CrashPointPlan(fire_at=0, seed=7))
        committer = GroupCommitter(store, max_batch=10)
        released: list[int] = []
        committer.stage(sample_record(0), on_durable=released.append)
        committer.stage(sample_record(1), on_durable=released.append)
        with pytest.raises(SimulatedCrash) as excinfo:
            committer.flush()
        assert excinfo.value.site == "journal.group.pre_sync"
        # No reply was released for the unfsynced batch, and the batch is
        # gone — a later flush cannot resurrect (double-append) it.
        assert released == [] and committer.pending == 0
        assert committer.flush() == []
        recovered = DurableStore(root)
        recovered.truncate_torn_tail()
        _state, records, torn = recovered.load()
        assert (records, torn) == ([], False)


class TestGroupCrashSweep:
    """Every group-commit boundary death leaves an all-or-nothing batch."""

    def _recover(self, root):
        store = DurableStore(root)
        store.truncate_torn_tail()
        state, records, torn = store.load()
        assert not torn
        return records

    def test_pre_sync_death_loses_the_whole_batch_atomically(self, tmp_path):
        for seed in range(5):  # several torn-prefix lengths of the group frame
            root = tmp_path / f"s{seed}"
            store = DurableStore(root, crash_points=CrashPointPlan(fire_at=0, seed=seed))
            with pytest.raises(SimulatedCrash):
                store.append_many([sample_record(i) for i in range(4)])
            records = self._recover(root)
            assert records == []  # never a surviving prefix of the batch

    def test_post_sync_death_keeps_the_whole_batch(self, tmp_path):
        root = tmp_path / "s"
        store = DurableStore(root, crash_points=CrashPointPlan(fire_at=1))
        with pytest.raises(SimulatedCrash) as excinfo:
            store.append_many([sample_record(i) for i in range(4)])
        assert excinfo.value.site == "journal.group.post_sync"
        assert [r["lsn"] for r in self._recover(root)] == [1, 2, 3, 4]

    def test_lsns_are_reused_safely_after_a_lost_batch(self, tmp_path):
        root = tmp_path / "s"
        store = DurableStore(root, crash_points=CrashPointPlan(fire_at=0, seed=3))
        with pytest.raises(SimulatedCrash):
            store.append_many([sample_record(0), sample_record(1)])
        recovered = DurableStore(root)
        recovered.truncate_torn_tail()
        assert recovered.append_many([sample_record(7), sample_record(8)]) == [1, 2]


class TestBrokerExactlyOnceUnderGroupCommit:
    """End-to-end: engine + broker + committer across a mid-batch crash."""

    def _generator(self, tmp_path):
        return LoadGenerator(
            peers=3, coins_per_peer=1, params=PARAMS_TEST_512,
            store_dir=tmp_path / "net", seed=13,
        )

    def _wire(self, generator, ops):
        return [(r.kind, r.src, r.data, r.idem) for r in generator.make_round(ops)]

    def test_crash_before_fsync_rolls_back_and_retry_reexecutes(self, tmp_path):
        generator = self._generator(tmp_path)
        network = generator.network
        committer = GroupCommitter(network.shards[0].store, max_batch=64)
        engine = ThroughputEngine(network.shards[0], committer=committer, verify_batch=64)
        wire = self._wire(generator, 5)
        ledger_before = network.broker.export_ledger()

        network.arm_crash_points(CrashPointPlan(fire_at=0, seed=3))
        with pytest.raises(SimulatedCrash) as excinfo:
            engine.run(wire)
        assert excinfo.value.site == "journal.group.pre_sync"

        result = network.restart_broker()
        assert result.audit is not None and result.audit.ok
        broker = network.shards[0]
        # The whole round is gone: no binding, mint, or credit survived.
        monetary = lambda ledger: {k: v for k, v in ledger.items() if k != "operation_counts"}
        assert monetary(network.broker.export_ledger()) == monetary(ledger_before)
        assert broker.downtime_bindings == {}

        # The clients never saw a reply, so they retry the same envelopes.
        retry_engine = ThroughputEngine(
            broker, committer=GroupCommitter(broker.store, max_batch=64), verify_batch=64
        )
        records, stats = retry_engine.run(wire)
        assert stats.accepted == stats.processed == 5
        assert all(r.ok and r.released for r in records)
        generator.absorb(records)  # bindings decode against the new broker state

    def test_crash_after_fsync_serves_retries_from_the_replay_cache(self, tmp_path):
        generator = self._generator(tmp_path)
        network = generator.network
        committer = GroupCommitter(network.shards[0].store, max_batch=64)
        engine = ThroughputEngine(network.shards[0], committer=committer, verify_batch=64)
        wire = self._wire(generator, 5)

        network.arm_crash_points(CrashPointPlan(fire_at=1))
        with pytest.raises(SimulatedCrash) as excinfo:
            engine.run(wire)
        assert excinfo.value.site == "journal.group.post_sync"

        result = network.restart_broker()
        assert result.audit is not None and result.audit.ok
        broker = network.shards[0]
        ledger_after_crash = network.broker.export_ledger()

        # The batch became durable before the crash: retrying the identical
        # requests must not re-execute anything (exactly-once).
        retry_engine = ThroughputEngine(
            broker, committer=GroupCommitter(broker.store, max_batch=64), verify_batch=64
        )
        records, stats = retry_engine.run(wire)
        assert stats.accepted == stats.processed == 5
        assert all(r.ok and r.released for r in records)
        assert broker.replays_served >= 5
        assert network.broker.export_ledger() == ledger_after_crash
        generator.absorb(records)
