"""DurableStore mechanics: framing, snapshots, compaction, torn-write fuzz.

The torn-write fuzz is the heart of this file: a journal is cut at *every*
byte offset inside its final frame and must always load the exact prefix
of complete records, report the tear, and accept new appends after
:meth:`truncate_torn_tail`.  Bit rot (a complete frame whose checksum
mismatches) must never be confused with a tear — it is typed
:class:`JournalCorrupt` and refuses to load.
"""

from __future__ import annotations

import hashlib
import struct

import pytest

from repro.store.journal import DurableStore, JournalCorrupt

_LEN = struct.Struct(">I")
_CHECKSUM = 32


def logical(records):
    """Journal records minus the store-assigned LSN column.

    The canonical codec round-trips lists as tuples; normalize back so
    records compare equal to what was appended.
    """
    return [
        {k: (list(v) if isinstance(v, tuple) else v) for k, v in r.items() if k != "lsn"}
        for r in records
    ]


def sample_record(i: int) -> dict:
    return {"kind": "op", "idem": f"key-{i}", "muts": [{"type": "noop", "i": i}]}


def frame_spans(path):
    """(start, end, payload) for every frame in a journal file."""
    data = path.read_bytes()
    spans = []
    offset = 0
    while offset < len(data):
        (length,) = _LEN.unpack_from(data, offset)
        end = offset + _LEN.size + length + _CHECKSUM
        spans.append((offset, end, data[offset + _LEN.size : offset + _LEN.size + length]))
        offset = end
    return spans


class TestRoundTrip:
    def test_fresh_then_not(self, tmp_path):
        store = DurableStore(tmp_path / "s")
        assert store.fresh
        store.append(sample_record(0))
        assert not store.fresh

    def test_records_come_back_in_order_with_monotonic_lsns(self, tmp_path):
        store = DurableStore(tmp_path / "s")
        lsns = [store.append(sample_record(i)) for i in range(5)]
        assert lsns == [1, 2, 3, 4, 5]
        state, records, torn = store.load()
        assert state is None
        assert not torn
        assert [r["lsn"] for r in records] == lsns
        assert logical(records) == [sample_record(i) for i in range(5)]

    def test_reopen_continues_the_lsn_sequence(self, tmp_path):
        store = DurableStore(tmp_path / "s")
        for i in range(3):
            store.append(sample_record(i))
        reopened = DurableStore(tmp_path / "s")
        assert not reopened.fresh
        assert reopened.append(sample_record(3)) == 4
        _state, records, _torn = reopened.load()
        assert [r["lsn"] for r in records] == [1, 2, 3, 4]


class TestOneScan:
    """Opening and loading read each file once (they used to read both twice)."""

    @pytest.fixture()
    def reads(self, monkeypatch):
        from pathlib import Path

        seen = []
        real = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda self: (seen.append(self.name), real(self))[1])
        return seen

    def test_load_and_open_read_journal_and_snapshot_once(self, tmp_path, reads):
        store = DurableStore(tmp_path / "s")
        for i in range(3):
            store.append(sample_record(i))
        store.snapshot(b"state")
        store.append(sample_record(3))
        del reads[:]
        state, records, torn = store.load()
        assert (state, [r["lsn"] for r in records], torn) == (b"state", [4], False)
        assert sorted(reads) == ["journal.wal", "snapshot.bin"]
        del reads[:]
        assert DurableStore(tmp_path / "s").next_lsn == 5
        assert sorted(reads) == ["journal.wal", "snapshot.bin"]

    def test_recovery_scans_an_intact_journal_once_and_a_torn_one_twice(self, tmp_path, reads):
        from repro.core.network import PeerConfig, WhoPayNetwork
        from repro.crypto.params import PARAMS_TEST_512

        net = WhoPayNetwork(params=PARAMS_TEST_512, store_dir=tmp_path)
        net.add_peer("buyer", PeerConfig(balance=2)).purchase()
        del reads[:]
        net.restart_broker()
        assert reads.count("journal.wal") == 1
        with open(net.broker.store.journal_path, "ab") as fh:
            fh.write(b"\x00\x00")  # a tear
        del reads[:]
        assert net.restart_broker().torn_tail_bytes == 2
        assert reads.count("journal.wal") == 2  # the truncation's own pass


class TestSnapshotAndCompaction:
    def test_snapshot_compacts_and_covers(self, tmp_path):
        store = DurableStore(tmp_path / "s")
        for i in range(3):
            store.append(sample_record(i))
        covers = store.snapshot(b"state-1")
        assert covers == 3
        state, records, torn = store.load()
        assert (state, records, torn) == (b"state-1", [], False)
        assert store.journal_path.read_bytes() == b""

    def test_appends_after_snapshot_replay_on_top(self, tmp_path):
        store = DurableStore(tmp_path / "s")
        for i in range(3):
            store.append(sample_record(i))
        store.snapshot(b"state-1")
        store.append(sample_record(3))
        store.append(sample_record(4))
        state, records, _torn = store.load()
        assert state == b"state-1"
        assert [r["lsn"] for r in records] == [4, 5]
        reopened = DurableStore(tmp_path / "s")
        assert reopened.next_lsn == 6

    def test_second_snapshot_replaces_the_first(self, tmp_path):
        store = DurableStore(tmp_path / "s")
        store.append(sample_record(0))
        store.snapshot(b"state-1")
        store.append(sample_record(1))
        store.snapshot(b"state-2")
        state, records, _torn = store.load()
        assert state == b"state-2"
        assert records == []

    def test_empty_snapshot_of_a_fresh_store(self, tmp_path):
        store = DurableStore(tmp_path / "s")
        assert store.snapshot(b"empty") == 0
        assert not store.fresh
        state, records, _torn = store.load()
        assert (state, records) == (b"empty", [])


class TestTornWriteFuzz:
    N_RECORDS = 4

    def _build(self, root):
        store = DurableStore(root)
        for i in range(self.N_RECORDS):
            store.append(sample_record(i))
        return store

    def test_every_truncation_of_the_final_record_loads_the_prefix(self, tmp_path):
        master = self._build(tmp_path / "master")
        data = master.journal_path.read_bytes()
        last_start = frame_spans(master.journal_path)[-1][0]
        for cut in range(last_start, len(data)):
            root = tmp_path / f"cut{cut}"
            root.mkdir()
            (root / DurableStore.JOURNAL_NAME).write_bytes(data[:cut])
            store = DurableStore(root)
            _state, records, torn = store.load()
            assert len(records) == self.N_RECORDS - 1, f"cut at byte {cut}"
            assert torn == (cut > last_start), f"cut at byte {cut}"
            # Repair, then the journal must accept appends again.
            assert store.truncate_torn_tail() == cut - last_start
            assert store.append(sample_record(99)) == self.N_RECORDS
            _state, records, torn = store.load()
            assert not torn
            assert logical(records)[-1] == sample_record(99)

    def test_flipping_any_checksum_byte_is_corruption_not_a_tear(self, tmp_path):
        master = self._build(tmp_path / "master")
        data = master.journal_path.read_bytes()
        start, end, _payload = frame_spans(master.journal_path)[-1]
        for pos in range(end - _CHECKSUM, end):
            mutated = bytearray(data)
            mutated[pos] ^= 0xFF
            root = tmp_path / f"flip{pos}"
            root.mkdir()
            (root / DurableStore.JOURNAL_NAME).write_bytes(bytes(mutated))
            with pytest.raises(JournalCorrupt):
                DurableStore(root)

    def test_flipping_a_payload_byte_is_corruption_too(self, tmp_path):
        master = self._build(tmp_path / "master")
        data = bytearray(master.journal_path.read_bytes())
        start, _end, payload = frame_spans(master.journal_path)[0]
        data[start + _LEN.size + len(payload) // 2] ^= 0x01
        root = tmp_path / "rot"
        root.mkdir()
        (root / DurableStore.JOURNAL_NAME).write_bytes(bytes(data))
        with pytest.raises(JournalCorrupt):
            DurableStore(root)

    def test_garbage_length_prefix_reads_as_a_tear(self, tmp_path):
        # A fragment of a lost frame can masquerade as an absurd length;
        # the reader must stop there instead of chasing gigabytes.
        master = self._build(tmp_path / "master")
        data = master.journal_path.read_bytes()
        root = tmp_path / "garbage"
        root.mkdir()
        (root / DurableStore.JOURNAL_NAME).write_bytes(data + b"\xff\xff\xff\xff\x00")
        store = DurableStore(root)
        _state, records, torn = store.load()
        assert len(records) == self.N_RECORDS
        assert torn
        assert store.truncate_torn_tail() == 5

    def test_truncate_is_a_noop_on_a_clean_journal(self, tmp_path):
        store = self._build(tmp_path / "s")
        assert store.truncate_torn_tail() == 0
        _state, records, _torn = store.load()
        assert len(records) == self.N_RECORDS


class TestSnapshotIntegrity:
    def test_bad_magic_is_corrupt(self, tmp_path):
        store = DurableStore(tmp_path / "s")
        store.snapshot(b"state")
        blob = store.snapshot_path.read_bytes()
        store.snapshot_path.write_bytes(b"XX" + blob[2:])
        with pytest.raises(JournalCorrupt):
            DurableStore(tmp_path / "s")

    def test_flipped_snapshot_byte_is_corrupt(self, tmp_path):
        store = DurableStore(tmp_path / "s")
        store.snapshot(b"state")
        blob = bytearray(store.snapshot_path.read_bytes())
        blob[-1] ^= 0x01
        store.snapshot_path.write_bytes(bytes(blob))
        with pytest.raises(JournalCorrupt):
            DurableStore(tmp_path / "s")

    def test_truncated_snapshot_is_corrupt(self, tmp_path):
        store = DurableStore(tmp_path / "s")
        store.snapshot(b"state")
        blob = store.snapshot_path.read_bytes()
        store.snapshot_path.write_bytes(blob[: len(blob) - 3])
        with pytest.raises(JournalCorrupt):
            DurableStore(tmp_path / "s")
