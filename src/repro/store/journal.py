"""Append-only write-ahead journal with atomic snapshots.

On-disk layout of a store directory::

    journal.wal     frame*            (append-only; fsync per frame)
    snapshot.bin    MAGIC frame       (atomic: write temp, fsync, rename)

where ``frame`` is::

    4-byte big-endian payload length | canonical-codec payload | SHA-256(payload)

Every journal payload is a dict carrying an ``lsn`` (log sequence number,
monotonically increasing from 1).  A frame holds either one record
(:meth:`DurableStore.append`) or a *group* of consecutively-stamped records
(:meth:`DurableStore.append_many` — group commit: one fsync covers the
batch, and because the batch shares one checksummed frame, a torn write
loses it atomically).  A snapshot records ``covers_lsn``: the
highest LSN whose effects it already contains.  Loading applies the
snapshot and replays only records with ``lsn > covers_lsn``, which makes
snapshot + compaction crash-safe at *every* interleaving — a crash between
the snapshot rename and the journal rewrite merely leaves covered records
in the journal, and they are skipped on replay.

Failure discrimination is strict and typed:

* an **incomplete tail frame** (torn write: the process died mid-append)
  is tolerated — loading stops at the last complete record and reports
  ``torn_tail=True`` so recovery can truncate it;
* a **complete frame whose checksum mismatches** (bit rot, tampering) is
  :class:`JournalCorrupt` — partial state is never loaded silently.

Crash injection: when a :class:`~repro.store.crashpoints.CrashPointPlan`
is attached, every fsync boundary calls ``plan.crossing(site)``; a
pre-fsync crash on an append additionally leaves a seeded torn prefix of
the in-flight frame on disk, exactly like a real mid-write death.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import struct
from pathlib import Path
from typing import Any

from repro.messages.codec import CodecError, decode, encode
from repro.store.crashpoints import CrashPointPlan, SimulatedCrash

_LEN = struct.Struct(">I")
_CHECKSUM_BYTES = 32
SNAPSHOT_MAGIC = b"WPSNAP1\n"

#: Upper bound on a single record (sanity check against garbage lengths).
MAX_FRAME_PAYLOAD = 64 * 1024 * 1024


class JournalCorrupt(Exception):
    """A complete frame (or the snapshot) fails its integrity check."""


def _frame(payload: bytes) -> bytes:
    return _LEN.pack(len(payload)) + payload + hashlib.sha256(payload).digest()


def _is_group_frame(record: Any) -> bool:
    """True iff ``record`` is an :meth:`DurableStore.append_many` group frame.

    Group frames have *exactly* the keys ``{"lsn", "group"}``, so a caller
    record that merely happens to contain a ``"group"`` field (it would also
    carry its own payload keys) can never be mistaken for one.
    """
    return isinstance(record, dict) and set(record) == {"lsn", "group"}


class DurableStore:
    """One entity's journal + snapshot directory.

    ``crash_points`` may be attached (or swapped) at any time; harnesses
    typically build the store first, run setup traffic, and only then arm
    a plan so crash-point indices enumerate steady-state boundaries.
    """

    JOURNAL_NAME = "journal.wal"
    SNAPSHOT_NAME = "snapshot.bin"

    def __init__(self, root: str | Path, crash_points: CrashPointPlan | None = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.root / self.JOURNAL_NAME
        self.snapshot_path = self.root / self.SNAPSHOT_NAME
        self.crash_points = crash_points
        covers, _state, records, _torn = self._load()
        self.next_lsn = max([covers] + [record["lsn"] for record in records]) + 1

    # -- state queries -------------------------------------------------------

    @property
    def fresh(self) -> bool:
        """True iff nothing has ever been journaled or snapshotted here."""
        return self.next_lsn == 1 and not self.snapshot_path.exists()

    # -- crash injection -----------------------------------------------------

    def _crossing(self, site: str, pending_frame: bytes | None = None) -> None:
        plan = self.crash_points
        if plan is None:
            return
        try:
            plan.crossing(site)
        except SimulatedCrash:
            if pending_frame is not None:
                # Died mid-append: a prefix of the frame is on disk.
                torn = plan.torn_length(len(pending_frame))
                if torn:
                    with open(self.journal_path, "ab") as fh:
                        fh.write(pending_frame[:torn])
                        fh.flush()
                        os.fsync(fh.fileno())
            raise

    # -- writing -------------------------------------------------------------

    def append(self, record: dict[str, Any]) -> int:
        """Durably append one record; returns its LSN.

        The record is stamped with the next LSN, framed, written, and
        fsynced before this method returns — callers may only send a reply
        after ``append`` succeeds (write-ahead discipline).
        """
        lsn = self.next_lsn
        stamped = dict(record)
        stamped["lsn"] = lsn
        frame = _frame(encode(stamped))
        self._crossing("journal.append.pre_sync", pending_frame=frame)
        with open(self.journal_path, "ab") as fh:
            fh.write(frame)
            fh.flush()
            os.fsync(fh.fileno())
        self.next_lsn = lsn + 1
        self._crossing("journal.append.post_sync")
        return lsn

    def append_many(self, records: list[dict[str, Any]]) -> list[int]:
        """Durably append several records with ONE fsync; returns their LSNs.

        Group commit: the records are stamped with consecutive LSNs and
        encoded into a *single* journal frame (``{"lsn": <last>, "group":
        (<stamped>, ...)}``), so the frame checksum covers the whole batch
        and a torn write loses the batch atomically — there is no
        interleaving where a prefix of the batch survives a crash.  Loading
        expands the group back into its member records transparently.

        Write-ahead discipline is unchanged, just amortized: callers may
        release the replies for *all* covered requests once this returns.
        A batch of one degenerates to :meth:`append` (same frame layout,
        same crash sites), so crash-point enumeration is stable for
        harnesses that flush per record.
        """
        if not records:
            return []
        if len(records) == 1:
            return [self.append(records[0])]
        first = self.next_lsn
        stamped = []
        for offset, record in enumerate(records):
            entry = dict(record)
            entry["lsn"] = first + offset
            stamped.append(entry)
        last = first + len(records) - 1
        frame = _frame(encode({"lsn": last, "group": tuple(stamped)}))
        self._crossing("journal.group.pre_sync", pending_frame=frame)
        with open(self.journal_path, "ab") as fh:
            fh.write(frame)
            fh.flush()
            os.fsync(fh.fileno())
        self.next_lsn = last + 1
        self._crossing("journal.group.post_sync")
        return list(range(first, last + 1))

    def snapshot(self, state: bytes) -> int:
        """Atomically install ``state`` as the snapshot and compact the log.

        Returns the LSN the snapshot covers.  The temp-write / fsync /
        rename sequence means a crash at any boundary leaves either the
        old snapshot or the new one — never a torn mixture — and the LSN
        skip rule makes the subsequent journal rewrite equally crash-safe.
        """
        covers = self.next_lsn - 1
        payload = encode({"covers_lsn": covers, "state": state})
        blob = SNAPSHOT_MAGIC + _frame(payload)
        tmp = self.snapshot_path.with_name(self.snapshot_path.name + ".tmp")
        self._crossing("snapshot.pre_sync")
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        self._crossing("snapshot.post_sync")
        os.replace(tmp, self.snapshot_path)
        self._crossing("snapshot.post_rename")
        self._compact(covers)
        return covers

    def _compact(self, covers: int) -> None:
        """Drop journal records the snapshot already covers.

        A group-commit frame whose members straddle ``covers`` is re-framed
        with only the uncovered members (its stored ``lsn`` is the last
        member's, so the covered/uncovered decision is per member).
        """
        frames: list[bytes] = []
        for payload in self._scan_frames()[0]:
            record = decode(payload)
            if _is_group_frame(record):
                members = record["group"]
                keep = tuple(member for member in members if member["lsn"] > covers)
                if not keep:
                    continue
                if len(keep) == len(members):
                    frames.append(_frame(payload))
                else:
                    frames.append(_frame(encode({"lsn": keep[-1]["lsn"], "group": keep})))
            elif record["lsn"] > covers:
                frames.append(_frame(payload))
        self._crossing("journal.compact.pre_sync")
        tmp = self.journal_path.with_name(self.journal_path.name + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(b"".join(frames))
            fh.flush()
            os.fsync(fh.fileno())
        self._crossing("journal.compact.post_sync")
        os.replace(tmp, self.journal_path)

    def truncate_torn_tail(self) -> int:
        """Cut an incomplete tail frame off the journal; returns bytes cut.

        Recovery must call this before the store is appended to again —
        new frames written after torn bytes would be unreachable (the
        reader stops at the tear).
        """
        _payloads, torn_bytes = self._scan_frames()
        if torn_bytes:
            with open(self.journal_path, "r+b") as fh:
                fh.truncate(fh.seek(-torn_bytes, os.SEEK_END))
                fh.flush()
                os.fsync(fh.fileno())
        return torn_bytes

    # -- reading -------------------------------------------------------------

    def load(self) -> tuple[bytes | None, list[dict[str, Any]], bool]:
        """Read everything back: ``(snapshot_state, records, torn_tail)``.

        ``snapshot_state`` is the exact bytes passed to :meth:`snapshot`
        (``None`` if no snapshot exists); ``records`` are the journal
        records *after* the snapshot's covered LSN, in order;
        ``torn_tail`` reports an incomplete final frame (tolerated).
        Raises :class:`JournalCorrupt` on any integrity failure.
        """
        return self._load()[1:]

    def _load(self) -> tuple[int, bytes | None, list[dict[str, Any]], bool]:
        """:meth:`load` behind the LSN the snapshot covers (the constructor
        wants it): one read of each file, one checksum pass."""
        snapshot = self._read_snapshot()
        covers, state = (snapshot["covers_lsn"], snapshot["state"]) if snapshot else (0, None)
        records: list[dict[str, Any]] = []
        last_lsn = None
        payloads, torn_bytes = self._scan_frames()
        for payload in payloads:
            try:
                record = decode(payload)
            except CodecError as exc:  # pragma: no cover - checksum guards this
                raise JournalCorrupt(f"record decodes to garbage: {exc}") from exc
            if not isinstance(record, dict) or "lsn" not in record:
                raise JournalCorrupt("journal record is missing its LSN")
            # A group-commit frame carries several records; expand it so
            # callers replay exactly what they would have with per-record
            # appends (the frame is the atomicity unit, not the interface).
            if _is_group_frame(record):
                members = record["group"]
                if not isinstance(members, tuple) or not members:
                    raise JournalCorrupt("group-commit frame has a malformed member list")
            else:
                members = (record,)
            for member in members:
                if not isinstance(member, dict) or "lsn" not in member:
                    raise JournalCorrupt("group-commit member is missing its LSN")
                lsn = member["lsn"]
                if last_lsn is not None and lsn <= last_lsn:
                    raise JournalCorrupt(f"non-monotonic LSN {lsn} after {last_lsn}")
                last_lsn = lsn
                if lsn > covers:
                    records.append(member)
        return covers, state, records, torn_bytes > 0

    def _scan_frames(self) -> tuple[list[bytes], int]:
        """Complete, checksum-verified frame payloads, and how many bytes of
        an incomplete frame (a tear: the scan stops there) follow them."""
        if not self.journal_path.exists():
            return [], 0
        data = self.journal_path.read_bytes()
        payloads: list[bytes] = []
        offset = 0
        while offset < len(data):
            if offset + _LEN.size > len(data):
                break  # torn inside the length prefix
            (length,) = _LEN.unpack_from(data, offset)
            if length == 0 or length > MAX_FRAME_PAYLOAD:
                # A complete-but-absurd length prefix can only come from a
                # tear (the prefix bytes are a fragment of a lost frame).
                break
            end = offset + _LEN.size + length + _CHECKSUM_BYTES
            if end > len(data):
                break  # torn inside payload or checksum
            payload = data[offset + _LEN.size : offset + _LEN.size + length]
            checksum = data[offset + _LEN.size + length : end]
            if not hmac.compare_digest(hashlib.sha256(payload).digest(), checksum):
                raise JournalCorrupt(
                    f"record checksum mismatch at byte {offset} of {self.journal_path}"
                )
            payloads.append(payload)
            offset = end
        return payloads, len(data) - offset

    def _read_snapshot(self) -> dict[str, Any] | None:
        if not self.snapshot_path.exists():
            return None
        data = self.snapshot_path.read_bytes()
        if not data.startswith(SNAPSHOT_MAGIC):
            raise JournalCorrupt(f"{self.snapshot_path} is not a snapshot")
        body = data[len(SNAPSHOT_MAGIC) :]
        if len(body) < _LEN.size:
            raise JournalCorrupt(f"{self.snapshot_path} is truncated")
        (length,) = _LEN.unpack_from(body, 0)
        end = _LEN.size + length + _CHECKSUM_BYTES
        if length > MAX_FRAME_PAYLOAD or len(body) != end:
            raise JournalCorrupt(f"{self.snapshot_path} has a malformed frame")
        payload = body[_LEN.size : _LEN.size + length]
        checksum = body[_LEN.size + length : end]
        if not hmac.compare_digest(hashlib.sha256(payload).digest(), checksum):
            raise JournalCorrupt(f"{self.snapshot_path} checksum mismatch")
        snapshot = decode(payload)
        if (
            not isinstance(snapshot, dict)
            or "covers_lsn" not in snapshot
            or not isinstance(snapshot.get("state"), bytes)
        ):
            raise JournalCorrupt(f"{self.snapshot_path} has an unrecognized shape")
        return snapshot
