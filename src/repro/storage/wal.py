"""Append-only write-ahead log for :class:`EtcdStore` (DESIGN.md §13).

The WAL models the disk that survives a kill -9 while the store's memory
does not.  Every mutation the store emits becomes one :class:`WalRecord`:
the event fields are serialized to canonical JSON bytes (``sort_keys``,
so the checksum never depends on dict insertion order — linter rule D006)
and guarded by a CRC32.  Records accumulate in bounded
:class:`WalSegment` files; a segment rolls when it reaches
``segment_records`` entries, mirroring etcd's 64 MB segment files.

Durability semantics:

- ``fsync_interval == 0`` (the default) models etcd's fsync-per-commit:
  a record is durable the moment :meth:`WriteAheadLog.append` returns.
- ``fsync_interval > 0`` batches: a sim process calls :meth:`sync` on a
  timer, so records appended since the last fsync point are *volatile*
  and a :meth:`power_off` drops them — crash recovery then lands on the
  last fsync boundary, never past it.

Compaction is anchored to snapshots: :meth:`compact` installs the
snapshot as the log's *anchor* and drops every segment fully covered by
it.  Recovery (:meth:`recover_into`) restores the anchor and replays the
remaining durable records; a gap between the anchor and the first record
raises :class:`CompactedError` instead of silently resurrecting a store
with missing committed writes.

A torn tail — kill -9 landing mid-write, or the chaos ``WalCorruption``
fault — is modeled by :meth:`tear_tail`: the last record's payload is
truncated so its checksum fails.  The recovery decoder stops at the
first torn record and returns the committed prefix; the torn suffix was
never acknowledged to a client, so dropping it loses nothing committed.
"""

import json
import zlib

from repro.telemetry import telemetry_of

from .errors import CompactedError, WalTornRecord
from .etcd import WatchEvent

WAL_PUT = "PUT"
WAL_DELETE = "DELETE"
# Fencing-floor advances ride in the log without a revision bump so a
# recovered store rejects a deposed leader's stale token exactly like
# the store that crashed would have.
WAL_FENCE = "FENCE"


def _encode_payload(fields):
    """Canonical JSON bytes: the hashed form is stable across runs and
    PYTHONHASHSEED values (never repr/str — linter rule D006)."""
    return json.dumps(fields, sort_keys=True, separators=(",", ":")).encode()


class WalRecord:
    """One log entry: an encoded mutation plus its integrity checksum."""

    __slots__ = ("lsn", "type", "revision", "key", "payload", "crc",
                 "durable")

    def __init__(self, lsn, type, revision, key, payload, crc):
        self.lsn = lsn
        self.type = type
        self.revision = revision
        self.key = key
        self.payload = payload
        self.crc = crc
        self.durable = False

    @classmethod
    def make(cls, lsn, type, revision, key, fields):
        payload = _encode_payload(fields)
        return cls(lsn, type, revision, key, payload, zlib.crc32(payload))

    @property
    def nbytes(self):
        # Payload plus a fixed header (lsn + crc + length), like the
        # 8-byte length/crc framing of a real WAL entry.
        return len(self.payload) + 24

    @property
    def torn(self):
        return zlib.crc32(self.payload) != self.crc

    def decode(self):
        """The record's fields; raises :class:`WalTornRecord` on a tear."""
        if self.torn:
            raise WalTornRecord(self.lsn)
        return json.loads(self.payload.decode())

    def __repr__(self):
        return (f"<WalRecord lsn={self.lsn} {self.type} "
                f"{self.key} @{self.revision}>")


class WalSegment:
    """A bounded run of records (one 'file' of the log)."""

    __slots__ = ("index", "records", "nbytes")

    def __init__(self, index):
        self.index = index
        self.records = []
        self.nbytes = 0

    def append(self, record):
        self.records.append(record)
        self.nbytes += record.nbytes

    @property
    def last_revision(self):
        return self.records[-1].revision if self.records else 0


class WriteAheadLog:
    """Segmented, checksummed, compactable append-only log.

    A replica group's leader log is its only channel to the followers
    (:class:`~repro.storage.replicated.StoreGroup` sets both hooks):
    ``on_append`` is called once per record *when it becomes durable* —
    replication streams committed entries, never a volatile tail a
    crash could retract — and ``on_reset`` after :meth:`reset`, when a
    restore or wipe of the store restarted the log.
    """

    def __init__(self, sim, name, segment_records=512, fsync_interval=0.0):
        self.sim = sim
        self.name = name
        self.segment_records = segment_records
        self.fsync_interval = fsync_interval
        self.segments = [WalSegment(0)]
        # Snapshot anchoring the compacted prefix (None until the first
        # compaction): recovery restores it before replaying records.
        self.anchor = None
        self.anchor_revision = 0
        self.next_lsn = 0
        self.durable_lsn = 0       # records with lsn < durable_lsn are synced
        self.durable_revision = 0  # last event revision known durable
        self.fsyncs = 0
        self.torn_records = 0
        self.on_append = None
        self.on_reset = None
        telemetry = telemetry_of(sim)
        self._appends = telemetry.counter(
            "wal_appends_total", "WAL records appended",
            labels=("store",)).labels(store=name)
        telemetry.gauge(
            "wal_bytes", "live WAL size in bytes",
            labels=("store",)).labels(store=name).set_function(
                lambda: self.nbytes)
        self._fsync_counter = telemetry.counter(
            "wal_fsyncs_total", "WAL fsync batches",
            labels=("store",)).labels(store=name)
        if fsync_interval > 0:
            sim.process(self._fsync_loop(), name=f"wal-fsync:{name}")

    # ------------------------------------------------------------------
    # Append path
    # ------------------------------------------------------------------

    def append_event(self, event):
        """Log one store mutation (a :class:`WatchEvent`)."""
        fields = {"type": event.type, "key": event.key,
                  "revision": event.revision, "value": event.value}
        return self._append(event.type, event.revision, event.key, fields)

    def append_fence(self, domain, token, revision):
        """Log a fencing-floor advance (no revision bump of its own)."""
        fields = {"type": WAL_FENCE, "key": domain, "revision": revision,
                  "token": token}
        return self._append(WAL_FENCE, revision, domain, fields)

    def _append(self, type, revision, key, fields):
        record = WalRecord.make(self.next_lsn, type, revision, key, fields)
        self.next_lsn += 1
        segment = self.segments[-1]
        if len(segment.records) >= self.segment_records:
            segment = WalSegment(segment.index + 1)
            self.segments.append(segment)
        segment.append(record)
        self._appends.inc()
        if self.fsync_interval <= 0:
            self.sync()
        return record

    def sync(self):
        """Fsync: everything appended so far becomes durable."""
        newly_durable = []
        for segment in reversed(self.segments):
            done = False
            for record in reversed(segment.records):
                if record.durable:
                    done = True
                    break
                newly_durable.append(record)
            if done:
                break
        if not newly_durable:
            return 0
        self.fsyncs += 1
        self._fsync_counter.inc()
        for record in reversed(newly_durable):
            record.durable = True
            self.durable_lsn = record.lsn + 1
            if record.type != WAL_FENCE:
                self.durable_revision = record.revision
            if self.on_append is not None:
                self.on_append(record)
        return len(newly_durable)

    def _fsync_loop(self):
        while True:
            yield self.sim.timeout(self.fsync_interval)
            self.sync()

    # ------------------------------------------------------------------
    # Crash surface
    # ------------------------------------------------------------------

    def power_off(self):
        """Kill -9: drop the un-fsynced tail (it never reached the disk)."""
        dropped = 0
        for segment in self.segments:
            kept = [r for r in segment.records if r.durable]
            dropped += len(segment.records) - len(kept)
            if len(kept) != len(segment.records):
                segment.records = kept
                segment.nbytes = sum(r.nbytes for r in kept)
        if dropped:
            self.next_lsn = self.durable_lsn
        return dropped

    def tear_tail(self):
        """Corrupt the last record (a write torn mid-flight by the crash).

        Returns the torn record, or None when the log is empty.
        """
        for segment in reversed(self.segments):
            if segment.records:
                record = segment.records[-1]
                record.payload = record.payload[:max(len(record.payload) // 2,
                                                     1)]
                self.torn_records += 1
                return record
        return None

    def reset(self, anchor=None):
        """Start a fresh log (restore rolled the store to ``anchor``)."""
        self.segments = [WalSegment(0)]
        self.anchor = anchor
        self.anchor_revision = anchor["revision"] if anchor else 0
        self.durable_revision = self.anchor_revision
        self.next_lsn = 0
        self.durable_lsn = 0
        if self.on_reset is not None:
            self.on_reset()

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def compact(self, snapshot):
        """Anchor the log to ``snapshot`` and drop covered segments.

        A segment is dropped only when *every* record in it is durable
        and at or below the snapshot revision; a straddling segment is
        kept whole (recovery skips its covered prefix).
        """
        if snapshot["revision"] < self.anchor_revision:
            return 0
        self.anchor = snapshot
        self.anchor_revision = snapshot["revision"]
        kept, dropped = [], 0
        for segment in self.segments:
            if (segment.records
                    and segment.last_revision <= self.anchor_revision
                    and all(r.durable for r in segment.records)):
                dropped += len(segment.records)
            else:
                kept.append(segment)
        self.segments = kept or [WalSegment(0)]
        return dropped

    # ------------------------------------------------------------------
    # Read / recovery path
    # ------------------------------------------------------------------

    @property
    def nbytes(self):
        return sum(segment.nbytes for segment in self.segments)

    @property
    def record_count(self):
        return sum(len(segment.records) for segment in self.segments)

    def is_empty(self):
        return self.anchor is None and self.durable_lsn == 0

    def records_since(self, revision, durable_only=True):
        """Durable, checksum-verified records strictly after ``revision``.

        Raises :class:`CompactedError` when the requested tail starts
        below the anchor — those records are gone; the caller needs the
        anchor snapshot (full state transfer), not a replay.

        The scan stops at the first torn or volatile record: nothing
        after a tear is trustworthy (the committed-prefix property).
        """
        if revision < self.anchor_revision:
            raise CompactedError(revision, self.anchor_revision)
        out = []
        for segment in self.segments:
            for record in segment.records:
                if durable_only and not record.durable:
                    return out
                if record.torn:
                    return out
                if record.revision <= revision:
                    # Covered by the receiver's snapshot/state (fence
                    # floors below the resume point travel with it too).
                    continue
                out.append(record)
        return out

    def recovered_tail(self):
        """(records, torn) — the durable committed prefix after the anchor.

        Decodes and verifies every record; truncates at the first torn
        one.  ``torn`` counts records dropped by checksum failure.
        """
        records, torn = [], 0
        for segment in self.segments:
            for record in segment.records:
                if not record.durable or record.torn:
                    if record.durable and record.torn:
                        torn += 1
                    return records, torn
                records.append(record)
        return records, torn

    def durable_state(self):
        """key -> (value, mod_revision) at the last durable point.

        Pure-dict replay of anchor + tail, used by the zero-loss verifier
        to know exactly what a crash is *obliged* to preserve without
        instantiating a scratch store.
        """
        state = {}
        if self.anchor is not None:
            for key, (value, _create, mod_rev, _version) in \
                    self.anchor["data"].items():
                state[key] = (value, mod_rev)
        records, _torn = self.recovered_tail()
        for record in records:
            if record.type == WAL_FENCE:
                continue
            fields = record.decode()
            if record.type == WAL_PUT:
                state[record.key] = (fields["value"], record.revision)
            elif record.type == WAL_DELETE:
                state.pop(record.key, None)
        return state

    def _truncate_after(self, records):
        """Drop everything past the verified prefix.

        Torn and volatile records are unrecoverable; real WAL recovery
        truncates the file at the first invalid record so post-recovery
        appends extend a clean log instead of stranding behind a torn
        one.  Rewinds the lsn/revision bookkeeping to the prefix.
        """
        keep = len(records)
        for segment in self.segments:
            take = min(keep, len(segment.records))
            if take != len(segment.records):
                segment.records = segment.records[:take]
                segment.nbytes = sum(r.nbytes for r in segment.records)
            keep -= take
        while len(self.segments) > 1 and not self.segments[-1].records:
            self.segments.pop()
        last = records[-1] if records else None
        self.next_lsn = (last.lsn + 1) if last is not None else 0
        self.durable_lsn = self.next_lsn
        self.durable_revision = self.anchor_revision
        for record in reversed(records):
            if record.type != WAL_FENCE:
                self.durable_revision = record.revision
                break

    def recover_into(self, store, truncate=False):
        """Rebuild ``store`` to the last durable revision.

        Restores the anchor snapshot (or wipes, for a never-compacted
        log), replays the committed record prefix, and re-establishes
        fencing floors.  Verifies event-record contiguity: a gap means
        records were compacted out from under the anchor and raises
        :class:`CompactedError`.

        ``truncate=True`` (crash self-recovery) also drops the torn /
        volatile suffix from this log.  It must stay False when
        replaying a *live* source log into another store (follower
        resync): the source leader's un-fsynced tail is not torn, it
        just hasn't hit the disk yet.

        Returns the recovered revision.
        """
        records, _torn = self.recovered_tail()
        if truncate:
            self._truncate_after(records)
        if self.anchor is not None:
            store.restore(self.anchor)
        else:
            store.wipe()
        expected = store.revision
        for record in records:
            fields = record.decode()
            if record.type == WAL_FENCE:
                floor = store._fences.get(record.key)
                if floor is None or fields["token"] > floor:
                    store._fences[record.key] = fields["token"]
                continue
            if record.revision <= expected:
                continue  # covered by the anchor snapshot
            if record.revision != expected + 1:
                raise CompactedError(expected, record.revision)
            store._apply_replayed(WatchEvent(record.type, record.key,
                                             fields["value"],
                                             record.revision))
            expected = record.revision
        store._compacted_revision = store.revision
        return store.revision

    def stats(self):
        return {
            "segments": len(self.segments),
            "records": self.record_count,
            "bytes": self.nbytes,
            "durable_lsn": self.durable_lsn,
            "durable_revision": self.durable_revision,
            "anchor_revision": self.anchor_revision,
            "fsyncs": self.fsyncs,
            "torn_records": self.torn_records,
        }
