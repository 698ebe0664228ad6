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
it.  :meth:`committed` is the one read path — the durable,
checksum-verified record prefix — and :meth:`EtcdStore.catch_up` the one
replay: it restores the anchor when the store is at or behind it, then
applies each committed record through :meth:`EtcdStore.apply`, which
raises :class:`CompactedError` on a gap instead of silently
resurrecting a store with missing committed writes.  Crash recovery,
follower catch-up and promotion all go that way.

A torn tail — kill -9 landing mid-write, or the chaos ``WalCorruption``
fault — is modeled by :meth:`tear_tail`: the last record's payload is
truncated so its checksum fails.  The recovery decoder stops at the
first torn record and returns the committed prefix; the torn suffix was
never acknowledged to a client, so dropping it loses nothing committed.
"""

import json
import zlib

from repro.telemetry import telemetry_of

from .errors import WalTornRecord
from .etcd import EVENT_DELETE, EVENT_PUT, FENCE


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

    ``generation`` names the history the log records: :meth:`reset`
    bumps it, and a replica that catches up from another replica's log
    takes that log's.  Two logs of one generation describe one history;
    a replica whose log differs from its leader's was down while the
    leader's restarted, and must resync instead of resuming.
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
        self.generation = 0
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
        fields = {"type": FENCE, "key": domain, "revision": revision,
                  "token": token}
        return self._append(FENCE, revision, domain, fields)

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
            if record.type != FENCE:
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
        self.generation += 1
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

    def committed(self):
        """The durable, checksum-verified record prefix (anchor not
        included).

        The scan stops at the first volatile or torn record: nothing
        after a tear is trustworthy (the committed-prefix property), and
        a volatile record was never acknowledged.
        """
        out = []
        for segment in self.segments:
            for record in segment.records:
                if not record.durable or record.torn:
                    return out
                out.append(record)
        return out

    def durable_state(self):
        """key -> (value, mod_revision) at the last durable point.

        Pure-dict replay of anchor + committed records, used by the
        zero-loss verifier to know exactly what a crash is *obliged* to
        preserve.  Deliberately not :meth:`EtcdStore.catch_up`: it is
        the independent reference that path is checked against.
        """
        state = {}
        if self.anchor is not None:
            for key, (value, _create, mod_rev, _version) in \
                    self.anchor["data"].items():
                state[key] = (value, mod_rev)
        for record in self.committed():
            if record.type == FENCE or record.revision <= self.anchor_revision:
                continue  # no data, or covered by the anchor
            if record.type == EVENT_PUT:
                state[record.key] = (record.decode()["value"], record.revision)
            elif record.type == EVENT_DELETE:
                state.pop(record.key, None)
        return state

    def truncate(self):
        """Drop everything past the committed prefix.

        Torn and volatile records are unrecoverable; real WAL recovery
        truncates the file at the first invalid record so post-recovery
        appends extend a clean log instead of stranding behind a torn
        one.  Rewinds the lsn/revision bookkeeping to the prefix.
        """
        records = self.committed()
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
            if record.type != FENCE:
                self.durable_revision = record.revision
                break

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
