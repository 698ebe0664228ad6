"""Append-only write-ahead log for :class:`EtcdStore` (DESIGN.md §13).

The WAL models the disk that survives a kill -9 while the store's memory
does not.  Every mutation the store emits becomes one :class:`WalRecord`:
the event fields are serialized to canonical JSON bytes (``sort_keys``,
so the checksum never depends on dict insertion order — linter rule D006)
and guarded by a CRC32.  The log is one flat list of records, and a
record never changes once made: a follower's log holds the very records
its leader streamed to it.

Durability is a watermark: ``records[:durable]`` are synced.

- ``fsync_interval == 0`` (the default) models etcd's fsync-per-commit:
  a record is durable the moment :meth:`WriteAheadLog.append` returns.
- ``fsync_interval > 0`` batches: a sim process calls :meth:`sync` on a
  timer, so records appended since the last fsync point are *volatile*
  and a :meth:`power_off` drops them — crash recovery then lands on the
  last fsync boundary, never past it.

Compaction is anchored to snapshots: :meth:`compact` installs the
snapshot as the log's *anchor* and drops the durable records it covers.
The store takes its own anchors (:meth:`EtcdStore._anchor_if_due`), so
a log keeps at most about ``ANCHOR_INTERVAL`` revisions of records.
:meth:`committed` is the one read path — the durable, checksum-verified
record prefix — and :meth:`EtcdStore.catch_up` the one replay: it
restores the anchor when the store is at or behind it, then applies each
committed record through :meth:`EtcdStore.apply`, which raises
:class:`CompactedError` on a gap instead of silently resurrecting a
store with missing committed writes.  Crash recovery, follower catch-up
and promotion all go that way.

A torn tail — kill -9 landing mid-write, or the chaos ``WalCorruption``
fault — is modeled by :meth:`tear_tail`: the last record is replaced by
a copy whose payload is truncated so its checksum fails.  The recovery
decoder stops at the first torn record and returns the committed
prefix; the torn suffix was never acknowledged to a client, so dropping
it loses nothing committed.
"""

import json
import zlib
from bisect import bisect_right
from operator import attrgetter

from repro.objects.meta import stored_wire
from repro.telemetry import telemetry_of

from .errors import WalTornRecord
from .etcd import EVENT_DELETE, EVENT_PUT, FENCE

_REVISION = attrgetter("revision")


def _encode_payload(fields):
    """Canonical JSON bytes: the hashed form is stable across runs and
    PYTHONHASHSEED values (never repr/str — linter rule D006)."""
    return json.dumps(fields, sort_keys=True, separators=(",", ":")).encode()


class WalRecord:
    """One log entry: an encoded mutation plus its integrity checksum.

    Immutable, so logs may share it.
    """

    __slots__ = ("type", "revision", "key", "payload", "crc")

    def __init__(self, type, revision, key, payload, crc):
        self.type = type
        self.revision = revision
        self.key = key
        self.payload = payload
        self.crc = crc

    @classmethod
    def make(cls, type, revision, key, fields):
        payload = _encode_payload(fields)
        return cls(type, revision, key, payload, zlib.crc32(payload))

    @property
    def nbytes(self):
        # Payload plus a fixed header (revision + crc + length), like the
        # 8-byte length/crc framing of a real WAL entry.
        return len(self.payload) + 24

    @property
    def torn(self):
        return zlib.crc32(self.payload) != self.crc

    def decode(self):
        """The record's fields; raises :class:`WalTornRecord` on a tear."""
        if self.torn:
            raise WalTornRecord(self.revision)
        return json.loads(self.payload.decode())

    def __repr__(self):
        return f"<WalRecord {self.type} {self.key} @{self.revision}>"


class WriteAheadLog:
    """Flat, checksummed, compactable append-only log.

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

    def __init__(self, sim, name, fsync_interval=0.0):
        self.sim = sim
        self.name = name
        self.fsync_interval = fsync_interval
        self.records = []
        self.durable = 0  # records[:durable] are synced
        # Snapshot anchoring the compacted prefix (None until the first
        # compaction): recovery restores it before replaying records.
        self.anchor = None
        self.anchor_revision = 0
        self.generation = 0
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
        """Log one store mutation (a :class:`WatchEvent`), its value
        encoded to the wire dict."""
        fields = {"type": event.type, "key": event.key,
                  "revision": event.revision,
                  "value": stored_wire(event.value)}
        self.append(WalRecord.make(event.type, event.revision, event.key,
                                   fields))

    def append_fence(self, domain, token, revision):
        """Log a fencing-floor advance (no revision bump of its own)."""
        fields = {"type": FENCE, "key": domain, "revision": revision,
                  "token": token}
        self.append(WalRecord.make(FENCE, revision, domain, fields))

    def append(self, record):
        """Log ``record`` as is (a follower logs its leader's record)."""
        self.records.append(record)
        self._appends.inc()
        if self.fsync_interval <= 0:
            self.sync()

    def sync(self):
        """Fsync: everything appended so far becomes durable."""
        new = self.records[self.durable:]
        if not new:
            return 0
        self.durable = len(self.records)
        self.fsyncs += 1
        self._fsync_counter.inc()
        if self.on_append is not None:
            for record in new:
                self.on_append(record)
        return len(new)

    def _fsync_loop(self):
        while True:
            yield self.sim.timeout(self.fsync_interval)
            self.sync()

    @property
    def durable_revision(self):
        """The revision the durable log (anchor included) reaches."""
        for record in reversed(self.records[:self.durable]):
            if record.type != FENCE:
                return max(record.revision, self.anchor_revision)
        return self.anchor_revision

    # ------------------------------------------------------------------
    # Crash surface
    # ------------------------------------------------------------------

    def power_off(self):
        """Kill -9: drop the un-fsynced tail (it never reached the disk)."""
        dropped = len(self.records) - self.durable
        del self.records[self.durable:]
        return dropped

    def tear_tail(self):
        """Replace the last record with a torn copy (a write torn
        mid-flight by the crash); other logs sharing the record keep it
        whole.

        Returns the torn record, or None when the log is empty.
        """
        if not self.records:
            return None
        record = self.records[-1]
        torn = WalRecord(record.type, record.revision, record.key,
                         record.payload[:max(len(record.payload) // 2, 1)],
                         record.crc)
        self.records[-1] = torn
        self.torn_records += 1
        return torn

    def reset(self, anchor=None):
        """Start a fresh log (restore rolled the store to ``anchor``)."""
        self.generation += 1
        self.records = []
        self.durable = 0
        self.anchor = anchor
        self.anchor_revision = anchor["revision"] if anchor else 0
        if self.on_reset is not None:
            self.on_reset()

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def compact(self, snapshot):
        """Anchor the log to ``snapshot`` and drop the durable records at
        or below its revision (a volatile one stays, and recovery skips
        it when covered).  Returns the number of records dropped."""
        if snapshot["revision"] < self.anchor_revision:
            return 0
        self.anchor = snapshot
        self.anchor_revision = snapshot["revision"]
        dropped = bisect_right(self.records, self.anchor_revision,
                               hi=self.durable, key=_REVISION)
        del self.records[:dropped]
        self.durable -= dropped
        return dropped

    # ------------------------------------------------------------------
    # Read / recovery path
    # ------------------------------------------------------------------

    @property
    def nbytes(self):
        return sum(record.nbytes for record in self.records)

    def is_empty(self):
        return self.anchor is None and self.durable == 0

    def committed(self):
        """The durable, checksum-verified record prefix (anchor not
        included).

        The scan stops at the first volatile or torn record: nothing
        after a tear is trustworthy (the committed-prefix property), and
        a volatile record was never acknowledged.
        """
        records = self.records[:self.durable]
        for index, record in enumerate(records):
            if record.torn:
                return records[:index]
        return records

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
        one.
        """
        self.records = self.committed()
        self.durable = len(self.records)

    def stats(self):
        return {
            "records": len(self.records),
            "bytes": self.nbytes,
            "durable_revision": self.durable_revision,
            "anchor_revision": self.anchor_revision,
            "fsyncs": self.fsyncs,
            "torn_records": self.torn_records,
        }
