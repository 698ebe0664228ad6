"""An etcd-like MVCC key-value store.

Provides exactly the semantics the Kubernetes apiserver depends on:

- a single monotonically-increasing revision counter shared by all keys;
- per-key ``mod_revision`` recorded on every write;
- compare-and-swap updates (optimistic concurrency);
- prefix range reads;
- watches that can replay history from a given revision and then stream
  live events, failing with :class:`RevisionCompacted` when the requested
  start revision has been compacted away.

Values are JSON-shaped dicts (the wire form of API objects).  A value
handed to the store is owned by the store from then on and is immutable:
it is never copied and never mutated again.  The stored value, the
``WatchEvent.value`` emitted for the write, the next event's
``prev_value``, every read result, snapshots, WAL anchors and a
follower's applied value are the *same* dict — writers must not touch a
dict after handing it over, and readers must not mutate what they are
given (DESIGN.md "Object plane").  With the freeze guard on
(:func:`repro.objects.base.set_freeze_guard`) the hand-off converts the
value to frozen containers, so a reader that mutates raises.

Each written value also carries one ``decoded`` slot
(:class:`StoredValue`), shared by the watch event emitted for it, where
the apiserver keeps the typed snapshot it decoded from the value — so
every reader of one (key, revision) shares one object.
"""

from bisect import bisect_left, bisect_right
from itertools import chain
from operator import attrgetter

from repro.objects.base import freeze
from repro.objects.selectors import get_field
from repro.telemetry import telemetry_of

from .errors import (
    CompactedError,
    FencingRevoked,
    KeyAlreadyExists,
    KeyNotFound,
    RevisionCompacted,
    RevisionConflict,
    StoreUnavailable,
)

EVENT_PUT = "PUT"
EVENT_DELETE = "DELETE"

_REVISION = attrgetter("revision")
_SEQ = attrgetter("seq")


class StoredValue:
    """One key's value at one revision, plus its MVCC bookkeeping.

    Immutable once written (an update stores a new ``StoredValue``),
    except for ``decoded``: a memo slot the store never reads, filled by
    the first apiserver reader with the typed snapshot of ``value`` at
    ``mod_revision`` and shared by every later reader.
    """

    __slots__ = ("value", "create_revision", "mod_revision", "version",
                 "decoded")

    def __init__(self, value, create_revision, mod_revision, version):
        self.value = value
        self.create_revision = create_revision
        self.mod_revision = mod_revision
        self.version = version
        self.decoded = None


class WatchEvent:
    """One change notification.

    ``stored`` is the :class:`StoredValue` the event describes: for a
    PUT the very record the store holds for the key at ``revision`` (so
    watchers and readers share its ``decoded`` memo); a DELETE — whose
    object carries the delete revision — and an event built outside the
    store get a record of their own.
    """

    __slots__ = ("type", "key", "value", "revision", "prev_value", "stored")

    def __init__(self, type, key, value, revision, prev_value=None,
                 stored=None):
        self.type = type
        self.key = key
        self.value = value
        self.revision = revision
        self.prev_value = prev_value
        self.stored = (stored if stored is not None
                       else StoredValue(value, revision, revision, 1))

    def __repr__(self):
        return f"<WatchEvent {self.type} {self.key} @{self.revision}>"


class Watch:
    """A registered watcher; events arrive on :attr:`channel`.

    ``predicate`` (on the raw :class:`WatchEvent`) filters events at emit
    time — this is how the apiserver implements server-side field/label
    selector filtering for watches, so a kubelet watching
    ``spec.nodeName=node-7`` never receives other nodes' pod events.

    ``hint`` is an optional ``(path, value)`` promise about the predicate:
    it rejects every event whose value does not hold ``value`` at the
    dotted ``path``.  The store uses it only to avoid asking (see
    :meth:`EtcdStore._watch_candidates`); :meth:`wants` still decides.
    """

    def __init__(self, store, prefix, channel, predicate=None, hint=None):
        self.store = store
        self.prefix = prefix
        self.channel = channel
        self.predicate = predicate
        self.hint = hint
        self.seq = 0  # registration order within the store
        self.cancelled = False

    def wants(self, event):
        if not event.key.startswith(self.prefix):
            return False
        return self.predicate is None or self.predicate(event)

    def cancel(self):
        if not self.cancelled:
            self.cancelled = True
            self.store._unregister_watch(self)
            self.channel.close()


class EtcdStore:
    """The MVCC store.

    ``history_limit`` bounds how many events are kept for watch replay;
    older events are compacted (watches starting before the compaction
    revision fail, as in real etcd).
    """

    def __init__(self, sim, name="etcd", history_limit=100000, wal=None):
        self.sim = sim
        self.name = name
        # Optional write-ahead log (repro.storage.wal): the disk that
        # survives a kill -9 while this object's memory does not.  None
        # (the default) keeps the seed's pure in-memory behavior.
        self.wal = wal
        self._powered_off = False
        self.recoveries = 0
        # Armed by the chaos KillStore fault: crash after N more txn ops.
        self._kill_after_ops = None
        self._on_killed = None
        self._unavailable_factory = None
        self._data = {}
        # Secondary index: keys bucketed by their first two path segments
        # (e.g. "/registry/pods"), so per-resource range reads don't scan
        # the whole keyspace.
        self._buckets = {}
        self._revision = 0
        self._history = []
        self._compacted_revision = 0
        self._history_limit = history_limit
        # Registration-ordered (dict-as-ordered-set): watch fan-out in
        # _emit must not depend on set hash order, which varies with
        # PYTHONHASHSEED across processes (linter rule D003).
        self._watches = {}
        # Fan-out index over the same watches, by the bucket their prefix
        # lies in (see _bucket_of); a prefix shorter than a bucket can
        # match keys of several, so those watches are always asked.
        # Every slot is a list in registration order and exists only
        # while a watch is registered in it.
        self._watch_seq = 0
        self._wide_watches = []
        self._watch_buckets = {}    # bucket -> [un-hinted watches]
        self._hinted_watches = {}   # bucket -> {path: {value: [watches]}}
        self.watch_evals = 0
        self.watch_deliveries = 0
        # Fencing tokens: domain -> highest token observed (see
        # :meth:`check_fence`).  Survives snapshot/restore.
        self._fences = {}
        self.fencing_rejections = 0
        # Multi-op transaction accounting (see :meth:`txn`).
        self.txns = 0
        self.txn_ops = 0
        self.largest_txn = 0
        telemetry = telemetry_of(sim)
        self._tracer = telemetry.tracer
        ops = telemetry.counter("etcd_ops_total",
                                "etcd operations by type",
                                labels=("store", "op"))
        # Pre-bound children so the hot path pays one float add per op.
        self._ops_write = ops.labels(store=name, op="write")
        self._ops_read = ops.labels(store=name, op="read")
        self._ops_txn = ops.labels(store=name, op="txn")
        telemetry.gauge("etcd_keys", "live keys per store",
                        labels=("store",)).labels(
            store=name).set_function(lambda: len(self._data))
        telemetry.gauge("etcd_revision", "store revision",
                        labels=("store",)).labels(
            store=name).set_function(lambda: self._revision)
        self._recoveries_metric = telemetry.counter(
            "store_recoveries_total",
            "store recoveries by source (wal replay / snapshot restore)",
            labels=("store", "source")).labels(store=name, source="wal")

    # ------------------------------------------------------------------
    # Liveness (kill -9 surface; see power_off/recover_from_wal below)
    # ------------------------------------------------------------------

    @property
    def available(self):
        return not self._powered_off

    def set_unavailable_factory(self, factory):
        """Let the apiserver substitute its retryable error type for
        :class:`StoreUnavailable` (dependency inversion: storage cannot
        import apiserver errors)."""
        self._unavailable_factory = factory

    def _unavailable(self, message):
        if self._unavailable_factory is not None:
            return self._unavailable_factory(message)
        return StoreUnavailable(message)

    def _check_alive(self):
        if self._powered_off:
            raise self._unavailable(f"{self.name}: store is down")

    @staticmethod
    def _bucket_of(key):
        parts = key.split("/", 3)
        return "/".join(parts[:3])

    # Buckets hold their keys as persistently *sorted* lists maintained by
    # bisect on write, so prefix reads are a binary search + slice instead
    # of a filter + full sort on every list_prefix/count_prefix call.
    # Keys sharing a prefix are contiguous in sorted order, which also
    # makes count_prefix allocation-free.

    def _index_add(self, key):
        keys = self._buckets.setdefault(self._bucket_of(key), [])
        index = bisect_left(keys, key)
        if index == len(keys) or keys[index] != key:
            keys.insert(index, key)

    def _index_remove(self, key):
        keys = self._buckets.get(self._bucket_of(key))
        if keys is not None:
            index = bisect_left(keys, key)
            if index < len(keys) and keys[index] == key:
                del keys[index]

    def _prefix_range(self, prefix):
        """(keys, lo, hi) bounding the sorted bucket run under ``prefix``.

        The upper bound appends a max-codepoint sentinel: every key that
        starts with ``prefix`` sorts below it (store keys are ASCII
        registry paths, which can never begin a suffix with U+10FFFF).
        """
        keys = self._buckets.get(self._bucket_of(prefix))
        if keys is None:
            return (), 0, 0
        lo = bisect_left(keys, prefix)
        hi = bisect_left(keys, prefix + "\U0010ffff", lo=lo)
        return keys, lo, hi

    def _keys_under(self, prefix):
        keys, lo, hi = self._prefix_range(prefix)
        return keys[lo:hi] if keys else []

    # ------------------------------------------------------------------
    # Basic KV operations (synchronous; latency is charged by the caller)
    # ------------------------------------------------------------------

    @property
    def revision(self):
        return self._revision

    # Race-detector probes (no-ops unless a RaceDetector is attached to
    # the sim).  create and CAS-guarded update/delete are release-writes:
    # the revision check serializes them, so they synchronize rather
    # than conflict; blind writes are checked for concurrency.

    def _race_write(self, key, release):
        detector = getattr(self.sim, "race_detector", None)
        if detector is not None:
            detector.on_write(self.name, key, release=release)

    def _race_read(self, key):
        detector = getattr(self.sim, "race_detector", None)
        if detector is not None:
            detector.on_read(self.name, key)

    def _race_scan(self, prefix):
        detector = getattr(self.sim, "race_detector", None)
        if detector is not None:
            detector.on_scan(self.name, prefix)

    def create(self, key, value):
        """Insert a new key; fails if present. Returns the new revision."""
        self._check_alive()
        if key in self._data:
            raise KeyAlreadyExists(key)
        self._race_write(key, release=True)
        self._ops_write.inc()
        self._revision += 1
        value = freeze(value)
        stored = StoredValue(value, self._revision, self._revision, 1)
        self._data[key] = stored
        self._index_add(key)
        self._emit(WatchEvent(EVENT_PUT, key, value, self._revision,
                              stored=stored))
        return self._revision

    def get_stored(self, key):
        """The :class:`StoredValue` of a key; raises KeyNotFound."""
        stored = self._data.get(key)
        if stored is None:
            raise KeyNotFound(key)
        self._race_read(key)
        self._ops_read.inc()
        return stored

    def get(self, key):
        """Return (value, mod_revision); raises KeyNotFound."""
        stored = self.get_stored(key)
        return stored.value, stored.mod_revision

    def try_get_stored(self, key):
        """Like :meth:`get_stored` but returns None for a missing key."""
        stored = self._data.get(key)
        if stored is not None:
            self._race_read(key)
        return stored

    def try_get(self, key):
        """Like :meth:`get` but returns (None, 0) for a missing key."""
        stored = self.try_get_stored(key)
        if stored is None:
            return None, 0
        return stored.value, stored.mod_revision

    def update(self, key, value, expected_revision=None):
        """Replace a key's value, optionally as a CAS on mod_revision."""
        self._check_alive()
        stored = self._data.get(key)
        if stored is None:
            raise KeyNotFound(key)
        if (expected_revision is not None
                and stored.mod_revision != expected_revision):
            raise RevisionConflict(key, expected_revision,
                                   stored.mod_revision)
        self._race_write(key, release=expected_revision is not None)
        self._ops_write.inc()
        self._revision += 1
        value = freeze(value)
        new = StoredValue(value, stored.create_revision, self._revision,
                          stored.version + 1)
        self._data[key] = new
        self._emit(WatchEvent(EVENT_PUT, key, value, self._revision,
                              prev_value=stored.value, stored=new))
        return self._revision

    def delete(self, key, expected_revision=None):
        """Remove a key, optionally as a CAS on mod_revision."""
        self._check_alive()
        stored = self._data.get(key)
        if stored is None:
            raise KeyNotFound(key)
        if (expected_revision is not None
                and stored.mod_revision != expected_revision):
            raise RevisionConflict(key, expected_revision,
                                   stored.mod_revision)
        self._race_write(key, release=expected_revision is not None)
        self._ops_write.inc()
        self._revision += 1
        del self._data[key]
        self._index_remove(key)
        self._emit(WatchEvent(EVENT_DELETE, key, stored.value,
                              self._revision))
        return self._revision

    def txn(self, ops):
        """Apply a multi-op write transaction.

        ``ops`` is a list of zero-arg callables, each performing one write
        against this store (the apiserver prepares them with its own
        read-validate-write logic, like an etcd txn's compare guards).
        Ops apply sequentially at consecutive revisions — exactly the
        state a sequence of single writes would produce — with per-op
        error capture instead of all-or-nothing abort: the result list
        holds each op's return value or the exception it raised.
        """
        self._check_alive()
        self.txns += 1
        self.txn_ops += len(ops)
        self.largest_txn = max(self.largest_txn, len(ops))
        self._ops_txn.inc()
        results = []
        with self._tracer.span("etcd.txn", ops=len(ops)):
            for op in ops:
                if self._kill_after_ops is not None:
                    if self._kill_after_ops <= 0:
                        self._kill_mid_txn()
                    self._kill_after_ops -= 1
                try:
                    results.append(op())
                except Exception as exc:  # noqa: BLE001 - captured per op
                    results.append(exc)
        return results

    def arm_kill(self, after_ops, callback=None):
        """Arm a kill -9 that fires after ``after_ops`` more txn ops.

        The sim cannot preempt synchronous code, so a mid-``txn`` crash
        is modeled as a latch: the next transaction applies ``after_ops``
        writes (each durable in the WAL) and then the process dies —
        already-applied ops are committed, the rest never happen, and the
        client sees the whole request fail retryably.
        """
        self._kill_after_ops = max(0, after_ops)
        self._on_killed = callback

    def disarm_kill(self):
        """Clear an armed mid-txn kill that never fired."""
        self._kill_after_ops = None
        self._on_killed = None

    def _kill_mid_txn(self):
        self._kill_after_ops = None
        callback, self._on_killed = self._on_killed, None
        self.power_off()
        if callback is not None:
            callback(self)
        raise self._unavailable(f"{self.name}: killed mid-txn")

    def list_stored(self, prefix):
        """All (key, :class:`StoredValue`) under a prefix, in key order.

        Returns ``(items, revision)`` — the revision is the store revision
        at list time, which list+watch reflectors use as their start point.
        """
        self._check_alive()
        self._race_scan(prefix)
        self._ops_read.inc()
        data = self._data
        return ([(key, data[key]) for key in self._keys_under(prefix)],
                self._revision)

    def list_prefix(self, prefix):
        """:meth:`list_stored` as (key, value, mod_revision) triples."""
        items, revision = self.list_stored(prefix)
        return ([(key, stored.value, stored.mod_revision)
                 for key, stored in items], revision)

    def count_prefix(self, prefix):
        """Number of keys under a prefix, without materializing them.

        A pure bisect over the sorted bucket: no per-call sort and no
        list allocation.
        """
        _keys, lo, hi = self._prefix_range(prefix)
        return hi - lo

    # ------------------------------------------------------------------
    # Watch
    # ------------------------------------------------------------------

    def watch(self, prefix, from_revision=None, channel_factory=None,
              predicate=None, hint=None):
        """Register a watch on a key prefix.

        When ``from_revision`` is given, history events after that revision
        are replayed into the channel first; raises
        :class:`RevisionCompacted` when they are no longer available.
        ``hint`` is described on :class:`Watch`.
        """
        from repro.simkernel.resources import Channel

        self._check_alive()
        factory = channel_factory or (lambda: Channel(self.sim,
                                                      name=f"watch:{prefix}"))
        channel = factory()
        watch = Watch(self, prefix, channel, predicate=predicate, hint=hint)
        if from_revision is not None and from_revision < self._revision:
            if from_revision < self._compacted_revision:
                raise RevisionCompacted(from_revision,
                                        self._compacted_revision)
            for event in self._history_after(from_revision):
                if watch.wants(event):
                    channel.try_put(event)
        self._watch_seq += 1
        watch.seq = self._watch_seq
        self._watches[watch] = None
        self._watch_slot(watch, create=True).append(watch)
        return watch

    def _history_after(self, revision):
        """Held events newer than ``revision``: history is in revision
        order, so the tail starts at a bisect, not a scan."""
        history = self._history
        return history[bisect_right(history, revision, key=_REVISION):]

    def _watch_slot(self, watch, create=False):
        """The index list ``watch`` belongs in (None when nothing is
        registered there and ``create`` is off)."""
        if watch.prefix.count("/") < 3:
            return self._wide_watches
        name = self._bucket_of(watch.prefix)
        if watch.hint is None:
            slots, key = self._watch_buckets, name
        else:
            path, key = watch.hint
            if create:
                slots = self._hinted_watches.setdefault(
                    name, {}).setdefault(path, {})
            else:
                slots = self._hinted_watches.get(name, {}).get(path, {})
        return slots.setdefault(key, []) if create else slots.get(key)

    def _unregister_watch(self, watch):
        self._watches.pop(watch, None)
        slot = self._watch_slot(watch)
        if not slot or watch not in slot:
            return
        slot.remove(watch)
        if slot or slot is self._wide_watches:
            return
        # Last watch of its slot: drop the emptied index entries.
        name = self._bucket_of(watch.prefix)
        if watch.hint is None:
            del self._watch_buckets[name]
            return
        path, value = watch.hint
        by_path = self._hinted_watches[name]
        del by_path[path][value]
        if not by_path[path]:
            del by_path[path]
        if not by_path:
            del self._hinted_watches[name]

    def _watch_candidates(self, event):
        """The watches that may want ``event``, in registration order.

        Everything a linear scan would deliver to is in here: a watch is
        left out only because its prefix lies in another bucket or its
        hint promises a rejection.  An unhashable field value equals no
        hint value.
        """
        name = self._bucket_of(event.key)
        groups = [self._wide_watches, self._watch_buckets.get(name)]
        for path, by_value in self._hinted_watches.get(name, {}).items():
            try:
                groups.append(by_value.get(get_field(event.value, path)))
            except TypeError:
                pass
        groups = [group for group in groups if group]
        if len(groups) == 1:
            return list(groups[0])
        return sorted(chain.from_iterable(groups), key=_SEQ)

    def _emit(self, event):
        recorder = getattr(self.sim, "replay_recorder", None)
        if recorder is not None:
            recorder.record(self.name, event)
        if self.wal is not None:
            # The record carries the writer's vector-clock stamp so a
            # follower (or recovery) applying it absorbs a happens-before
            # edge from this mutation.
            detector = getattr(self.sim, "race_detector", None)
            stamp = detector.current_stamp() if detector is not None else None
            self.wal.append_event(event, stamp=stamp)
        self._history.append(event)
        if len(self._history) > self._history_limit:
            self.compact(keep=self._history_limit // 2)
        candidates = self._watch_candidates(event)
        self.watch_evals += len(candidates)
        for watch in candidates:
            if watch.wants(event):
                self.watch_deliveries += 1
                watch.channel.try_put(event)

    def compact(self, keep=1000):
        """Drop history older than the last ``keep`` events."""
        if len(self._history) > keep:
            dropped = self._history[:-keep] if keep else self._history
            if dropped:
                self._compacted_revision = dropped[-1].revision
            self._history = self._history[-keep:] if keep else []

    # ------------------------------------------------------------------
    # Fencing (leader election split-brain protection)
    # ------------------------------------------------------------------

    def check_fence(self, domain, token):
        """Admit a write stamped with a fencing token, or reject it.

        Tokens are monotonic per acquisition of the leader lease for
        ``domain``.  The first token seen for a domain (and any higher
        token) is admitted and becomes the floor; a *lower* token means
        the writer was deposed after a successor already wrote — its
        in-flight work must be dropped, so :class:`FencingRevoked` is
        raised.  A new leader establishes its floor by issuing an empty
        fenced transaction (a fence barrier) before serving.
        """
        current = self._fences.get(domain)
        if current is not None and token < current:
            self.fencing_rejections += 1
            raise FencingRevoked(domain, token, current)
        advanced = current is None or token > current
        self._fences[domain] = token
        if advanced and self.wal is not None:
            # Floor advances are durable: a recovered store must bounce a
            # deposed leader's stale token just like the one that crashed.
            detector = getattr(self.sim, "race_detector", None)
            stamp = detector.current_stamp() if detector is not None else None
            self.wal.append_fence(domain, token, self._revision, stamp=stamp)

    # ------------------------------------------------------------------
    # Snapshot / restore (durability for crashed control planes)
    # ------------------------------------------------------------------

    def snapshot(self):
        """A revision-consistent image of the store.

        Captures data, the revision counter, the compaction floor and
        the fencing floors — everything needed to rebuild an equivalent
        store.  The values are the stored (immutable) dicts themselves;
        later writes replace them in the store and never change them, so
        the image stays consistent without a copy.  Watch registrations
        and replay history are deliberately excluded: they belong to
        live sessions, which a restore severs.
        """
        return {
            "name": self.name,
            "revision": self._revision,
            "compacted_revision": self._compacted_revision,
            "fences": dict(self._fences),
            "data": {
                key: (stored.value, stored.create_revision,
                      stored.mod_revision, stored.version)
                for key, stored in self._data.items()
            },
        }

    def restore(self, snapshot, replay=()):
        """Replace all state from a snapshot, then replay a WAL tail.

        ``replay`` is a sequence of :class:`WatchEvent` (typically from
        :meth:`events_since` captured on another store, or buffered by
        the operator) applied at their recorded revisions — events at or
        below the snapshot revision are skipped, so handing the full
        tail back is idempotent.

        Every open watch is cancelled: watchers cannot observe a
        consistent stream across the discontinuity, so their channels
        close and reflectors relist.  The compaction floor then moves to
        the post-replay revision, which makes any stale watch *resume*
        (``from_revision`` below the restore point) fail with
        :class:`RevisionCompacted` instead of silently missing events.

        Replay must be gap-free: events apply at consecutive revisions
        starting from the snapshot, so a tail that begins *above*
        ``snapshot revision + 1`` (part of it was compacted away) raises
        :class:`CompactedError` before any state is touched — silently
        skipping the gap would resurrect a store missing committed
        writes.  Events at or below the snapshot revision are still
        skipped (idempotent full-history replay).

        Returns the store revision after the restore.
        """
        expected = snapshot["revision"]
        for event in replay:
            if event.revision <= expected:
                continue
            if event.revision != expected + 1:
                raise CompactedError(expected, event.revision)
            expected = event.revision
        for watch in list(self._watches):
            watch.cancel()
        detector = getattr(self.sim, "race_detector", None)
        if detector is not None:
            # Discontinuity: pre-restore accesses no longer describe
            # reachable state, so the access graph restarts.
            detector.reset_object(self.name)
        self._data = {}
        self._buckets = {}
        for key, (value, create_rev, mod_rev, version) in \
                snapshot["data"].items():
            self._data[key] = StoredValue(freeze(value), create_rev,
                                          mod_rev, version)
            self._index_add(key)
        self._revision = snapshot["revision"]
        self._fences = dict(snapshot.get("fences", {}))
        self._history = []
        for event in replay:
            if event.revision > self._revision:
                self._apply_replayed(event)
        self._compacted_revision = self._revision
        self._powered_off = False
        if self.wal is not None:
            # The log must describe the store it sits under: anchor it to
            # the post-restore state and drop the divergent tail.
            self.wal.reset(anchor=self.snapshot())
        return self._revision

    def _apply_replayed(self, event):
        """Apply one WAL event at its recorded revision (no re-emit:
        restore cancelled every watch, and history restarts afterwards)."""
        if event.type == EVENT_PUT:
            value = freeze(event.value)
            stored = self._data.get(event.key)
            if stored is None:
                self._data[event.key] = StoredValue(
                    value, event.revision, event.revision, 1)
                self._index_add(event.key)
            else:
                self._data[event.key] = StoredValue(
                    value, stored.create_revision, event.revision,
                    stored.version + 1)
        elif event.type == EVENT_DELETE:
            if self._data.pop(event.key, None) is not None:
                self._index_remove(event.key)
        self._revision = max(self._revision, event.revision)

    def events_since(self, revision):
        """The WAL tail: all held events after ``revision`` (the events
        themselves — like their values, they are never modified).

        Raises :class:`RevisionCompacted` when part of the tail has been
        compacted away — the caller must fall back to snapshot-only
        recovery (or take a fresh snapshot) instead of replaying a gap.
        """
        if revision < self._compacted_revision:
            raise RevisionCompacted(revision, self._compacted_revision)
        return self._history_after(revision)

    def wipe(self):
        """Simulate catastrophic data loss: everything gone, watches cut.

        Used by chaos' crash-control-plane fault; recovery is a
        :meth:`restore` from the last snapshot.
        """
        for watch in list(self._watches):
            watch.cancel()
        detector = getattr(self.sim, "race_detector", None)
        if detector is not None:
            detector.reset_object(self.name)
        self._data = {}
        self._buckets = {}
        self._history = []
        self._revision = 0
        self._compacted_revision = 0
        self._fences = {}
        self._powered_off = False
        if self.wal is not None:
            self.wal.reset()

    def power_off(self):
        """Kill -9: volatile memory is gone, the WAL (the disk) survives.

        Contrast with :meth:`wipe` (catastrophic loss, WAL included).
        The store rejects every operation until :meth:`recover_from_wal`
        or :meth:`restore` brings it back.
        """
        if self.wal is not None:
            self.wal.power_off()
        for watch in list(self._watches):
            watch.cancel()
        detector = getattr(self.sim, "race_detector", None)
        if detector is not None:
            detector.reset_object(self.name)
        self._data = {}
        self._buckets = {}
        self._history = []
        self._revision = 0
        self._compacted_revision = 0
        self._fences = {}
        self._powered_off = True

    def recover_from_wal(self):
        """Rebuild state from the WAL to the last durable revision.

        Raises :class:`CompactedError` when the log is empty or gapped —
        the caller falls back to snapshot-only recovery.  Returns the
        recovered revision.
        """
        if self.wal is None or self.wal.is_empty():
            raise CompactedError(0, 0)
        # Detach the WAL during replay: restore()/wipe() inside
        # recover_into must not reset the very log being replayed.
        wal, self.wal = self.wal, None
        try:
            # truncate=True: crash recovery drops the torn/volatile
            # suffix so post-recovery appends extend a clean log.
            revision = wal.recover_into(self, truncate=True)
        finally:
            self.wal = wal
        self._powered_off = False
        self.recoveries += 1
        self._recoveries_metric.inc()
        return revision

    def wal_durable_revision(self):
        return self.wal.durable_revision if self.wal is not None else 0

    def anchor_wal(self, snapshot):
        """Compact the WAL against a freshly-taken snapshot (no-op when
        the store has no log)."""
        if self.wal is not None:
            self.wal.compact(snapshot)

    def dump(self):
        """Canonical image of current data (tests/benchmarks)."""
        return {
            key: (stored.value, stored.create_revision,
                  stored.mod_revision, stored.version)
            for key, stored in self._data.items()
        }

    # ------------------------------------------------------------------
    # Introspection / memory accounting
    # ------------------------------------------------------------------

    def __len__(self):
        return len(self._data)

    def stats(self):
        return {
            "keys": len(self._data),
            "revision": self._revision,
            "history": len(self._history),
            "watches": len(self._watches),
            "watch_evals": self.watch_evals,
            "watch_deliveries": self.watch_deliveries,
            "compacted_revision": self._compacted_revision,
            "txns": self.txns,
            "txn_ops": self.txn_ops,
            "largest_txn": self.largest_txn,
            "fences": dict(self._fences),
            "fencing_rejections": self.fencing_rejections,
            "recoveries": self.recoveries,
            "wal": self.wal.stats() if self.wal is not None else None,
        }

