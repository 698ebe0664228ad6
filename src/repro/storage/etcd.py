"""An etcd-like MVCC key-value store.

Provides exactly the semantics the Kubernetes apiserver depends on:

- a single monotonically-increasing revision counter shared by all keys;
- per-key ``mod_revision`` recorded on every write;
- compare-and-swap updates (optimistic concurrency);
- prefix range reads;
- watches that can replay history from a given revision and then stream
  live events, failing with :class:`RevisionCompacted` when the requested
  start revision has been compacted away.

History is kept only while a watcher can still ask for it.  Each write
drops the events of earlier sim instants, except those newer than a
*held* revision: the apiserver holds the revision a LIST hands out until
the LIST returns, and the reflector's watch resumes from it in that same
kernel step (:meth:`EtcdStore.hold`).  The compaction floor follows what
was dropped, so an older resume still raises :class:`RevisionCompacted`
and the reflector relists.  Host memory therefore tracks live objects
and in-flight lists, not the number of writes ever made.

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
from functools import partial
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
# The WAL record type of a fencing-floor advance (see check_fence): it
# rides in the log beside the events, without a revision of its own.
FENCE = "FENCE"
# A store with a write-ahead log anchors it to a snapshot once it is this
# many revisions past the log's anchor, as etcd's snapshot-count does.
ANCHOR_INTERVAL = 1024

_REVISION = attrgetter("revision")
_SEQ = attrgetter("seq")


class StoredValue:
    """One key's value at one revision, plus its MVCC bookkeeping.

    Immutable once written (an update stores a new ``StoredValue``),
    except for two slots the store never reads: ``decoded``, a memo
    filled by the apiserver with the typed snapshot of ``value`` at
    ``mod_revision`` and shared by every later reader, and ``canonical``,
    set by the apiserver on a value it encoded itself (so its key order
    is the encoder's, not, say, the sorted order of a value replayed
    from a log).  A DELETE event's record also carries ``deleted``, the
    record it removed, until the apiserver has re-stamped that record's
    snapshot for it.
    """

    __slots__ = ("value", "create_revision", "mod_revision", "version",
                 "decoded", "canonical", "deleted")

    def __init__(self, value, create_revision, mod_revision, version,
                 deleted=None):
        self.value = value
        self.create_revision = create_revision
        self.mod_revision = mod_revision
        self.version = version
        self.decoded = None
        self.canonical = False
        self.deleted = deleted


class WatchEvent:
    """One change notification.

    ``stored`` is the :class:`StoredValue` the event describes: for a
    PUT the very record the store holds for the key at ``revision`` (so
    watchers and readers share its ``decoded`` memo); a DELETE — whose
    object carries the delete revision — gets a record of its own whose
    ``deleted`` is the removed record, and an event built outside the
    store gets a plain record of its own.
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

    Watch replay history holds the events of the current sim instant
    plus every event newer than a held revision (see :meth:`hold`);
    everything older is compacted as it goes, and a watch starting
    before the compaction revision fails, as in real etcd.  An operator
    :meth:`compact` ignores holds.
    """

    def __init__(self, sim, name="etcd", wal=None):
        self.sim = sim
        self.name = name
        # Optional write-ahead log (repro.storage.wal): the disk that
        # survives a kill -9 while this object's memory does not.  None
        # (the default) keeps the seed's pure in-memory behavior.
        self.wal = wal
        # Set while the store refuses every call: powered off, or
        # suspended by its replica group (see :meth:`suspend`).
        self._down = False
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
        # Every event after _compacted_revision is in _history, in
        # revision order.  _instant/_instant_revision: the sim time of the
        # latest write and the store revision just before that instant's
        # first write.  _holds: held revision -> outstanding hold count.
        self._history = []
        self._compacted_revision = 0
        self._instant = None
        self._instant_revision = 0
        self._holds = {}
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
        return not self._down

    def suspend(self):
        """Refuse every call, as a powered-off store does, but keep
        memory and log: a replica group's leader that lost its lease
        while alive stops serving this way.  :meth:`resume`, a recovery,
        a restore or a wipe ends it."""
        self._down = True

    def resume(self):
        """Serve again after :meth:`suspend` (a promoted replica)."""
        self._down = False

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
        if self._down:
            raise self._unavailable(f"{self.name}: store is down")

    @staticmethod
    def _bucket_of(key):
        parts = key.split("/", 3)
        return "/".join(parts[:3])

    # Buckets hold their keys as persistently *sorted* lists maintained by
    # bisect on write, so prefix reads are a binary search + slice instead
    # of a filter + full sort on every list_prefix call.  Keys sharing a
    # prefix are contiguous in sorted order.

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

    def create(self, key, value):
        """Insert a new key; fails if present. Returns the new revision."""
        self._check_alive()
        if key in self._data:
            raise KeyAlreadyExists(key)
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
        self._check_alive()
        stored = self._data.get(key)
        if stored is None:
            raise KeyNotFound(key)
        self._ops_read.inc()
        return stored

    def get(self, key):
        """Return (value, mod_revision); raises KeyNotFound."""
        stored = self.get_stored(key)
        return stored.value, stored.mod_revision

    def try_get_stored(self, key):
        """Like :meth:`get_stored` but returns None for a missing key."""
        self._check_alive()
        return self._data.get(key)

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
        self._ops_write.inc()
        self._revision += 1
        del self._data[key]
        self._index_remove(key)
        self._emit(WatchEvent(
            EVENT_DELETE, key, stored.value, self._revision,
            stored=StoredValue(stored.value, self._revision,
                               self._revision, 1, deleted=stored)))
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
        self._ops_read.inc()
        data = self._data
        return ([(key, data[key]) for key in self._keys_under(prefix)],
                self._revision)

    def hold(self, revision):
        """Keep every event after ``revision`` until the returned
        callable is called.

        A LIST holds the revision it hands out while it is in flight, so
        the watch that resumes from it finds the events written
        meanwhile.  The release is bound to this store object.
        """
        holds = self._holds
        holds[revision] = holds.get(revision, 0) + 1
        return partial(self._release_hold, revision)

    def _release_hold(self, revision):
        holds = self._holds
        holds[revision] -= 1
        if not holds[revision]:
            del holds[revision]

    @property
    def holds(self):
        """Outstanding holds, however many revisions they pin."""
        return sum(self._holds.values())

    def list_prefix(self, prefix):
        """:meth:`list_stored` as (key, value, mod_revision) triples."""
        items, revision = self.list_stored(prefix)
        return ([(key, stored.value, stored.mod_revision)
                 for key, stored in items], revision)

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
            self.wal.append_event(event)
            self._anchor_if_due()
        self._trim_history(event.revision)
        self._history.append(event)
        candidates = self._watch_candidates(event)
        self.watch_evals += len(candidates)
        for watch in candidates:
            if watch.wants(event):
                self.watch_deliveries += 1
                watch.channel.try_put(event)

    def _trim_history(self, revision):
        """The retention rule, run before the event at ``revision`` is
        appended: drop the events of earlier sim instants that no held
        revision still needs, and move the compaction floor past them."""
        now = self.sim.now
        if now != self._instant:
            self._instant = now
            self._instant_revision = revision - 1
        floor = self._instant_revision
        if self._holds:
            floor = min(floor, min(self._holds))
        if floor > self._compacted_revision:
            history = self._history
            del history[:bisect_right(history, floor, key=_REVISION)]
            self._compacted_revision = floor

    def _replace_state(self, down, revision=0, data=(), fences=()):
        """Install a whole new state (restore, wipe, power-off): every
        watch is cut and history restarts empty at ``revision``; holds
        outlive it, as their lists are still in flight."""
        for watch in list(self._watches):
            watch.cancel()
        self._data = {}
        self._buckets = {}
        for key, (value, create_rev, mod_rev, version) in data:
            self._data[key] = StoredValue(freeze(value), create_rev,
                                          mod_rev, version)
            self._index_add(key)
        self._revision = revision
        self._fences = dict(fences)
        self._history = []
        self._compacted_revision = revision
        self._instant = None
        self._down = down

    def compact(self, keep=1000):
        """Drop history older than the last ``keep`` events, held or not
        (an operator compaction)."""
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
        self._check_alive()
        current = self._fences.get(domain)
        if current is not None and token < current:
            self.fencing_rejections += 1
            raise FencingRevoked(domain, token, current)
        if self._raise_fence(domain, token) and self.wal is not None:
            # Floor advances are durable: a recovered store must bounce a
            # deposed leader's stale token just like the one that crashed.
            self.wal.append_fence(domain, token, self._revision)

    def _raise_fence(self, domain, token):
        """Raise ``domain``'s floor to ``token``; True when it rose."""
        current = self._fences.get(domain)
        if current is None or token > current:
            self._fences[domain] = token
            return True
        return False

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

    def restore(self, snapshot):
        """Replace all state from a snapshot.

        Every open watch is cancelled: watchers cannot observe a
        consistent stream across the discontinuity, so their channels
        close and reflectors relist.  The compaction floor moves to the
        restored revision, which makes any stale watch *resume*
        (``from_revision`` below the restore point) fail with
        :class:`RevisionCompacted` instead of silently missing events.
        A log tail written after the snapshot is replayed with
        :meth:`catch_up`.

        Returns the store revision after the restore.
        """
        self._replace_state(False, snapshot["revision"],
                            snapshot["data"].items(),
                            snapshot.get("fences", {}))
        if self.wal is not None:
            # The log must describe the store it sits under: anchor it to
            # the post-restore state and drop the divergent tail.
            self.wal.reset(anchor=self.snapshot())
        return self._revision

    def apply(self, record):
        """Apply one WAL record: the only code that turns a record into
        store state (stream, catch-up and crash recovery all do).

        A fence record raises its domain's floor and is logged only when
        it did (the :meth:`check_fence` rule).  An event at or below
        :attr:`revision` is skipped; one past ``revision + 1`` raises
        :class:`CompactedError` before any state changes, as applying it
        would build a store missing committed writes.  Otherwise the
        event applies with no watch emit and moves the compaction floor
        with it (nothing enters history, so a promoted follower never
        replays a gap).  A logged record goes to the store's own log as
        is: records never change, so the logs share it.  Returns True
        when an event applied.
        """
        if record.type == FENCE:
            if (self._raise_fence(record.key, record.decode()["token"])
                    and self.wal is not None):
                self.wal.append(record)
            return False
        revision = record.revision
        if revision <= self._revision:
            return False
        if revision != self._revision + 1:
            raise CompactedError(self._revision, revision)
        key = record.key
        value = freeze(record.decode()["value"])
        stored = self._data.get(key)
        if record.type == EVENT_PUT:
            if stored is None:
                self._data[key] = StoredValue(value, revision, revision, 1)
                self._index_add(key)
            else:
                self._data[key] = StoredValue(value, stored.create_revision,
                                              revision, stored.version + 1)
        elif stored is not None:
            del self._data[key]
            self._index_remove(key)
        self._revision = self._compacted_revision = revision
        if self.wal is not None:
            self.wal.append(record)
            self._anchor_if_due()
        return True

    def _anchor_if_due(self):
        """The log's retention rule: once the store is
        ``ANCHOR_INTERVAL`` revisions past its log's anchor, anchor the
        log to a snapshot, which drops the durable records it covers."""
        if self._revision - self.wal.anchor_revision >= ANCHOR_INTERVAL:
            self.wal.compact(self.snapshot())

    def catch_up(self, wal, reset=False):
        """Bring this store up to ``wal``'s committed prefix.

        The store first rolls to the log's anchor (or wipes, when there
        is none) if it is at or behind the anchor — the records it needs
        are compacted, and only the anchor carries their fence floors —
        or if ``reset`` says a restore or wipe restarted the log.  Then
        every committed record goes through :meth:`apply`, so catching up
        again is a no-op.  Returns the number of events applied.
        """
        anchor = wal.anchor
        if reset or (anchor is not None
                     and self._revision <= wal.anchor_revision):
            if anchor is not None:
                self.restore(anchor)
            else:
                self.wipe()
        return sum(self.apply(record) for record in wal.committed())

    def wipe(self):
        """Simulate catastrophic data loss: everything gone, watches cut.

        Used by chaos' crash-control-plane fault; recovery is a
        :meth:`restore` from the last snapshot.
        """
        self._replace_state(False)
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
        self._replace_state(True)

    def recover_from_wal(self):
        """Rebuild state from the WAL to the last durable revision.

        Raises :class:`CompactedError` when the log is empty or gapped —
        the caller falls back to snapshot-only recovery.  Returns the
        recovered revision.
        """
        if self.wal is None or self.wal.is_empty():
            raise CompactedError(0, 0)
        # Detach the WAL during replay: the restore or wipe inside
        # catch_up must not reset the very log being replayed.
        wal, self.wal = self.wal, None
        try:
            # Crash recovery drops the torn/volatile suffix first, so
            # post-recovery appends extend a clean log.
            wal.truncate()
            self.catch_up(wal, reset=True)
        finally:
            self.wal = wal
        self._down = False
        self.recoveries += 1
        self._recoveries_metric.inc()
        return self._revision

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
            "holds": self.holds,
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

