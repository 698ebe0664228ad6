"""Opt-in vector-clock race detector for the sim kernel.

Model
-----

Every sim :class:`~repro.simkernel.process.Process` gets a vector-clock
component (pid); top-level driver code is pid 0 ("main").  Happens-before
edges are exactly the kernel's causal paths:

- *event edges*: scheduling an event stamps it with the scheduler's
  clock; when the kernel dispatches it, every process resumed by it
  merges that stamp (``on_step``).  This covers succeed/fail, timeouts,
  interrupts, contended lock/semaphore hand-off, and direct channel
  hand-off — they all flow through ``Simulation._schedule``.
- *buffer edges*: values parked in a :class:`Channel` buffer and items
  parked in a work queue carry the producer's stamp alongside, merged
  into the consumer when popped (the event edge alone would miss the
  producer because the consumer's wake-up event is stamped by the
  consumer side).
- *release-acquire stores*: an :class:`EtcdStore` ``create`` or a
  CAS-guarded ``update``/``delete`` (``expected_revision`` given) is a
  synchronization point — the revision check already serializes writers,
  so the writer acquires all prior write stamps for the key and its new
  stamp dominates.  A *blind* write (no ``expected_revision``) gets no
  such edge and is checked for conflicts.

A **conflict** is a blind write (or, with ``track_reads=True``, a read)
by one pid that is concurrent with — not ordered after — another pid's
write to the same key of the same object.  With every store write in the
apiserver CAS-guarded, a healthy run reports zero conflicts; a conflict
means two components mutate shared state with no event edge between
them, i.e. their relative order is a scheduling accident.

Approximations (documented, deliberate): work executed in bare event
callbacks (no active process) is attributed to pid 0 with the dispatch
context merged in, so two callbacks racing against *each other* are not
flagged; per-key access history is bounded (old accesses age out).
"""


class _Access:
    """One recorded access: who, with what clock, when."""

    __slots__ = ("pid", "stamp", "time", "op")

    def __init__(self, pid, stamp, time, op):
        self.pid = pid
        self.stamp = stamp
        self.time = time
        self.op = op


class RaceConflict:
    """A pair of accesses to the same key with no happens-before edge."""

    __slots__ = ("obj", "key", "kind", "first_pid", "first_name",
                 "first_time", "second_pid", "second_name", "second_time")

    def __init__(self, obj, key, kind, first_pid, first_name, first_time,
                 second_pid, second_name, second_time):
        self.obj = obj
        self.key = key
        self.kind = kind
        self.first_pid = first_pid
        self.first_name = first_name
        self.first_time = first_time
        self.second_pid = second_pid
        self.second_name = second_name
        self.second_time = second_time

    def format(self):
        return (f"{self.kind} conflict on {self.obj}[{self.key}]: "
                f"{self.first_name!r} (t={self.first_time:.6f}) vs "
                f"{self.second_name!r} (t={self.second_time:.6f}) "
                f"— no happens-before edge orders these accesses")

    def __repr__(self):
        return f"<RaceConflict {self.kind} {self.obj}[{self.key}]>"


# Per-object, per-key access records kept (older ones age out; a race
# against an aged-out access this many writes back is long since ordered
# or long since reported).
_HISTORY_PER_KEY = 8


class _ObjectProbe:
    """Bound (detector, object-name) pair handed to sim-less objects."""

    __slots__ = ("detector", "name")

    def __init__(self, detector, name):
        self.detector = detector
        self.name = name

    def write(self, key):
        self.detector.on_write(self.name, key, release=False)

    def read(self, key):
        self.detector.on_read(self.name, key)

    def scan(self, prefix=""):
        self.detector.on_scan(self.name, prefix)


class RaceDetector:
    """Attachable detector; construct with the sim *before* the env.

    ``track_reads=True`` additionally records ``get``/``list`` accesses
    and flags read-write conflicts.  Off by default: level-triggered
    reads (scanners, informer lookups) racing a CAS writer are by design
    in this codebase — the read retries or reconciles — so read checking
    is a diagnostic mode, not a correctness gate.
    """

    def __init__(self, sim, track_reads=False, max_conflicts=200):
        self.sim = sim
        self.track_reads = track_reads
        self.max_conflicts = max_conflicts
        self.conflicts = []
        self._clocks = {0: {}}
        self._names = {0: "main"}
        self._next_pid = 1
        self._context = None
        self._writes = {}   # obj -> key -> [_Access]
        self._reads = {}    # obj -> key -> [_Access]
        self._scans = {}    # obj -> [(prefix, _Access)]
        self._seen = set()
        self._probe_seq = 0
        sim.race_detector = self

    # ------------------------------------------------------------------
    # Vector-clock plumbing (kernel hooks)
    # ------------------------------------------------------------------

    @staticmethod
    def _merge(clock, stamp):
        for pid, tick in stamp.items():
            if clock.get(pid, 0) < tick:
                clock[pid] = tick

    @staticmethod
    def _leq(stamp, clock):
        for pid, tick in stamp.items():
            if clock.get(pid, 0) < tick:
                return False
        return True

    def merge_stamps(self, a, b):
        """Merged copy of two (possibly None) stamps."""
        merged = dict(a) if a else {}
        if b:
            self._merge(merged, b)
        return merged

    def register_process(self, process):
        pid = self._next_pid
        self._next_pid += 1
        process._race_pid = pid
        self._clocks[pid] = {}
        self._names[pid] = getattr(process, "name", None) or f"proc-{pid}"
        return pid

    def _acting(self):
        """(pid, clock) of whoever is executing right now."""
        process = self.sim._active_process
        if process is not None:
            pid = getattr(process, "_race_pid", None)
            if pid is None:
                pid = self.register_process(process)
        else:
            pid = 0
        clock = self._clocks[pid]
        if pid == 0 and self._context:
            # Bare-callback context: main acts with the dispatched
            # item's knowledge (the documented approximation).
            self._merge(clock, self._context)
        return pid, clock

    def _tick(self, pid):
        clock = self._clocks[pid]
        clock[pid] = clock.get(pid, 0) + 1
        return clock

    def current_stamp(self):
        """Stamp for an outgoing message/event from the current actor."""
        pid, clock = self._acting()
        if self.sim._active_process is None and self._context:
            return dict(clock)
        self._tick(pid)
        return dict(clock)

    def absorb(self, stamp):
        """Merge a carried stamp into the current actor's clock."""
        if not stamp:
            return
        _pid, clock = self._acting()
        self._merge(clock, stamp)

    # Called by Simulation._schedule / _schedule_callback.

    def stamp_event(self, event):
        stamp = self.current_stamp()
        acc = getattr(event, "_race_acc", None)
        if acc:
            stamp = self.merge_stamps(stamp, acc)
        event._race_stamp = stamp

    def stamp_callback(self, fn):
        try:
            fn._race_stamp = self.current_stamp()
        except AttributeError:
            pass  # bound methods reject attributes; loses one edge only

    # Called by the run loop around each dispatched item.

    def begin_dispatch(self, stamp):
        self._context = stamp

    def end_dispatch(self):
        self._context = None

    def context_stamp(self):
        return self._context

    # Called by Process._step before resuming the generator.

    def on_step(self, process):
        pid = getattr(process, "_race_pid", None)
        if pid is None:
            pid = self.register_process(process)
        clock = self._clocks[pid]
        if self._context:
            self._merge(clock, self._context)
        clock[pid] = clock.get(pid, 0) + 1

    # ------------------------------------------------------------------
    # Access probes (stores and caches call these)
    # ------------------------------------------------------------------

    def on_write(self, obj, key, release=False):
        pid, clock = self._acting()
        records = self._writes.setdefault(obj, {}).setdefault(key, [])
        if release:
            # CAS/create: serialized by the revision check — acquire
            # every prior writer's knowledge, then dominate.
            for record in records:
                self._merge(clock, record.stamp)
        else:
            for record in records:
                if record.pid != pid and not self._leq(record.stamp, clock):
                    self._conflict(obj, key, "write-write", record, pid)
            if self.track_reads:
                for record in self._reads.get(obj, {}).get(key, ()):
                    if record.pid != pid and \
                            not self._leq(record.stamp, clock):
                        self._conflict(obj, key, "read-write", record, pid)
                for prefix, record in self._scans.get(obj, ()):
                    if key.startswith(prefix) and record.pid != pid and \
                            not self._leq(record.stamp, clock):
                        self._conflict(obj, key, "read-write", record, pid)
        self._tick(pid)
        if release:
            del records[:]
        records.append(_Access(pid, dict(clock), self.sim.now, "write"))
        del records[:-_HISTORY_PER_KEY]

    def on_read(self, obj, key):
        if not self.track_reads:
            return
        pid, clock = self._acting()
        for record in self._writes.get(obj, {}).get(key, ()):
            if record.pid != pid and not self._leq(record.stamp, clock):
                self._conflict(obj, key, "read-write", record, pid)
        self._tick(pid)
        records = self._reads.setdefault(obj, {}).setdefault(key, [])
        records.append(_Access(pid, dict(clock), self.sim.now, "read"))
        del records[:-_HISTORY_PER_KEY]

    def on_scan(self, obj, prefix):
        if not self.track_reads:
            return
        pid, clock = self._acting()
        for key, key_records in self._writes.get(obj, {}).items():
            if not key.startswith(prefix):
                continue
            for record in key_records:
                if record.pid != pid and not self._leq(record.stamp, clock):
                    self._conflict(obj, key, "read-write", record, pid)
        self._tick(pid)
        scans = self._scans.setdefault(obj, [])
        scans.append((prefix, _Access(pid, dict(clock), self.sim.now,
                                      "scan")))
        del scans[:-_HISTORY_PER_KEY]

    def cache_probe(self, label):
        """A per-instance probe for objects without a sim reference
        (:class:`~repro.clientgo.cache.ObjectCache`).  The sequence
        suffix keeps same-named caches on different control planes from
        sharing an access graph."""
        self._probe_seq += 1
        return _ObjectProbe(self, f"{label}#{self._probe_seq}")

    def reset_object(self, obj):
        """Forget an object's history (store wiped/restored: the old
        access graph no longer describes reachable state)."""
        self._writes.pop(obj, None)
        self._reads.pop(obj, None)
        self._scans.pop(obj, None)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def _conflict(self, obj, key, kind, record, pid):
        dedup = (obj, key, kind, min(record.pid, pid), max(record.pid, pid))
        if dedup in self._seen or len(self.conflicts) >= self.max_conflicts:
            return
        self._seen.add(dedup)
        self.conflicts.append(RaceConflict(
            obj, key, kind,
            record.pid, self._names.get(record.pid, f"proc-{record.pid}"),
            record.time,
            pid, self._names.get(pid, f"proc-{pid}"), self.sim.now))

    @property
    def ok(self):
        return not self.conflicts

    def report(self):
        lines = [f"race detector: {len(self.conflicts)} conflict(s), "
                 f"{self._next_pid} process clock(s), "
                 f"track_reads={self.track_reads}"]
        lines.extend(conflict.format() for conflict in self.conflicts)
        return "\n".join(lines)
