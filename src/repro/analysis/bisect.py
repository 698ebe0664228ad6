"""Replay-divergence bisector.

Two runs with the same seed must produce byte-identical store-event
streams.  :class:`ReplayRecorder` hangs off the sim and hashes every
:class:`~repro.storage.etcd.WatchEvent` emitted by every
:class:`~repro.storage.etcd.EtcdStore` into a *cumulative* sha256
stream: digest *i* covers events ``0..i``.  That prefix property makes
"first divergent event" a monotonic predicate — ``digests_a[i] !=
digests_b[i]`` is false, then true, over *i* — so
:func:`first_divergence` binary-searches it in O(log n) comparisons and
attributes the event to the sim process that performed the write.

The deliberate-perturbation fixture (``Simulation(perturb_swap=K)``)
dispatches the (K+1)-th ready item before the K-th, flipping exactly one
event order; the bisector must localize the flip's first store-visible
consequence.
"""

import hashlib
import json


class _Entry:
    """One recorded store event, for attribution."""

    __slots__ = ("index", "time", "store", "type", "key", "revision",
                 "component")

    def __init__(self, index, time, store, type, key, revision, component):
        self.index = index
        self.time = time
        self.store = store
        self.type = type
        self.key = key
        self.revision = revision
        self.component = component

    def describe(self):
        return (f"#{self.index} t={self.time:.6f} {self.store} "
                f"{self.type} {self.key} @rev {self.revision} "
                f"by {self.component!r}")


class ReplayRecorder:
    """Records the per-event cumulative digest stream of one run.

    Construct with the sim *before* the env so every store hooks in.
    """

    def __init__(self, sim):
        self.sim = sim
        self._hash = hashlib.sha256()
        self.digests = []
        self.entries = []
        sim.replay_recorder = self

    def record(self, store, event):
        """Called by ``EtcdStore._emit`` for every committed write."""
        process = self.sim._active_process
        component = process.name if process is not None else "main"
        payload = (f"{store}|{event.type}|{event.key}|{event.revision}|"
                   f"{json.dumps(event.value, sort_keys=True)}")
        self._hash.update(payload.encode("utf-8"))
        self.digests.append(self._hash.hexdigest())
        self.entries.append(_Entry(len(self.entries), self.sim.now, store,
                                   event.type, event.key, event.revision,
                                   component))

    @property
    def final_digest(self):
        return self.digests[-1] if self.digests else self._hash.hexdigest()


class Divergence:
    """The first point where two digest streams disagree."""

    __slots__ = ("index", "a", "b", "probes")

    def __init__(self, index, a, b, probes=0):
        self.index = index
        self.a = a
        self.b = b
        self.probes = probes

    @property
    def component(self):
        """Best attribution: the divergent event's writer."""
        entry = self.a or self.b
        return entry.component if entry is not None else "<unknown>"

    def format(self):
        lines = [f"first divergent store event: index {self.index} "
                 f"(component {self.component!r}, {self.probes} digest "
                 f"probes)"]
        lines.append(f"  run A: {self.a.describe() if self.a else '<stream ended>'}")
        lines.append(f"  run B: {self.b.describe() if self.b else '<stream ended>'}")
        return "\n".join(lines)

    def __repr__(self):
        return f"<Divergence index={self.index} component={self.component!r}>"


def first_divergence(run_a, run_b):
    """Locate the first divergent event between two recorded runs.

    Returns a :class:`Divergence`, or ``None`` when the streams are
    identical.  Accepts :class:`ReplayRecorder` instances.
    """
    digests_a, digests_b = run_a.digests, run_b.digests
    common = min(len(digests_a), len(digests_b))
    probes = 0
    if common:
        probes += 1
        if digests_a[common - 1] != digests_b[common - 1]:
            # Cumulative digests: mismatch at i means the first diverging
            # event is at or before i, so this predicate is monotonic.
            lo, hi = 0, common - 1
            while lo < hi:
                mid = (lo + hi) // 2
                probes += 1
                if digests_a[mid] != digests_b[mid]:
                    hi = mid
                else:
                    lo = mid + 1
            return Divergence(lo, run_a.entries[lo], run_b.entries[lo],
                              probes=probes)
    if len(digests_a) != len(digests_b):
        # Identical common prefix; one run simply emitted more events.
        index = common
        entry_a = run_a.entries[index] if index < len(run_a.entries) else None
        entry_b = run_b.entries[index] if index < len(run_b.entries) else None
        return Divergence(index, entry_a, entry_b, probes=probes)
    return None
