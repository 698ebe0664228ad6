"""Golden corpus: one deliberate instance of every rule (A, C and D).

The expected findings (exact rule codes, lines, and messages) live in
``findings_corpus.expected``; the conformance test fails on any drift
in either direction — a new false positive and a lost true positive
both break the byte-exact comparison.
"""

from repro.simkernel import Timeout

SHARED_REGISTRY = {}


class CorpusWorker:
    def __init__(self, sim):
        self.sim = sim

    def write_registry(self, key):
        yield self.sim.timeout(0.1)
        SHARED_REGISTRY[key] = self.sim.now

    def drop_timer(self):
        orphan = self.sim.timeout(5.0)
        yield self.sim.timeout(0.1)


class SyncerHA:
    def __init__(self, sim, client, store):
        self.sim = sim
        self.client = client
        self.store = store

    def reconcile(self, ops):
        yield self.client.transaction([], ops)
        self.store.put("/registry/x", b"value")


class CacheReader:
    def __init__(self, informer, client):
        self.cache = informer.cache
        self.client = client

    def edit_in_place(self, key):
        pod = self.cache.get(key)
        pod.status.phase = "Running"

    def copy_on_write(self, key):
        pod = self.cache.get(key)
        pod = pod.replace(status=pod.status.replace(phase="Running"))
        pod.metadata = pod.metadata.replace(labels={})
        yield from self.client.update_status(pod)


# -- D-pack and the A000 meta-rule (appended: the C lines above stay put)

import hashlib  # noqa: E402
import heapq  # noqa: E402
import random  # noqa: E402
import time  # noqa: E402


def wall_clock():
    return time.time()


def module_random():
    return random.random()


def set_order(members):
    pending = set(members)
    return [name for name in pending]


def identity_key(obj):
    return id(obj)


def drifting_deadline(heap, step):
    deadline = 0.0
    deadline += step
    heapq.heappush(heap, (deadline, "tick"))


def repr_digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


UNKNOWN_CODE = 1  # repro: allow[X999] names no rule
