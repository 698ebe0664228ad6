"""Ordering races caught by the schedule check.

The kernel is one cooperative thread, so an ordering race is a
same-timestamp tie whose outcome depends on which item the kernel
dispatches first.  ``Simulation(schedule=S)`` permutes those ties; a
race is an outcome that differs across schedules.  The seeded injected
race the analysis suite requires lives here: two sim processes
blind-writing the same key at the same instant MUST give a
schedule-dependent result, while the same access pattern ordered
through an event edge, a hand-off carrier or CAS retries MUST give one
result under every schedule.
"""

from types import SimpleNamespace

from repro.clientgo import ObjectCache, WorkQueue
from repro.simkernel import Channel, Event, Simulation
from repro.storage import EtcdStore, RevisionConflict

KEY = "/registry/x/a"
SCHEDULES = (None, *range(8))


def outcomes(build):
    """The set of outcomes of one workload across :data:`SCHEDULES`.

    ``build(sim)`` spawns the workload and returns a callable reading
    its outcome once the run is over; more than one outcome is a race.
    """
    seen = set()
    for schedule in SCHEDULES:
        sim = Simulation(seed=1, schedule=schedule)
        read = build(sim)
        sim.run(until=10.0)
        seen.add(read())
    return seen


def _store(sim):
    store = EtcdStore(sim, name="etcd")
    store.create(KEY, {"v": 0})
    return store


def _value(store):
    return lambda: store.get(KEY)[0]["v"]


class TestInjectedRace:
    def test_blind_writes_without_edge_are_caught(self):
        """The seeded injected race: unordered blind writes at one
        instant leave a schedule-dependent value."""
        def build(sim):
            store = _store(sim)

            def writer(tag):
                yield sim.timeout(1.0)
                store.update(KEY, {"v": tag})

            sim.process(writer(1), name="writer-1")
            sim.process(writer(2), name="writer-2")
            return _value(store)

        assert outcomes(build) == {1, 2}

    def test_event_edge_suppresses_conflict(self):
        """Same writes, but ordered through an Event: one outcome."""
        def build(sim):
            store = _store(sim)
            done = Event(sim)

            def first():
                yield sim.timeout(1.0)
                store.update(KEY, {"v": 1})
                done.succeed()

            def second():
                yield done
                store.update(KEY, {"v": 2})

            sim.process(first(), name="writer-1")
            sim.process(second(), name="writer-2")
            return _value(store)

        assert outcomes(build) == {2}

    def test_cas_writes_do_not_conflict(self):
        """CAS-guarded increments with a modelled round trip between
        read and write lose no update under any schedule."""
        def build(sim):
            store = _store(sim)

            def increment():
                yield sim.timeout(1.0)
                while True:
                    value, revision = store.get(KEY)
                    yield sim.timeout(0.5)
                    try:
                        store.update(KEY, {"v": value["v"] + 1},
                                     expected_revision=revision)
                        return
                    except RevisionConflict:
                        continue

            sim.process(increment(), name="writer-1")
            sim.process(increment(), name="writer-2")
            return _value(store)

        assert outcomes(build) == {2}


class TestCarrierStamps:
    """A hand-off carrier orders its producer before its consumer."""

    def test_channel_carries_producer_stamp(self):
        def build(sim):
            store = _store(sim)
            channel = Channel(sim, capacity=4)

            def producer():
                yield sim.timeout(1.0)
                store.update(KEY, {"v": 1})
                yield channel.put("go")

            def consumer():
                yield channel.get()
                store.update(KEY, {"v": 2})

            sim.process(producer(), name="producer")
            sim.process(consumer(), name="consumer")
            return _value(store)

        assert outcomes(build) == {2}

    def test_workqueue_carries_producer_stamp(self):
        def build(sim):
            store = _store(sim)
            queue = WorkQueue(sim)

            def producer():
                yield sim.timeout(1.0)
                store.update(KEY, {"v": 1})
                queue.add("item")

            def consumer():
                item, _enqueued = yield queue.get()
                store.update(KEY, {"v": 2})
                queue.done(item)

            sim.process(producer(), name="producer")
            sim.process(consumer(), name="consumer")
            return _value(store)

        assert outcomes(build) == {2}


class TestCacheProbe:
    def test_unsynchronized_cache_writes_conflict(self):
        def build(sim):
            cache = ObjectCache()

            def writer(tag):
                yield sim.timeout(1.0)
                cache.upsert(SimpleNamespace(
                    key="ns/a", value=tag,
                    metadata=SimpleNamespace(namespace="ns", labels={})))

            sim.process(writer(1), name="writer-1")
            sim.process(writer(2), name="writer-2")
            return lambda: cache.get("ns/a").value

        assert outcomes(build) == {1, 2}
