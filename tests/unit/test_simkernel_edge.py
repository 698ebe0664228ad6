"""Edge cases in the simulation kernel: failures, conditions, helpers."""

import pytest

from repro.clientgo import FairWorkQueue, ShutDown, WorkQueue
from repro.simkernel import Condition, Event, Simulation, resolved


class TestEventFailure:
    def test_condition_fails_when_member_fails(self):
        sim = Simulation()
        bad = Event(sim)
        good = sim.timeout(10)
        caught = []

        def waiter():
            try:
                yield sim.all_of([good, bad])
            except RuntimeError as exc:
                caught.append(str(exc))

        def failer():
            yield sim.timeout(1)
            bad.fail(RuntimeError("member failed"))

        sim.process(waiter())
        sim.process(failer())
        sim.run()
        assert caught == ["member failed"]

    def test_fail_requires_exception(self):
        sim = Simulation()
        event = Event(sim)
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_late_callback_on_processed_event(self):
        sim = Simulation()
        event = Event(sim)
        event.succeed("value")
        sim.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == ["value"]

    def test_value_before_trigger_raises(self):
        sim = Simulation()
        event = Event(sim)
        with pytest.raises(AttributeError):
            _ = event.value


class TestProcessEdge:
    def test_process_returning_immediately(self):
        sim = Simulation()

        def instant():
            return 42
            yield  # pragma: no cover

        assert sim.run(until=sim.process(instant())) == 42

    def test_nested_yield_from(self):
        sim = Simulation()

        def inner():
            yield sim.timeout(1)
            return "inner-value"

        def outer():
            value = yield from inner()
            yield sim.timeout(1)
            return f"outer({value})"

        assert sim.run(until=sim.process(outer())) == "outer(inner-value)"
        assert sim.now == 2

    def test_interrupt_cause_accessible(self):
        from repro.simkernel import Interrupt

        sim = Simulation()
        seen = []

        def victim():
            try:
                yield sim.timeout(100)
            except Interrupt as intr:
                seen.append(intr.cause)

        process = sim.process(victim())

        def interrupter():
            yield sim.timeout(1)
            process.interrupt({"reason": "structured cause"})

        sim.process(interrupter())
        sim.run()
        assert seen == [{"reason": "structured cause"}]


class TestResourceEdge:
    def test_event_unhandled_failure_without_waiter_raises_at_loop(self):
        sim = Simulation()

        def crasher():
            yield sim.timeout(1)
            raise KeyError("nobody catches this")

        sim.process(crasher())
        with pytest.raises(KeyError):
            sim.run()


class TestResolvedResults:
    """A result that is already there never rides the heap; every kind of
    subscriber still observes it."""

    def test_conditions_over_a_resolved_event_fire(self):
        sim = Simulation()
        fired = []

        def waiter():
            first = yield Condition(
                sim, [resolved(sim, "now"), sim.timeout(5)],
                lambda _events, count: count >= 1)
            both = yield sim.all_of([resolved(sim, "a"), sim.timeout(1)])
            fired.append((sorted(first.values()), sorted(both.values(),
                                                         key=str), sim.now))

        sim.process(waiter())
        sim.run()
        assert fired == [(["now"], [None, "a"], 1)]

    def test_run_until_resolved_returns_its_value(self):
        sim = Simulation()
        assert sim.run(until=resolved(sim, 7)) == 7
        assert sim.now == 0

    @pytest.mark.parametrize("make", [
        lambda sim: (WorkQueue(sim), lambda queue: queue.add("k")),
        lambda sim: (FairWorkQueue(sim), lambda queue: queue.add("t", "k")),
    ])
    def test_get_from_a_shut_down_queue_still_raises(self, make):
        sim = Simulation()
        queue, add_one = make(sim)
        outcomes = []

        def worker():
            yield sim.timeout(1)
            try:
                got = yield queue.get()
                outcomes.append(got[-1])
            except ShutDown:
                outcomes.append("shutdown")

        add_one(queue)
        queue.get()          # take the only item: the next get is empty
        queue.shutdown()
        sim.process(worker())
        sim.run()
        assert outcomes == ["shutdown"]

    def test_unobserved_completion_never_enters_the_heap(self):
        sim = Simulation()

        def child():
            return "done"
            yield  # pragma: no cover

        proc = sim.process(child())
        sim.run()
        stats = sim.kernel_stats()
        # Only the start-up event was dispatched; the completion was
        # settled in place and counted as a skipped orphan.
        assert (stats["dispatched"], stats["orphans_skipped"]) == (1, 1)
        assert not proc.is_alive

        def joiner():
            return (yield proc)

        assert sim.run(until=sim.process(joiner())) == "done"

    def test_unobserved_failure_still_crashes_the_loop(self):
        sim = Simulation()

        def child():
            raise KeyError("nobody waits for this")
            yield  # pragma: no cover

        sim.process(child())
        with pytest.raises(KeyError):
            sim.run()


class TestDeterminismAcrossComponents:
    def test_same_seed_same_full_pipeline(self):
        from repro.core import VirtualClusterEnv

        def run_once(seed):
            env = VirtualClusterEnv(seed=seed, num_virtual_nodes=2)
            env.bootstrap()
            tenant = env.run_coroutine(env.create_tenant("t"))
            env.run_coroutine(tenant.create_pod("p"))
            env.run_until_pods_ready(tenant, ["default/p"], timeout=60)
            trace = env.syncer.trace_store.get(tenant.key, "default/p")
            return (round(env.sim.now, 9), round(trace.total, 9))

        assert run_once(123) == run_once(123)
