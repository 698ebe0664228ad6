"""Unit tests for the discrete-event simulation loop and processes."""

import pytest

from repro.simkernel import (
    Condition,
    Event,
    Interrupt,
    Simulation,
    SimulationDeadlock,
)


def test_clock_starts_at_zero():
    sim = Simulation()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulation()
    log = []

    def proc():
        yield sim.timeout(1.5)
        log.append(sim.now)
        yield sim.timeout(2.5)
        log.append(sim.now)

    sim.process(proc())
    sim.run()
    assert log == [1.5, 4.0]


def test_timeout_value_is_delivered():
    sim = Simulation()
    seen = []

    def proc():
        value = yield sim.timeout(1, value="hello")
        seen.append(value)

    sim.process(proc())
    sim.run()
    assert seen == ["hello"]


def test_negative_timeout_rejected():
    sim = Simulation()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_run_until_time_stops_early():
    sim = Simulation()
    log = []

    def ticker():
        while True:
            yield sim.timeout(1)
            log.append(sim.now)

    sim.process(ticker())
    sim.run(until=3.5)
    assert log == [1, 2, 3]
    assert sim.now == 3.5


def test_run_until_time_in_past_rejected():
    sim = Simulation()
    with pytest.raises(ValueError):
        sim.run(until=-1)


def test_process_requires_generator():
    sim = Simulation()
    with pytest.raises(TypeError):
        sim.process(iter([]))


def test_run_until_event_returns_value():
    sim = Simulation()

    def proc():
        yield sim.timeout(2)
        return 42

    result = sim.run(until=sim.process(proc()))
    assert result == 42
    assert sim.now == 2


def test_process_return_value_via_yield():
    sim = Simulation()
    results = []

    def child():
        yield sim.timeout(1)
        return "child-result"

    def parent():
        value = yield sim.process(child())
        results.append(value)

    sim.process(parent())
    sim.run()
    assert results == ["child-result"]


def test_process_exception_propagates_to_waiter():
    sim = Simulation()
    caught = []

    def child():
        yield sim.timeout(1)
        raise ValueError("boom")

    def parent():
        try:
            yield sim.process(child())
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(parent())
    sim.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_crashes_run():
    sim = Simulation()

    def proc():
        yield sim.timeout(1)
        raise RuntimeError("unhandled")

    sim.process(proc())
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_events_fire_in_fifo_order_at_same_time():
    sim = Simulation()
    order = []

    def make(name):
        def proc():
            yield sim.timeout(1)
            order.append(name)

        return proc()

    for name in ["a", "b", "c"]:
        sim.process(make(name))
    sim.run()
    assert order == ["a", "b", "c"]


def test_any_of_waits_for_first():
    sim = Simulation()
    seen = []

    def proc():
        fast = sim.timeout(1, value="fast")
        slow = sim.timeout(5, value="slow")
        result = yield Condition(sim, [fast, slow],
                                 lambda _events, count: count >= 1)
        seen.append(list(result.values()))
        seen.append(sim.now)

    sim.process(proc())
    sim.run()
    assert seen[0] == ["fast"]
    assert seen[1] == 1


def test_all_of_waits_for_all():
    sim = Simulation()
    seen = []

    def proc():
        a = sim.timeout(1, value="a")
        b = sim.timeout(3, value="b")
        result = yield sim.all_of([a, b])
        seen.append(sorted(result.values()))
        seen.append(sim.now)

    sim.process(proc())
    sim.run()
    assert seen == [["a", "b"], 3]


def test_all_of_empty_succeeds_immediately():
    sim = Simulation()
    seen = []

    def proc():
        result = yield sim.all_of([])
        seen.append(result)

    sim.process(proc())
    sim.run()
    assert seen == [{}]


def test_interrupt_raises_in_process():
    sim = Simulation()
    log = []

    def victim():
        try:
            yield sim.timeout(100)
        except Interrupt as intr:
            log.append((sim.now, intr.cause))

    def interrupter(proc):
        yield sim.timeout(3)
        proc.interrupt("stop it")

    victim_proc = sim.process(victim())
    sim.process(interrupter(victim_proc))
    sim.run()
    assert log == [(3, "stop it")]


def test_interrupt_finished_process_is_noop():
    sim = Simulation()

    def victim():
        yield sim.timeout(1)

    def interrupter(proc):
        yield sim.timeout(5)
        proc.interrupt()

    victim_proc = sim.process(victim())
    sim.process(interrupter(victim_proc))
    sim.run()
    assert not victim_proc.is_alive


def test_run_until_event_never_triggered_raises_deadlock():
    sim = Simulation()
    never = Event(sim)

    def proc():
        yield sim.timeout(1)

    sim.process(proc())
    with pytest.raises(SimulationDeadlock):
        sim.run(until=never)


def test_manual_event_succeed_wakes_waiter():
    sim = Simulation()
    gate = Event(sim)
    log = []

    def waiter():
        value = yield gate
        log.append((sim.now, value))

    def opener():
        yield sim.timeout(7)
        gate.succeed("open")

    sim.process(waiter())
    sim.process(opener())
    sim.run()
    assert log == [(7, "open")]


def test_event_double_trigger_rejected():
    from repro.simkernel import EventAlreadyTriggered

    sim = Simulation()
    event = Event(sim)
    event.succeed(1)
    with pytest.raises(EventAlreadyTriggered):
        event.succeed(2)


def test_determinism_same_seed_same_timeline():
    def build_and_run(seed):
        sim = Simulation(seed=seed)
        trace = []

        def worker(i):
            while sim.now < 20:
                delay = sim.rng.expovariate(1.0)
                yield sim.timeout(delay)
                trace.append((round(sim.now, 9), i))

        for i in range(3):
            sim.process(worker(i))
        sim.run(until=20)
        return trace

    assert build_and_run(42) == build_and_run(42)
    assert build_and_run(42) != build_and_run(43)


def test_yielding_non_event_fails_process():
    sim = Simulation()

    def bad():
        yield 5

    sim.process(bad())
    with pytest.raises(TypeError):
        sim.run()


def test_peek_returns_next_event_time():
    sim = Simulation()

    def proc():
        yield sim.timeout(4)

    sim.process(proc())
    # The process-start event is scheduled at t=0.
    assert sim.peek() == 0
    sim.run()
    assert sim.peek() is None
