"""Unit tests for the kernel's timer machinery: the hierarchical timer
wheel, orphan-timer cancellation, the kernel-correctness bugfix sweep
(late-failing ``any_of`` losers, waiter-abandonment defusing, and the
Event-wide undefused-failure check), and what an aborted or stopped
``run()`` leaves in the heap."""

import pytest

from repro.simkernel import Simulation
from repro.simkernel.timerwheel import GRANULARITY, MIN_WHEEL_DELAY, SPAN


# ----------------------------------------------------------------------
# Timer wheel
# ----------------------------------------------------------------------


class TestTimerWheel:
    def test_far_timers_are_staged_off_the_heap(self):
        sim = Simulation()
        fired = []
        for delay in (1.0, 10.0, 300.0):
            sim.timeout(delay).add_callback(
                lambda e, d=delay: fired.append((sim.now, d)))
        stats = sim.kernel_stats()
        assert stats["wheel_scheduled"] == 3
        assert len(sim._heap) == 0  # nothing due: all staged in the wheel
        sim.run()
        assert fired == [(1.0, 1.0), (10.0, 10.0), (300.0, 300.0)]

    def test_near_timers_bypass_the_wheel(self):
        sim = Simulation()
        sim.timeout(MIN_WHEEL_DELAY / 2).add_callback(lambda e: None)
        assert sim.kernel_stats()["wheel_scheduled"] == 0
        assert len(sim._heap) == 1

    def test_wheel_and_heap_tie_fires_in_creation_order(self):
        """Same fire time, one entry staged in the wheel and one in the
        heap: the original (time, seq) keys decide, not the staging path."""
        sim = Simulation()
        order = []
        # seq 1: delay 0.5 from t=0 -> wheel.
        sim.timeout(0.5).add_callback(lambda e: order.append("wheel"))
        sim.run(until=0.3)
        # seq 2: delay 0.2 from t=0.3 -> heap, same fire time 0.5.
        sim.timeout(0.2).add_callback(lambda e: order.append("heap"))
        sim.run()
        assert sim.now == 0.5
        assert order == ["wheel", "heap"]

    def test_same_time_wheel_entries_keep_seq_order(self):
        sim = Simulation()
        order = []
        for name in ("a", "b", "c"):
            sim.timeout(2.0).add_callback(
                lambda e, n=name: order.append(n))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_long_timers_cascade_across_levels(self):
        # Level 1 starts at GRANULARITY * SPAN, level 2 at
        # GRANULARITY * SPAN**2; both must step down and fire exactly.
        level1_delay = GRANULARITY * SPAN * 3      # 48 s
        level2_delay = GRANULARITY * SPAN ** 2 * 2  # 2048 s
        sim = Simulation()
        fired = []
        sim.timeout(level2_delay).add_callback(
            lambda e: fired.append(sim.now))
        sim.timeout(level1_delay).add_callback(
            lambda e: fired.append(sim.now))
        sim.run()
        assert fired == [level1_delay, level2_delay]
        assert sim.now == level2_delay

    def test_interleaved_near_and_far_timers_dispatch_in_time_order(self):
        sim = Simulation()
        fired = []
        delays = [0.1, 7.0, 0.26, 100.0, 3.0, 0.24, 17.0, 0.5]
        for delay in delays:
            sim.timeout(delay).add_callback(
                lambda e, d=delay: fired.append((sim.now, d)))
        sim.run()
        assert fired == sorted((d, d) for d in delays)

    def test_peek_sees_wheel_entries(self):
        sim = Simulation()
        sim.timeout(5.0).add_callback(lambda e: None)
        assert sim.peek() == 5.0
        sim.run()
        assert sim.peek() is None

    def test_pending_counts_wheel_entries(self):
        sim = Simulation()
        sim.timeout(5.0).add_callback(lambda e: None)
        sim.timeout(0.1).add_callback(lambda e: None)
        assert sim.kernel_stats()["pending"] == 2


# ----------------------------------------------------------------------
# Orphan cancellation (the any_of-loser Timeout satellite)
# ----------------------------------------------------------------------


class TestOrphanCancellation:
    def test_any_of_loser_in_wheel_is_cancelled(self):
        """A losing Timeout staged in the wheel never reaches the heap:
        the run ends at the winner's time, not the loser's deadline."""
        sim = Simulation()

        def proc():
            yield sim.any_of([sim.timeout(1.0, value="fast"),
                              sim.timeout(600.0, value="slow")])

        sim.process(proc())
        sim.run()
        assert sim.now == 1.0  # pre-fix: the loop idled until t=600
        assert sim.kernel_stats()["timers_cancelled"] == 1
        assert sim.kernel_stats()["pending"] == 0

    def test_any_of_loser_in_heap_is_skipped(self):
        sim = Simulation()

        def proc():
            # Both delays below MIN_WHEEL_DELAY: both go to the heap, so
            # the loser is skipped at pop time instead of flush time.
            yield sim.any_of([sim.timeout(0.1, value="fast"),
                              sim.timeout(0.2, value="slow")])

        sim.process(proc())
        sim.run()
        assert sim.kernel_stats()["orphans_skipped"] >= 1

    def test_detached_condition_still_delivers_to_other_waiter(self):
        """Orphaning only drops the *condition's* callback: another
        process waiting on the loser directly still gets its value."""
        sim = Simulation()
        seen = []

        def waiter(event):
            value = yield event
            seen.append((sim.now, value))

        def racer(event):
            yield sim.any_of([sim.timeout(1.0, value="fast"), event])

        slow = sim.timeout(10.0, value="slow")
        sim.process(racer(slow))
        sim.process(waiter(slow))
        sim.run()
        assert seen == [(10.0, "slow")]


    def test_loser_population_never_reaches_the_heap(self):
        """4,000 staggered racers, each a short wait against a 600 s
        watchdog: every loser is cancelled at wheel flush, so the heap
        holds only the in-flight sliver and the run ends with the last
        winner instead of idling to the watchdog deadline."""
        sim = Simulation(seed=0)
        racers = 4000

        def racer(index):
            fast = sim.timeout(0.5 + (index % 100) * 0.01)
            slow = sim.timeout(600.0)
            yield sim.any_of([fast, slow])

        def launcher():
            for index in range(racers):
                sim.process(racer(index))
                yield sim.timeout(0.001)

        sim.process(launcher())
        sim.run()
        stats = sim.kernel_stats()
        assert stats["timers_cancelled"] == racers
        assert sim.now < 10
        assert stats["peak_heap"] < 1000


# ----------------------------------------------------------------------
# Bugfix sweep regressions
# ----------------------------------------------------------------------


class TestUndefusedFailures:
    def test_late_failure_of_any_of_loser_surfaces(self):
        """A constituent that fails *after* the condition already
        triggered must not be swallowed by Condition._on_event: with no
        other waiter, the undefused failure crashes the run loudly."""
        sim = Simulation()

        def loser():
            yield sim.timeout(5)
            raise RuntimeError("late boom")

        def racer():
            yield sim.any_of([sim.timeout(1), sim.process(loser())])

        sim.process(racer())
        with pytest.raises(RuntimeError, match="late boom"):
            sim.run()

    def test_late_failure_with_direct_waiter_is_delivered(self):
        sim = Simulation()
        caught = []

        def loser():
            yield sim.timeout(5)
            raise RuntimeError("late boom")

        def racer(proc):
            yield sim.any_of([sim.timeout(1), proc])

        def handler(proc):
            try:
                yield proc
            except RuntimeError as exc:
                caught.append(str(exc))

        proc = sim.process(loser())
        sim.process(racer(proc))
        sim.process(handler(proc))
        sim.run()
        assert caught == ["late boom"]

    def test_plain_event_unobserved_failure_crashes_run(self):
        """The undefused-failure check covers every Event, not only
        Process: a failed bare event with no waiter stops the run."""
        sim = Simulation()
        sim.event().fail(RuntimeError("nobody watching"))
        with pytest.raises(RuntimeError, match="nobody watching"):
            sim.run()

    def test_defused_event_failure_passes_silently(self):
        sim = Simulation()
        event = sim.event()
        event.fail(RuntimeError("handled elsewhere"))
        event.defused = True
        sim.run()
        assert sim.kernel_stats()["pending"] == 0

    def test_detaching_last_waiter_defuses_failed_event(self):
        """Walking away from a failed event (e.g. an interrupted worker
        abandoning a queue wait) counts as handling it."""
        sim = Simulation()
        event = sim.event()
        callback = lambda e: None  # noqa: E731
        event.add_callback(callback)
        event.fail(RuntimeError("queue shut down"))
        event._detach(callback)
        assert event.defused
        sim.run()  # must not raise

    def test_detaching_from_pending_event_does_not_defuse(self):
        sim = Simulation()
        event = sim.event()
        callback = lambda e: None  # noqa: E731
        event.add_callback(callback)
        event._detach(callback)
        assert not event.defused


# ----------------------------------------------------------------------
# Aborted and stopped runs
# ----------------------------------------------------------------------


class TestRunAbort:
    def test_abort_mid_timestamp_leaves_rest_in_heap(self):
        """An undefused failure mid-timestamp leaves the undispatched
        same-time items in the heap with their original keys."""
        sim = Simulation()
        order = []
        for index in range(6):
            event = sim.event()
            if index == 2:
                event.fail(RuntimeError("boom"))
            else:
                event.succeed(index)
                event.add_callback(lambda e: order.append(e.value))
        keys = [entry[:2] for entry in sorted(sim._heap)]
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert order == [0, 1]
        assert [entry[:2] for entry in sorted(sim._heap)] == keys[3:]
        sim.run()  # resume: the tail dispatches in order
        assert order == [0, 1, 3, 4, 5]

    def test_run_until_event_stops_mid_timestamp(self):
        """``run(until=event)`` returns as the event is processed; later
        same-time items stay queued for the next ``run()``."""
        sim = Simulation()
        order = []
        events = [sim.event() for _ in range(4)]
        for index, event in enumerate(events):
            event.succeed(index)
            event.add_callback(lambda e: order.append(e.value))
        assert sim.run(until=events[1]) == 1
        assert order == [0, 1]
        stats = sim.kernel_stats()
        assert (stats["dispatched"], stats["pending"]) == (2, 2)
        sim.run()
        assert order == [0, 1, 2, 3]
        assert sim.kernel_stats()["dispatched"] == 4
