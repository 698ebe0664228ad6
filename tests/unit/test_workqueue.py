"""Unit tests for client-go style work queues."""

import pytest

from repro.clientgo import RateLimitingQueue, ShutDown, WorkQueue
from repro.simkernel import Simulation


@pytest.fixture
def sim():
    return Simulation()


def drain(sim, queue, count, process_time=0.0):
    """Run a worker that takes ``count`` items; returns [(item, t), ...]."""
    taken = []

    def worker():
        for _ in range(count):
            item, _enqueued = yield queue.get()
            if process_time:
                yield sim.timeout(process_time)
            taken.append((item, sim.now))
            queue.done(item)

    process = sim.process(worker())
    sim.run(until=process)
    return taken


class TestWorkQueue:
    def test_fifo_order(self, sim):
        queue = WorkQueue(sim)
        for item in ["a", "b", "c"]:
            queue.add(item)
        assert [item for item, _t in drain(sim, queue, 3)] == ["a", "b", "c"]

    def test_dedup_while_queued(self, sim):
        queue = WorkQueue(sim)
        queue.add("a")
        queue.add("a")
        queue.add("a")
        assert len(queue._queue) == 1
        assert queue.deduped_total == 2

    def test_readd_while_processing_requeues_after_done(self, sim):
        queue = WorkQueue(sim)
        queue.add("a")
        order = []

        def worker():
            item, _t = yield queue.get()
            order.append(("first", item))
            queue.add("a")  # re-added while processing
            assert len(queue._queue) == 0  # goes to dirty, not the queue
            queue.done(item)
            item, _t = yield queue.get()
            order.append(("second", item))
            queue.done(item)

        sim.run(until=sim.process(worker()))
        assert order == [("first", "a"), ("second", "a")]

    def test_get_blocks_until_add(self, sim):
        queue = WorkQueue(sim)
        got = []

        def worker():
            item, _t = yield queue.get()
            got.append((item, sim.now))

        def producer():
            yield sim.timeout(4)
            queue.add("late")

        sim.process(worker())
        sim.process(producer())
        sim.run()
        assert got == [("late", 4)]

    def test_wait_time_accounting(self, sim):
        queue = WorkQueue(sim)

        def producer():
            queue.add("a")
            yield sim.timeout(0)

        def worker():
            yield sim.timeout(3)
            item, enqueued_at = yield queue.get()
            assert sim.now - enqueued_at == pytest.approx(3)
            queue.done(item)

        sim.process(producer())
        process = sim.process(worker())
        sim.run(until=process)
        assert queue.wait_time_total == pytest.approx(3)

    def test_shutdown_fails_waiters(self, sim):
        queue = WorkQueue(sim)
        failures = []

        def worker():
            try:
                yield queue.get()
            except ShutDown:
                failures.append(True)

        def closer():
            yield sim.timeout(1)
            queue.shutdown()

        sim.process(worker())
        sim.process(closer())
        sim.run()
        assert failures == [True]

    def test_add_after_shutdown_is_noop(self, sim):
        queue = WorkQueue(sim)
        queue.shutdown()
        queue.add("x")
        assert len(queue._queue) == 0

    def test_two_workers_share_items(self, sim):
        queue = WorkQueue(sim)
        for i in range(10):
            queue.add(i)
        seen = []

        def worker(name):
            while True:
                try:
                    item, _t = yield queue.get()
                except ShutDown:
                    return
                yield sim.timeout(1)
                seen.append((name, item))
                queue.done(item)

        sim.process(worker("w1"))
        sim.process(worker("w2"))
        sim.run(until=10)
        queue.shutdown()
        sim.run()
        assert len(seen) == 10
        assert {name for name, _item in seen} == {"w1", "w2"}


class _SlowQueue(RateLimitingQueue):
    """Retry delays 1, 2, 4, ... s up to 100 s, without jitter."""

    base_delay = 1.0
    max_delay = 100.0
    jitter = 0.0


class _CappedQueue(_SlowQueue):
    max_delay = 4.0


class TestRateLimitingQueue:
    def test_add_after(self, sim):
        queue = RateLimitingQueue(sim)
        queue.add_after("a", 5)
        got = drain(sim, queue, 1)
        assert got[0][1] == 5

    def test_add_after_zero_is_immediate(self, sim):
        queue = RateLimitingQueue(sim)
        queue.add_after("a", 0)
        assert len(queue._queue) == 1

    def test_backoff_grows_exponentially(self, sim):
        queue = _SlowQueue(sim)
        times = []

        def worker():
            for _ in range(3):
                item, _t = yield queue.get()
                times.append(sim.now)
                queue.done(item)
                queue.add_rate_limited(item)

        queue.add_rate_limited("x")  # first failure: 1s delay
        process = sim.process(worker())
        sim.run(until=process)
        # Delays: 1, then 2, then 4 -> cumulative 1, 3, 7.
        assert times == [1, 3, 7]

    def test_forget_resets_backoff(self, sim):
        queue = _SlowQueue(sim)
        queue.add_rate_limited("x")
        assert queue._failures == {"x": 1}
        queue.forget("x")
        assert queue._failures == {}

    def test_max_delay_cap(self, sim):
        queue = _CappedQueue(sim)
        for _ in range(10):
            queue._failures["x"] = queue._failures.get("x", 0) + 1
        queue.add_rate_limited("x")
        got = drain(sim, queue, 1)
        assert got[0][1] <= 4.0 + 1e-9
