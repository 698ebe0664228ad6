"""Unit tests for simulated locks and channels."""

import pytest

from repro.simkernel import Channel, ChannelClosed, Lock, Simulation


def test_lock_mutual_exclusion():
    sim = Simulation()
    lock = Lock(sim)
    trace = []

    def worker(name, hold):
        yield lock.acquire()
        trace.append((f"{name}-in", sim.now))
        yield sim.timeout(hold)
        trace.append((f"{name}-out", sim.now))
        lock.release()

    sim.process(worker("a", 2))
    sim.process(worker("b", 3))
    sim.run()
    assert trace == [("a-in", 0), ("a-out", 2), ("b-in", 2), ("b-out", 5)]


def test_lock_counts_contention_and_wait_time():
    sim = Simulation()
    lock = Lock(sim)

    def worker(hold):
        yield lock.acquire()
        yield sim.timeout(hold)
        lock.release()

    for _ in range(3):
        sim.process(worker(1))
    sim.run()
    assert lock.acquisitions == 3
    assert lock.contentions == 2
    # Second waits 1s, third waits 2s.
    assert lock.wait_time == pytest.approx(3.0)


def test_lock_release_unlocked_raises():
    sim = Simulation()
    lock = Lock(sim)
    with pytest.raises(RuntimeError):
        lock.release()


def test_channel_put_then_get():
    sim = Simulation()
    chan = Channel(sim)
    got = []

    def producer():
        yield chan.put("x")
        yield sim.timeout(1)
        yield chan.put("y")

    def consumer():
        for _ in range(2):
            item = yield chan.get()
            got.append((item, sim.now))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == [("x", 0), ("y", 1)]


def test_channel_get_blocks_until_put():
    sim = Simulation()
    chan = Channel(sim)
    got = []

    def consumer():
        item = yield chan.get()
        got.append((item, sim.now))

    def producer():
        yield sim.timeout(5)
        yield chan.put("late")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [("late", 5)]


def test_bounded_channel_blocks_producer():
    sim = Simulation()
    chan = Channel(sim, capacity=1)
    trace = []

    def producer():
        yield chan.put(1)
        trace.append(("put1", sim.now))
        yield chan.put(2)
        trace.append(("put2", sim.now))

    def consumer():
        yield sim.timeout(3)
        item = yield chan.get()
        trace.append((f"got{item}", sim.now))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert ("put1", 0) in trace
    assert ("got1", 3) in trace
    assert ("put2", 3) in trace


def test_channel_try_put_respects_capacity():
    sim = Simulation()
    chan = Channel(sim, capacity=1)
    assert chan.try_put(1) is True
    assert chan.try_put(2) is False
    assert len(chan) == 1


def test_channel_close_fails_getters():
    sim = Simulation()
    chan = Channel(sim)
    failures = []

    def consumer():
        try:
            yield chan.get()
        except ChannelClosed:
            failures.append(sim.now)

    def closer():
        yield sim.timeout(2)
        chan.close()

    sim.process(consumer())
    sim.process(closer())
    sim.run()
    assert failures == [2]


def test_channel_put_after_close_fails():
    sim = Simulation()
    chan = Channel(sim)
    chan.close()
    failures = []

    def producer():
        try:
            yield chan.put(1)
        except ChannelClosed:
            failures.append(True)

    sim.process(producer())
    sim.run()
    assert failures == [True]


def test_channel_fifo_order_many_items():
    sim = Simulation()
    chan = Channel(sim)
    got = []

    def producer():
        for i in range(100):
            yield chan.put(i)

    def consumer():
        for _ in range(100):
            item = yield chan.get()
            got.append(item)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == list(range(100))


# ----------------------------------------------------------------------
# Ready results: an uncontended acquire or a buffered get is resolved,
# so the process resumes inline; a contended one still waits its turn.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("source", ["lock", "channel"])
def test_ready_result_resumes_in_the_same_dispatch(source):
    sim = Simulation()
    channel = Channel(sim)
    channel.try_put("item")
    ready = {"lock": Lock(sim).acquire,
             "channel": channel.get}[source]
    seen = []

    def worker():
        yield sim.timeout(1)
        before = (sim.kernel_stats()["dispatched"], sim.now)
        value = yield ready()
        seen.append((value, before,
                     (sim.kernel_stats()["dispatched"], sim.now)))

    sim.process(worker())
    sim.run()
    [(value, before, after)] = seen
    assert value == ("item" if source == "channel" else None)
    assert after == before
    assert sim.kernel_stats()["ready_at_yield"] == 0


def test_contended_acquires_are_handed_off_fifo():
    """Waiters get the lock in arrival order at the releaser's instant;
    one arriving at that instant queues behind them."""
    sim = Simulation()
    lock = Lock(sim)
    order = []

    def worker(name, start):
        yield sim.timeout(start)
        yield lock.acquire()
        order.append((name, sim.now))
        yield sim.timeout(1)
        lock.release()

    for name, start in (("a", 0), ("b", 0), ("c", 0), ("late", 1)):
        sim.process(worker(name, start))
    sim.run()
    assert order == [("a", 0), ("b", 1), ("c", 2), ("late", 3)]
