"""Synchronization and communication primitives for simulated processes.

These mirror the primitives the real system relies on: mutexes guarding the
work-queue critical sections (whose contention the paper identifies as the
source of the syncer's throughput degradation) and channels for message
passing (watch streams, gRPC calls).
"""

from collections import deque

from .events import Event, resolved


class Lock:
    """A FIFO mutex.

    ``acquire()`` returns an event to ``yield`` (a resolved one when the
    lock is free); ``release()`` hands the lock to the next waiter at the
    current simulated time.  Contended acquisitions are counted so
    benchmarks can report lock contention.
    """

    def __init__(self, sim, name="lock"):
        self.sim = sim
        self.name = name
        self._locked = False
        self._waiters = deque()
        self.acquisitions = 0
        self.contentions = 0
        self.wait_time = 0.0

    @property
    def locked(self):
        return self._locked

    def acquire(self):
        self.acquisitions += 1
        if not self._locked:
            self._locked = True
            return resolved(self.sim)
        self.contentions += 1
        event = Event(self.sim)
        self._waiters.append((event, self.sim.now))
        return event

    def release(self):
        if not self._locked:
            raise RuntimeError(f"release of unlocked {self.name}")
        if self._waiters:
            event, queued_at = self._waiters.popleft()
            self.wait_time += self.sim.now - queued_at
            event.succeed()
        else:
            self._locked = False

    def locked_section(self, body):
        """Run generator ``body`` while holding the lock (helper process)."""

        def section():
            yield self.acquire()
            try:
                result = yield from body
            finally:
                self.release()
            return result

        return section()


class Channel:
    """An optionally-bounded FIFO channel between processes.

    ``put`` blocks when a bounded channel is full; ``get`` blocks when the
    channel is empty.  Used for watch streams, RPC transports, and worker
    hand-off.  ``close()`` causes all current and future ``get``s to fail
    with :class:`ChannelClosed` once drained, and ``put`` to fail immediately.
    """

    def __init__(self, sim, capacity=None, name="channel"):
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._items = deque()
        self._getters = deque()
        self._putters = deque()  # (event, item)
        self._closed = False

    def __len__(self):
        return len(self._items)

    @property
    def closed(self):
        return self._closed

    def put(self, item):
        event = Event(self.sim)
        if self._closed:
            event.fail(ChannelClosed(self.name))
            return event
        if self._getters:
            self._getters.popleft().succeed(item)
            event.succeed()
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            event.succeed()
        else:
            self._putters.append((event, item))
        return event

    def try_put(self, item):
        """Non-blocking put; returns False when a bounded channel is full."""
        if self._closed:
            raise ChannelClosed(self.name)
        if self._getters:
            self._getters.popleft().succeed(item)
            return True
        if self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            return True
        return False

    def get(self):
        if self._items:
            value = self._items.popleft()
            if self._putters:
                putter, item = self._putters.popleft()
                self._items.append(item)
                putter.succeed()
            return resolved(self.sim, value)
        event = Event(self.sim)
        if self._closed:
            event.fail(ChannelClosed(self.name))
        else:
            self._getters.append(event)
        return event

    def close(self):
        """Close the channel; pending getters fail once the buffer drains."""
        if self._closed:
            return
        self._closed = True
        while self._getters:
            self._getters.popleft().fail(ChannelClosed(self.name))
        while self._putters:
            putter, _item = self._putters.popleft()
            putter.fail(ChannelClosed(self.name))


class ChannelClosed(Exception):
    """Raised by channel operations after :meth:`Channel.close`."""
