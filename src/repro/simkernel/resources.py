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


class Channel:
    """An unbounded FIFO channel between processes.

    ``try_put`` never blocks; ``get`` blocks when the channel is empty.
    Used for watch streams, RPC transports, and worker hand-off.
    ``close()`` causes all current and future ``get``s to fail with
    :class:`ChannelClosed` once drained, and ``try_put`` to raise it.
    """

    def __init__(self, sim, name="channel"):
        self.sim = sim
        self.name = name
        self._items = deque()
        self._getters = deque()
        self._closed = False

    def __len__(self):
        return len(self._items)

    @property
    def closed(self):
        return self._closed

    def try_put(self, item):
        """Hand ``item`` to the oldest waiting getter, or buffer it."""
        if self._closed:
            raise ChannelClosed(self.name)
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self):
        if self._items:
            return resolved(self.sim, self._items.popleft())
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


class ChannelClosed(Exception):
    """Raised by channel operations after :meth:`Channel.close`."""
