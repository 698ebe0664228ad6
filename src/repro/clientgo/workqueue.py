"""client-go style work queues.

:class:`WorkQueue` reproduces the exact semantics of client-go's ``Type``:

- an item present in the queue is **deduplicated** (adding it again is a
  no-op) — the paper leans on this to argue the syncer's queues cannot
  grow without bound;
- an item currently being processed that is re-added goes to a *dirty*
  set and is re-queued when the worker calls :meth:`done`;
- :meth:`get` blocks (in simulated time) until an item is available.

:class:`RateLimitingQueue` adds ``add_after`` and per-item exponential
backoff for retries.
"""

from repro.simkernel.events import Event, resolved
from repro.telemetry import telemetry_of

from .backoff import JitteredBackoff


class ShutDown(Exception):
    """The queue was shut down while a worker waited on get()."""


class WorkQueue:
    """FIFO queue with client-go dedup/dirty/processing semantics."""

    def __init__(self, sim, name="workqueue"):
        self.sim = sim
        self.name = name
        self._queue = []
        self._dirty = set()
        self._processing = set()
        self._waiters = []
        self._shutdown = False
        self.added_total = 0
        self.deduped_total = 0
        self._enqueue_times = {}
        self.wait_time_total = 0.0
        # Registry counters aggregate across same-named queues (one
        # informer queue per control plane shares a name); the int
        # attributes above stay the per-instance source of truth.
        telemetry = telemetry_of(sim)
        self._adds_counter = telemetry.counter(
            "workqueue_adds_total", "workqueue adds (dedup hits included)",
            labels=("queue",)).labels(queue=name)
        self._deduped_counter = telemetry.counter(
            "workqueue_deduped_total", "adds absorbed by dedup",
            labels=("queue",)).labels(queue=name)
        self._wait_hist = telemetry.histogram(
            "workqueue_wait_seconds", "time queued before dispatch",
            labels=("queue",)).labels(queue=name)

    def __len__(self):
        return len(self._queue)

    def add(self, item):
        """Enqueue ``item`` unless it is already pending."""
        if self._shutdown:
            return
        self.added_total += 1
        self._adds_counter.inc()
        if item in self._dirty:
            self.deduped_total += 1
            self._deduped_counter.inc()
            return
        self._dirty.add(item)
        if item in self._processing:
            # Will be re-queued by done().
            return
        self._push(item)

    def _push(self, item):
        self._enqueue_times.setdefault(item, self.sim.now)
        waiter = self._pop_live_waiter()
        if waiter is not None:
            waiter.succeed(self._dispatch(item))
        else:
            self._queue.append(item)

    def _pop_live_waiter(self):
        """Next waiter event that still has a process listening.

        A worker interrupted while blocked in ``get()`` detaches from its
        event but the event stays queued; dispatching an item to such a
        dead waiter would strand the item in the processing set forever.
        """
        while self._waiters:
            event = self._waiters.pop(0)
            if event.callbacks:
                return event
        return None

    def _dispatch(self, item):
        """Mark ``item`` processing; returns what ``get()`` resolves to."""
        self._dirty.discard(item)
        self._processing.add(item)
        queued_at = self._enqueue_times.pop(item, self.sim.now)
        self.wait_time_total += self.sim.now - queued_at
        self._wait_hist.observe(self.sim.now - queued_at)
        return item, queued_at

    def get(self):
        """Event resolving to ``(item, enqueued_at)``; marks it processing."""
        if self._queue:
            return resolved(self.sim, self._dispatch(self._queue.pop(0)))
        event = Event(self.sim)
        if self._shutdown:
            event.fail(ShutDown(self.name))
        else:
            self._waiters.append(event)
        return event

    def done(self, item):
        """Worker finished ``item``; re-queues it if it went dirty."""
        self._processing.discard(item)
        if item in self._dirty:
            if not self._shutdown:
                self._push(item)
            else:
                self._dirty.discard(item)

    def shutdown(self):
        """Wake every blocked ``get()`` waiter with :class:`ShutDown`.

        Items already queued may still be drained; ``done()`` afterwards
        is a no-op rather than an error.
        """
        self._shutdown = True
        while self._waiters:
            event = self._waiters.pop(0)
            if event.callbacks:
                event.fail(ShutDown(self.name))

    def restart(self):
        """Re-open a shut-down queue (a controller restarted after a
        stop reuses its queue instance)."""
        self._shutdown = False


class RateLimitingQueue(WorkQueue):
    """WorkQueue plus ``add_after`` and per-item jittered exponential
    retry backoff.

    Delays double from ``base_delay`` up to ``max_delay`` seconds.
    ``jitter`` stretches each delay by up to that fraction (drawn from the
    simulation RNG, so runs stay deterministic per seed); it decorrelates
    retry storms after a shared failure, like client-go's workqueue
    ``ItemExponentialFailureRateLimiter`` combined with flowcontrol jitter.
    """

    base_delay = 0.005
    max_delay = 10.0
    jitter = 0.1

    def __init__(self, sim, name="ratelimit-queue"):
        super().__init__(sim, name=name)
        self._backoff = JitteredBackoff(sim.rng, self.base_delay,
                                        self.max_delay, jitter=self.jitter)
        self._failures = {}

    def backoff_for(self, item):
        """The (jittered, capped) delay the next retry of ``item`` pays."""
        return self._backoff.delay(self._failures.get(item, 0))

    def add_rate_limited(self, item, retry_after=None):
        """Requeue a failed item after a backoff delay.

        ``retry_after`` is an optional server-provided hint (429 +
        Retry-After from APF shedding): it overrides the per-item
        exponential schedule, with the queue's one-sided jitter still
        applied so a shed batch doesn't retry in lockstep.  The failure
        streak advances either way.
        """
        if retry_after:
            delay = retry_after * (1.0 + self.jitter * self.sim.rng.random())
        else:
            delay = self.backoff_for(item)
        self._failures[item] = self._failures.get(item, 0) + 1
        self.add_after(item, delay)

    def add_after(self, item, delay):
        """Enqueue ``item`` once ``delay`` simulated seconds have passed."""
        if delay <= 0:
            self.add(item)
            return

        def later():
            yield self.sim.timeout(delay)
            self.add(item)

        self.sim.spawn(later(), name=f"{self.name}-delayed-add")

    def forget(self, item):
        self._failures.pop(item, None)

    def num_requeues(self, item):
        return self._failures.get(item, 0)
