"""The discrete-event simulation loop.

:class:`Simulation` owns the virtual clock and the scheduled-event heap.
All components of the reproduced system (apiservers, controllers, kubelets,
the syncer, ...) run as :class:`~repro.simkernel.process.Process` instances
inside one simulation, which makes large-scale stress tests deterministic
and far faster than wall-clock execution.
"""

import heapq
import itertools
import random

from .errors import SimulationDeadlock, StopSimulation
from .events import Event, Timeout, all_of
from .process import Process
from .timerwheel import MIN_WHEEL_DELAY, TimerWheel


class Simulation:
    """A deterministic discrete-event simulation.

    Parameters
    ----------
    seed:
        Seed for the simulation-owned random generator.  Every run with the
        same seed and workload produces identical timelines.
    schedule:
        How items that share a timestamp are ordered.  ``None`` dispatches
        them FIFO, in the order they were scheduled.  An int seeds a
        permutation of them: each item draws random high bits over its
        FIFO sequence number, so the order among ties is shuffled while
        no item ever moves across a timestamp.  The schedule stream is
        separate from :attr:`rng`, so the model draws the same numbers.
    """

    def __init__(self, seed=0, schedule=None):
        self._now = 0.0
        self._heap = []
        counter = itertools.count(1)
        if schedule is None:
            self._tiebreak = counter.__next__
        else:
            draw = random.Random(schedule).getrandbits
            self._tiebreak = lambda: (draw(32) << 48) | next(counter)
        self._active_process = None
        self.rng = random.Random(seed)
        self._process_count = 0
        # Far-future timers are staged in a hierarchical wheel instead of
        # the heap; `_wheel_next` caches the earliest bucket boundary so
        # the hot loop pays one float compare per pop.
        self._wheel = TimerWheel()
        self._wheel_next = None
        self._orphans_skipped = 0
        self._ready_at_yield = 0
        self._peak_heap = 0
        # Analysis hook (repro.analysis): a ReplayRecorder hashes store
        # emissions.
        self.replay_recorder = None
        self._dispatched = 0
        # Unified telemetry hub (repro.telemetry imports nothing from
        # repro.*, so this is cycle-free).
        from repro.telemetry import Telemetry

        self.telemetry = Telemetry(self)

    # ------------------------------------------------------------------
    # Clock & scheduling
    # ------------------------------------------------------------------

    @property
    def now(self):
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self):
        """The process currently being stepped, if any."""
        return self._active_process

    def _schedule(self, event, delay):
        # ``delay`` is 0 or a Timeout's delay, which Timeout validated.
        seq = self._tiebreak()
        if delay >= MIN_WHEEL_DELAY:
            start = self._wheel.add(self._now + delay, seq, event, self._now)
            if self._wheel_next is None or start < self._wheel_next:
                self._wheel_next = start
            return
        heap = self._heap
        heapq.heappush(heap, (self._now + delay, seq, event))
        if len(heap) > self._peak_heap:
            self._peak_heap = len(heap)

    def _schedule_callback(self, fn):
        """Schedule a bare callable (used for late subscribers, interrupts);
        it rides the heap as a 1-tuple so dispatch tells it from an event."""
        heapq.heappush(self._heap, (self._now, self._tiebreak(), (fn,)))

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------

    def timeout(self, delay, value=None):
        """Event succeeding ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def all_of(self, events):
        """Event succeeding when all of ``events`` succeed."""
        return all_of(self, events)

    def process(self, generator, name=None):
        """Start a new process from ``generator`` and return it."""
        self._process_count += 1
        return Process(self, generator, name=name)

    # Alias that reads better at call sites spawning background work.
    spawn = process

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(self, until=None):
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a number
        (run until that simulated time), or an :class:`Event` (run until it
        triggers, returning its value).
        """
        stop_at = None
        stop_event = None
        if isinstance(until, Event):
            stop_event = until
            stop_event.add_callback(self._stop_callback)
        elif until is not None:
            stop_at = float(until)
            if stop_at < self._now:
                raise ValueError(f"until={stop_at} is in the past (now={self._now})")

        heap = self._heap
        try:
            while True:
                wheel_next = self._wheel_next
                if wheel_next is not None and \
                        (not heap or wheel_next <= heap[0][0]):
                    self._advance_wheel()
                if not heap:
                    if stop_at is not None:
                        self._now = stop_at
                    break
                when, _seq, item = heap[0]
                if stop_at is not None and when > stop_at:
                    self._now = stop_at
                    break
                heapq.heappop(heap)
                self._now = when
                self._dispatched += 1
                self._dispatch_ready(item)
        except StopSimulation as stop:
            event = stop.args[0]
            if not event.ok:
                event.defused = True
                raise event.value
            return event.value

        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationDeadlock(
                    "run(until=event): event never triggered and no events remain"
                )
            if not stop_event.ok:
                stop_event.defused = True
                raise stop_event.value
            return stop_event.value
        return None

    def _advance_wheel(self):
        """Flush due wheel buckets so the heap head is the global minimum.

        Loops because a flush can cancel orphans (leaving the heap empty)
        or cascade entries between levels; terminates since each pass
        strictly raises the earliest bucket boundary.
        """
        heap = self._heap
        wheel = self._wheel
        while True:
            upto = heap[0][0] if heap else self._wheel_next
            wheel.advance(upto, heap)
            wheel_next = wheel.earliest_boundary()
            self._wheel_next = wheel_next
            if wheel_next is None or (heap and wheel_next > heap[0][0]):
                break
        if len(heap) > self._peak_heap:
            self._peak_heap = len(heap)

    def _dispatch_ready(self, item):
        """Dispatch one popped item (event or bare callback): run the
        event's callbacks, skipping orphaned events.

        An event that is triggered-ok with zero callbacks left (e.g. an
        loser ``Timeout`` a settled condition detached from)
        would process as a pure no-op; marking it processed without the
        dispatch bookkeeping is observationally identical and cheaper.
        """
        if type(item) is tuple:
            item[0]()
            return
        callbacks = item.callbacks
        item.callbacks = None
        if callbacks:
            for callback in callbacks:
                callback(item)
        elif item._ok:
            self._orphans_skipped += 1
            return
        # "Undefused failures crash loudly": any failed event nobody
        # handled — not just a Process — stops the run.  A waiter (or a
        # Condition watching the event) defuses on delivery; a failure
        # with no observer is a bug in the workload, not background noise.
        if not item._ok and not item.defused:
            raise item._value

    @staticmethod
    def _stop_callback(event):
        raise StopSimulation(event)

    def peek(self):
        """Time of the next scheduled event, or ``None`` if none remain."""
        heap = self._heap
        wheel_next = self._wheel_next
        if wheel_next is not None and (not heap or wheel_next <= heap[0][0]):
            self._advance_wheel()
        return heap[0][0] if heap else None

    def kernel_stats(self):
        """Counters describing how the kernel executed (perf tooling)."""
        wheel = self._wheel
        return {
            "dispatched": self._dispatched,
            "peak_heap": self._peak_heap,
            "pending": len(self._heap) + len(wheel),
            "wheel_scheduled": wheel.staged,
            "timers_cancelled": wheel.cancelled,
            "orphans_skipped": self._orphans_skipped,
            "ready_at_yield": self._ready_at_yield,
        }

    def __repr__(self):
        pending = len(self._heap) + len(self._wheel)
        return f"<Simulation now={self._now:.6f} pending={pending}>"
