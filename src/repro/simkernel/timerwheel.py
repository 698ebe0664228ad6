"""Hierarchical timer wheel staging far-future timers off the event heap.

A discrete-event run schedules far more timers than it dispatches "soon":
reflector relists, heartbeats, APF ``queue_wait`` watchdogs and lease
renewals all sit in the ready heap for a long time, paying O(log n) on
every unrelated push/pop.  The wheel (Varghese & Lauck's hashed
hierarchical wheel) stages those timers in O(1) buckets and only feeds
them to the heap when their bucket comes due.

Correctness invariant — *the wheel never changes dispatch order*: every
entry keeps its original ``(time, seq)`` heap key, and
:meth:`TimerWheel.advance` flushes every bucket that could contain an
entry at or before the heap head **before** the loop pops it.  Once
``advance(upto)`` returns, all staged entries strictly after ``upto``
remain in the wheel and everything else is in the heap, so the heap head
is the global minimum and dispatch order is provably identical to a
heap-only kernel.

Cancellation rides along for free: an entry whose event was orphaned
(triggered-ok with every callback detached — e.g. a loser ``Timeout``
of a settled condition) is dropped at flush time instead of ever
entering the heap, which is where the heap-occupancy win of orphan
cancellation comes from.
"""

import heapq

# Bucket granularity of level 0 in simulated seconds, and the fan-out
# between levels.  With SPAN=64 the three levels cover delays of up to
# 0.25*64^3 s ≈ 18h; anything longer lands in the top level's overflow
# buckets (still O(1), just coarser).
GRANULARITY = 0.25
SPAN = 64
LEVELS = 3

# Delays below this go straight to the heap: they are about to fire
# anyway, and near timers dominate the workload.
MIN_WHEEL_DELAY = GRANULARITY


class TimerWheel:
    """Stages ``(time, seq, event)`` entries in hierarchical buckets."""

    __slots__ = ("_levels", "_count", "staged", "cancelled")

    def __init__(self):
        # One dict per level: bucket index -> list of (time, seq, event).
        # Dicts (not preallocated rings) keep sparse far-future schedules
        # cheap and make "earliest nonempty bucket" a min() over keys.
        self._levels = [{} for _ in range(LEVELS)]
        self._count = 0
        self.staged = 0      # entries ever staged (stats)
        self.cancelled = 0   # orphaned entries dropped at flush (stats)

    def __len__(self):
        return self._count

    def add(self, when, seq, event, now):
        """Stage one entry; returns its bucket's start time.

        Caller guarantees ``when - now >= MIN_WHEEL_DELAY``.
        """
        self._count += 1
        self.staged += 1
        return self._place(when, seq, event, now)

    def _place(self, when, seq, event, now):
        delay = when - now
        granularity = GRANULARITY
        top = LEVELS - 1
        for level in range(LEVELS):
            if level == top or delay < granularity * SPAN:
                bucket = int(when / granularity)
                self._levels[level].setdefault(bucket, []).append(
                    (when, seq, event))
                return bucket * granularity
            granularity *= SPAN

    def earliest_boundary(self):
        """Start time of the earliest nonempty bucket, or ``None``.

        Any staged entry fires at or after this time, so the heap head is
        the global minimum whenever it is <= this boundary.
        """
        earliest = None
        granularity = GRANULARITY
        for level in self._levels:
            if level:
                start = min(level) * granularity
                if earliest is None or start < earliest:
                    earliest = start
            granularity *= SPAN
        return earliest

    def advance(self, upto, heap):
        """Flush every bucket starting at or before ``upto`` into ``heap``.

        Higher-level buckets cascade: their entries are re-placed by
        remaining delay, so an 90-minute timer steps level 2 -> level 1 ->
        level 0 -> heap as its deadline approaches, each hop O(1).
        Orphaned entries (event triggered-ok with zero callbacks left) are
        dropped here — they would dispatch as no-ops anyway.
        """
        granularity = GRANULARITY
        for index, level in enumerate(self._levels):
            if level:
                due = [b for b in level if b * granularity <= upto]
                for bucket in due:
                    for when, seq, event in level.pop(bucket):
                        self._count -= 1
                        callbacks = event.callbacks
                        if event._ok and callbacks is not None \
                                and not callbacks:
                            # Orphan: cancel instead of feeding the heap.
                            event.callbacks = None
                            self.cancelled += 1
                            continue
                        if index and when - upto >= MIN_WHEEL_DELAY:
                            # Cascade down by remaining delay.
                            self._place(when, seq, event, upto)
                            self._count += 1
                        else:
                            heapq.heappush(heap, (when, seq, event))
            granularity *= SPAN
