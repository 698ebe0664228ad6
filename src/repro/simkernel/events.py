"""Event primitives for the discrete-event simulation kernel.

The design follows the classic SimPy model: an :class:`Event` is a one-shot
condition that processes can wait on by ``yield``-ing it.  An event is
*triggered* when it has been scheduled with an outcome (success or failure)
and *processed* once its callbacks have run.
"""

from .errors import EventAlreadyTriggered

_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait for.

    Events carry a value (delivered to waiters on success) or an exception
    (raised inside waiters on failure).
    """

    def __init__(self, sim):
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        # A failed event whose exception was delivered to a waiter is
        # "defused"; undefused failures crash the simulation loudly instead
        # of passing silently.
        self.defused = False

    @property
    def triggered(self):
        """True once the event has an outcome (it may not be processed yet)."""
        return self._value is not _PENDING

    @property
    def processed(self):
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self):
        """True if the event succeeded. Only meaningful once triggered."""
        return self._ok

    @property
    def value(self):
        """The event outcome (value or exception)."""
        if self._value is _PENDING:
            raise AttributeError("event not yet triggered")
        return self._value

    def succeed(self, value=None, delay=0):
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise EventAlreadyTriggered(repr(self))
        self._ok = True
        self._value = value
        self.sim._schedule(self, delay)
        return self

    def fail(self, exception, delay=0):
        """Trigger the event with an exception to be raised in waiters."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self.triggered:
            raise EventAlreadyTriggered(repr(self))
        self._ok = False
        self._value = exception
        self.sim._schedule(self, delay)
        return self

    def add_callback(self, callback):
        """Register ``callback(event)`` to run when the event is processed."""
        if self.callbacks is None:
            # Already processed: run inline via an immediate scheduling so
            # late subscribers still observe the outcome.
            self.sim._schedule_callback(lambda: callback(self))
        else:
            self.callbacks.append(callback)

    def _detach(self, callback):
        """Remove a registered callback (no-op if absent or processed).

        A triggered-ok event whose last callback is detached becomes an
        *orphan*: the loop skips its dispatch and the timer wheel drops it
        before it ever reaches the heap (see ``Simulation.run``).
        """
        callbacks = self.callbacks
        if callbacks is not None:
            try:
                callbacks.remove(callback)
            except ValueError:
                return
            if not callbacks and self._value is not _PENDING \
                    and not self._ok:
                # Detaching is a deliberate abandonment of the wait: when
                # the last observer of an already-failed event walks away
                # (e.g. a worker interrupted while blocked on a queue the
                # shutdown just failed), the failure counts as handled —
                # it must not crash the loop as undefused.
                self.defused = True

    def _process(self):
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)

    def __repr__(self):
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that succeeds after a fixed simulated delay."""

    def __init__(self, sim, delay, value=None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim._schedule(self, delay)


class Condition(Event):
    """Waits for a combination of other events.

    ``evaluate`` receives (events, n_triggered_ok) and returns True once the
    condition holds.  On success the condition's value is a dict mapping each
    triggered event to its value.  The condition fails as soon as any
    constituent event fails.
    """

    def __init__(self, sim, events, evaluate):
        super().__init__(sim)
        self._events = list(events)
        self._evaluate = evaluate
        self._count = 0
        self._fired = []
        for event in self._events:
            if event.sim is not sim:
                raise ValueError("events from different simulations")
        if not self._events and not self.triggered:
            self.succeed({})
            return
        for event in self._events:
            event.add_callback(self._on_event)

    def _on_event(self, event):
        if self.triggered:
            # The condition already has an outcome.  A late-succeeding
            # constituent (an any_of loser) is irrelevant; a late *failure*
            # must NOT be swallowed here — leave it undefused so the loop's
            # undefused-failure check surfaces it, unless another waiter
            # handles it first ("undefused failures crash loudly").
            return
        detector = self.sim.race_detector
        if detector is not None:
            # Accumulate every constituent event's stamp: a waiter on
            # all_of(...) happens-after each of its events, not only the
            # one whose dispatch finally triggers the condition.
            self._race_acc = detector.merge_stamps(
                getattr(self, "_race_acc", None), detector.context_stamp())
        if not event.ok:
            event.defused = True
            self.fail(event.value)
            self._detach_settled()
            return
        self._count += 1
        self._fired.append(event)
        if self._evaluate(self._events, self._count):
            self.succeed({ev: ev.value for ev in self._fired})
            self._detach_settled()

    def _detach_settled(self):
        """Drop our callback from constituents that can no longer matter.

        Once the condition has an outcome, a constituent that already
        *succeeded* can never affect it again — detaching orphans pending
        any_of-loser Timeouts so the loop/timer wheel can skip them instead
        of carrying them in the heap until their deadline.  Constituents
        that have not triggered yet keep the callback: they may still
        *fail*, and that failure must stay observable.
        """
        for ev in self._events:
            if ev.triggered and ev._ok:
                ev._detach(self._on_event)


def any_of(sim, events):
    """Condition that succeeds when at least one event succeeds."""
    return Condition(sim, events, lambda events, count: count >= 1)


def all_of(sim, events):
    """Condition that succeeds when every event succeeds."""
    return Condition(sim, events, lambda events, count: count == len(events))
