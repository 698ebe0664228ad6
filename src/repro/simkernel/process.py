"""Generator-based simulated processes.

A process is a Python generator that yields :class:`~repro.simkernel.events.Event`
objects; the kernel resumes the generator when the yielded event fires.  The
process object itself is an event that triggers when the generator returns
(success, with the return value) or raises (failure).
"""

from .errors import Interrupt
from .events import _PENDING, Event


class Process(Event):
    """Wraps a generator and drives it through the event loop."""

    def __init__(self, sim, generator, name=None):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError(f"process body must be a generator, got {generator!r}")
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on = None
        # Kick off the process at the current simulation time.
        init = Event(sim)
        init._ok = True
        init._value = None
        sim._schedule(init, 0)
        init.add_callback(self._resume)

    @property
    def is_alive(self):
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause=None):
        """Raise :class:`Interrupt` inside the process at the current time.

        Interrupting a finished process is a no-op.
        """
        if self.triggered:
            return
        self.sim._schedule_callback(lambda: self._throw_interrupt(cause))

    def _throw_interrupt(self, cause):
        if self.triggered:
            return
        waited = self._waiting_on
        if waited is not None:
            # Detach: the interrupted wait must not resume the process later.
            waited._detach(self._resume)
        self._waiting_on = None
        self._step(Interrupt(cause), throw=True)

    def _resume(self, event):
        self._waiting_on = None
        if event._ok:
            self._step(event._value, False)
        else:
            event.defused = True
            self._step(event._value, True)

    def _step(self, value, throw):
        sim = self.sim
        generator = self._generator
        prev = sim._active_process
        sim._active_process = self
        try:
            while True:
                if throw:
                    target = generator.throw(value)
                else:
                    target = generator.send(value)
                if not isinstance(target, Event):
                    generator.close()
                    raise TypeError(f"process {self.name!r} yielded "
                                    f"{target!r}; expected an Event")
                # A processed success (a resolved result) is already
                # there: resume inline instead of a zero-delay dispatch.
                if target.callbacks is not None or not target._ok:
                    break
                value = target._value
                throw = False
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as exc:
            if not isinstance(exc, Exception):
                raise
            self.fail(exc)
            return
        finally:
            sim._active_process = prev

        if target._value is not _PENDING and type(target) is Event:
            # Triggered, not processed: a result that was ready but still
            # costs a dispatch (kernel_stats()["ready_at_yield"]).
            sim._ready_at_yield += 1
        self._waiting_on = target
        target.add_callback(self._resume)

    def _finish(self, value):
        """Succeed with the return value.  With nobody waiting the
        dispatch would be a no-op, so the process is marked processed
        on the spot and counted as a skipped orphan; a later ``yield``
        of it resumes inline and a late callback still runs."""
        if self.callbacks:
            self.succeed(value)
            return
        self._ok = True
        self._value = value
        self.callbacks = None
        self.sim._orphans_skipped += 1

    def __repr__(self):
        return f"<Process {self.name!r} alive={self.is_alive}>"
