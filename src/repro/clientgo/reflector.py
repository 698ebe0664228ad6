"""Reflector: list+watch one resource type into a local cache.

Implements the client-go loop from the paper's Fig. 3: an initial LIST
seeds the cache and establishes the start revision, then a WATCH streams
changes.  On watch failure (apiserver restart, compacted revision) the
reflector relists — the exact behaviour whose cost the paper measures in
the syncer-restart experiment (§IV-C).

Relists back off exponentially with deterministic jitter (seeded from the
simulation RNG), so a down apiserver is not hammered at a fixed cadence
and a thundering herd of reflectors decorrelates after a shared outage.
A successful list resets the backoff.
"""

from repro.apiserver.errors import ApiError
from repro.simkernel.errors import Interrupt
from repro.simkernel.resources import ChannelClosed
from repro.storage.errors import RevisionCompacted
from repro.telemetry import telemetry_of

from .backoff import JitteredBackoff

ADDED = "ADDED"
MODIFIED = "MODIFIED"
DELETED = "DELETED"
SYNC = "SYNC"


class Reflector:
    """Drives list+watch and forwards events to a delegate.

    The delegate must expose ``on_replace(objs)`` and
    ``on_event(kind, obj)``.
    """

    # Relist backoff: doubling from ``relist_backoff`` up to
    # ``max_relist_backoff`` seconds, stretched by up to ``backoff_jitter``.
    relist_backoff = 1.0
    max_relist_backoff = 30.0
    backoff_jitter = 0.5

    def __init__(self, sim, client, plural, delegate, field_selector=None):
        self.sim = sim
        self.client = client
        self.plural = plural
        self.delegate = delegate
        self.field_selector = field_selector
        self._backoff = JitteredBackoff(sim.rng, self.relist_backoff,
                                        self.max_relist_backoff,
                                        jitter=self.backoff_jitter,
                                        max_exponent=16)
        self.has_synced = False
        self.list_count = 0
        self.watch_failures = 0
        telemetry = telemetry_of(sim)
        self._lists_counter = telemetry.counter(
            "reflector_lists_total", "reflector relists",
            labels=("resource",)).labels(resource=plural)
        self._watch_failures_counter = telemetry.counter(
            "reflector_watch_failures_total", "broken/compacted watches",
            labels=("resource",)).labels(resource=plural)
        self._consecutive_failures = 0
        self._retry_after_hint = None
        self._stopped = False
        self._stream = None
        self._process = None

    def start(self):
        self._process = self.sim.spawn(self.run(),
                                       name=f"reflector-{self.plural}")
        return self._process

    def stop(self):
        self._stopped = True
        if self._stream is not None:
            self._stream.stop()
            self._stream = None
        if self._process is not None:
            self._process.interrupt("reflector stopped")

    def next_backoff(self):
        """Delay before the next relist attempt.

        A server-provided Retry-After hint (APF shedding, 429) overrides
        the jittered exponential schedule: the server knows its queue
        pressure better than the client's failure count does.  One-sided
        jitter still applies so shed reflectors don't relist in lockstep.
        """
        hint = self._retry_after_hint
        self._retry_after_hint = None
        if hint:
            return hint * (1.0 + self._backoff.jitter * self.sim.rng.random())
        return self._backoff.delay(self._consecutive_failures)

    def run(self):
        """The list-then-watch loop."""
        try:
            while not self._stopped:
                try:
                    items, revision = yield from self.client.list(
                        self.plural, field_selector=self.field_selector)
                    self.list_count += 1
                    self._lists_counter.inc()
                    self._consecutive_failures = 0
                    self.delegate.on_replace(items)
                    self.has_synced = True
                    self._stream = self.client.watch(
                        self.plural, from_revision=int(revision),
                        field_selector=self.field_selector)
                    yield from self._consume(self._stream)
                except (ChannelClosed, RevisionCompacted):
                    self.watch_failures += 1
                    self._watch_failures_counter.inc()
                    self._consecutive_failures += 1
                except ApiError as exc:
                    self.watch_failures += 1
                    self._watch_failures_counter.inc()
                    self._consecutive_failures += 1
                    self._retry_after_hint = getattr(exc, "retry_after",
                                                     None)
                finally:
                    # Never leave a dangling stream registered with the
                    # apiserver/store across relists or interrupts.
                    if self._stream is not None:
                        self._stream.stop()
                        self._stream = None
                if self._stopped:
                    return
                yield self.sim.timeout(self.next_backoff())
        except Interrupt:
            return
        finally:
            if self._stream is not None:
                self._stream.stop()
                self._stream = None

    def _consume(self, stream):
        while not self._stopped:
            kind, obj = yield from stream.next()
            self.delegate.on_event(kind, obj)
