"""Shared controller scaffolding (the Fig. 3 reconciler pattern).

A controller wires informer event handlers into a rate-limited work queue
and runs worker processes that drain it, invoking ``reconcile(key)`` —
reading state from informer caches, writing changes to the apiserver.
"""

from repro.apiserver.errors import ApiError, Conflict
from repro.clientgo import RateLimitingQueue
from repro.simkernel.errors import Interrupt


class Controller:
    """Base reconciler with a keyed work queue and N workers."""

    name = "controller"
    workers = 1

    def __init__(self, sim, client):
        self.sim = sim
        self.client = client
        self.queue = RateLimitingQueue(sim, name=f"{self.name}-queue")
        self.reconcile_count = 0
        self.error_count = 0
        self._stopped = False
        self._processes = []

    def enqueue(self, key):
        self.queue.add(key)

    def enqueue_object(self, obj):
        self.queue.add(obj.key)

    def start(self):
        # Restart-safe: a stopped controller re-opens its queue and
        # spawns fresh workers.
        self._stopped = False
        self.queue.restart()
        self._processes = []
        for index in range(self.workers):
            process = self.sim.spawn(
                self._worker(), name=f"{self.name}-worker-{index}")
            self._processes.append(process)
        return self._processes

    def stop(self):
        self._stopped = True
        self.queue.shutdown()
        for process in self._processes:
            process.interrupt(f"{self.name} stopped")

    def _worker(self):
        while not self._stopped:
            try:
                key, _enqueued_at = yield self.queue.get()
            except Interrupt:
                return
            except Exception:
                return
            try:
                yield from self.reconcile(key)
                self.queue.forget(key)
            except Interrupt:
                return
            except Conflict:
                # Stale cache: retry shortly, the informer will catch up.
                self.queue.add_rate_limited(key)
            except ApiError as exc:
                self.error_count += 1
                # Honor a server-provided Retry-After (APF shedding)
                # over the per-item exponential schedule.
                self.queue.add_rate_limited(
                    key, retry_after=getattr(exc, "retry_after", None))
            finally:
                self.reconcile_count += 1
                self.queue.done(key)

    def reconcile(self, key):
        """Coroutine: drive the object at ``key`` toward its desired state."""
        raise NotImplementedError
