"""Token-bucket rate limiting (simulated-time aware).

Used in two places, as in real Kubernetes: client-side request throttling
(client-go QPS/burst) and server-side per-user admission before processing.
"""


class TokenBucket:
    """A token bucket over the simulation clock.

    ``qps`` tokens accrue per simulated second, up to ``burst``.
    """

    def __init__(self, sim, qps, burst=None, name="ratelimiter"):
        if qps <= 0:
            raise ValueError("qps must be positive")
        self.sim = sim
        self.name = name
        self.qps = float(qps)
        self.burst = float(burst if burst is not None else qps)
        self._tokens = self.burst
        self._last_refill = sim.now
        self.throttled_count = 0
        self.throttled_time = 0.0

    def _refill(self):
        now = self.sim.now
        elapsed = now - self._last_refill
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.qps)
            self._last_refill = now

    def delay_needed(self):
        """Seconds until a token would be available (0 when ready)."""
        self._refill()
        if self._tokens >= 1.0:
            return 0.0
        return (1.0 - self._tokens) / self.qps

    def acquire(self):
        """Process helper: wait (in simulated time) until a token is
        available, then take it.

        Usage: ``yield from bucket.acquire()``.
        """
        while True:
            delay = self.delay_needed()
            if delay <= 0:
                self._tokens -= 1.0
                return
            self.throttled_count += 1
            self.throttled_time += delay
            yield self.sim.timeout(delay)


class PerUserInflightLimiter:
    """API Priority & Fairness, simplified: a per-user inflight cap.

    The paper cites the upstream priority-and-fairness proposal as the
    community's partial answer to shared-apiserver interference; this
    implements its essential behaviour (no single user can occupy more
    than its share of the server's concurrency) so benchmarks can compare
    "shared apiserver + APF" against VirtualCluster's full isolation.
    """

    def __init__(self, sim, per_user_limit, name="apf"):
        from repro.simkernel.resources import Semaphore

        self.sim = sim
        self.per_user_limit = per_user_limit
        self.name = name
        self._semaphores = {}
        self._semaphore_factory = lambda user: Semaphore(
            sim, per_user_limit, name=f"{name}-{user}")

    def acquire(self, user):
        semaphore = self._semaphores.get(user)
        if semaphore is None:
            semaphore = self._semaphore_factory(user)
            self._semaphores[user] = semaphore
        return semaphore.acquire()

    def release(self, user):
        self._semaphores[user].release()


class MaxInflightLimiter:
    """Caps concurrently-processing requests, like apiserver max-inflight."""

    def __init__(self, sim, limit, name="max-inflight"):
        from repro.simkernel.resources import Semaphore

        self._semaphore = Semaphore(sim, limit, name=name)
        self.peak_in_use = 0

    def acquire(self):
        event = self._semaphore.acquire()
        if self._semaphore.in_use > self.peak_in_use:
            self.peak_in_use = self._semaphore.in_use
        return event

    def release(self):
        self._semaphore.release()
