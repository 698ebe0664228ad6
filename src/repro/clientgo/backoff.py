"""One jittered exponential backoff, shared by every retry loop.

Before this helper existed the repo carried three hand-rolled copies of
the same policy — the reflector's relist backoff, the rate-limiting work
queue's per-item retry delay, and the syncer watchdog's crash-loop
backoff — each with its own exponent cap and jitter convention.  They
all collapse onto :class:`JitteredBackoff`, and new clients (the leader
elector's acquire/renew retries) reuse it instead of adding a fourth.

All randomness comes from the RNG handed in (normally ``sim.rng``), so
delays stay deterministic per simulation seed.  Jitter is multiplicative
and one-sided: a computed delay ``d`` becomes ``d * (1 + jitter * U)``
with ``U ~ Uniform[0, 1)``, which decorrelates retry storms after a
shared failure without ever retrying *earlier* than the base policy.
"""


class JitteredBackoff:
    """Capped exponential backoff with deterministic, seeded jitter.

    Stateless use: ``delay(failures)`` maps a failure count to a delay
    (the work queue tracks failures per item).  Stateful use: ``next()``
    returns the delay for the current streak and advances it; ``reset()``
    clears the streak after a success.
    """

    __slots__ = ("rng", "base", "maximum", "jitter", "max_exponent",
                 "_failures")

    def __init__(self, rng, base, maximum, jitter=0.5, max_exponent=32):
        self.rng = rng
        self.base = base
        self.maximum = maximum
        self.jitter = jitter
        # Cap the exponent so 2**n can't overflow into silly floats long
        # after the delay has saturated at ``maximum`` anyway.
        self.max_exponent = max_exponent
        self._failures = 0

    def delay(self, failures):
        """The (jittered, capped) delay for the given failure streak."""
        exponent = min(failures, self.max_exponent)
        delay = min(self.base * (2 ** exponent), self.maximum)
        if self.jitter:
            delay *= 1.0 + self.jitter * self.rng.random()
        return delay

    def next(self):
        """Delay for the current streak, then lengthen the streak."""
        delay = self.delay(self._failures)
        self._failures += 1
        return delay

    def reset(self):
        self._failures = 0
