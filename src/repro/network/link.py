"""Simulated WAN/edge uplinks: added latency, jitter, and loss.

The paper's evaluation assumes every node sits next to the super
cluster; the multitenant edge-CaaS line of work (Şenel et al., 2023 in
PAPERS.md) does not — edge sites reach the control plane over
high-latency, lossy links.  :class:`NetworkLink` models one such uplink
as a client-side traversal cost: every API request from a component
behind the link pays ``latency`` (+ uniform ``jitter``) seconds of
round-trip delay and is dropped with probability ``loss``.  A drop
surfaces as :class:`~repro.apiserver.errors.ServerUnavailable`, which
the typed client classifies as retryable — so packet loss shows up as
retransmit latency and backoff pressure, exactly like a flaky WAN.

All randomness comes from a dedicated ``random.Random(seed)`` owned by
the link, so two same-seed runs traverse identically; nothing here
reads wall clock or global RNG state.  One link is typically shared by
every node of an edge site (the site uplink), which also keeps the
draw sequence independent of how many components sit behind it at
construction time.
"""

import random

from repro.apiserver.errors import ServerUnavailable
from repro.telemetry import telemetry_of


class NetworkLink:
    """One uplink profile shared by the clients attached to it.

    Parameters
    ----------
    sim:
        The owning simulation (timeouts come from its clock).
    latency:
        One-way-ish added delay per request, in simulated seconds.
    jitter:
        Extra uniform [0, jitter] delay per request.
    loss:
        Per-request drop probability in [0, 1).  Dropped requests raise
        :class:`ServerUnavailable`; the client retries with backoff.
    seed:
        Seed for the link-owned RNG (required whenever jitter or loss
        is non-zero, so draws never touch global randomness).
    """

    def __init__(self, sim, latency=0.0, jitter=0.0, loss=0.0, seed=0,
                 name="link"):
        if latency < 0 or jitter < 0:
            raise ValueError(f"{name}: latency/jitter must be >= 0")
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"{name}: loss must be in [0, 1), got {loss}")
        self.sim = sim
        self.name = name
        self.latency = latency
        self.jitter = jitter
        self.loss = loss
        self.rng = random.Random(seed)
        self.trips = 0
        self.dropped = 0
        telemetry = telemetry_of(sim)
        self._trips_counter = telemetry.counter(
            "link_trips_total", "requests traversing a simulated uplink",
            labels=("link",)).labels(link=name)
        self._drops_counter = telemetry.counter(
            "link_drops_total", "requests dropped on a simulated uplink",
            labels=("link",)).labels(link=name)

    # ------------------------------------------------------------------
    # Traversal hooks (called by repro.clientgo.client.Client)
    # ------------------------------------------------------------------

    def traverse(self):
        """Coroutine: pay the link delay, then maybe drop the request."""
        delay = self.latency + (self.rng.uniform(0.0, self.jitter)
                                if self.jitter else 0.0)
        if delay > 0.0:
            yield self.sim.timeout(delay)
        self._maybe_drop()
        self.trips += 1
        self._trips_counter.inc()

    def check(self):
        """Synchronous loss check (watch registration has no yield point)."""
        self._maybe_drop()
        self.trips += 1
        self._trips_counter.inc()

    def _maybe_drop(self):
        if self.loss and self.rng.random() < self.loss:
            self.dropped += 1
            self._drops_counter.inc()
            raise ServerUnavailable(f"{self.name}: packet lost on uplink")

    def describe(self):
        return (f"{self.name}: +{self.latency * 1000:g}ms"
                f"(+U[0,{self.jitter * 1000:g}]ms) loss={self.loss:g}")

    def __repr__(self):
        return f"<NetworkLink {self.describe()}>"
