"""API Priority & Fairness admission for the super apiserver (DESIGN.md §15).

At real fleet density the super apiserver is the shared choke point:
most tenants are idle, a few are abusive, and a single concurrency cap
would degrade everyone equally when it saturates.  This module, the
apiserver's only admission mechanism, reproduces the shape of Kubernetes
API Priority & Fairness:

- **Classification** — a :class:`FlowClassifier` maps each request's
  credential to a *tier* (``system``/``platinum``/``standard``/``free``)
  and a *flow* (the tenant identity), the FlowSchema role.
- **Priority levels** — each tier owns a share of the apiserver's seat
  pool (:class:`~repro.config.ApfConfig`), may *borrow* idle seats from
  the shared pool up to a cap, and ``exempt`` levels (system traffic)
  bypass seats entirely.
- **Shuffle-shard fair queues** — inside a level, flows are dealt a
  deterministic *hand* of queues (crc32-dealt, like upstream shuffle
  sharding); an over-active flow can only poison its own hand while
  other flows' queues keep draining round-robin.
- **Bounded wait + shedding** — queued requests wait at most the
  level's ``queue_wait`` (with a deterministic per-ticket jitter so
  expiry storms don't synchronize); overflow and timeout both surface
  as a structured 429 :class:`~repro.apiserver.errors.TooManyRequests`
  whose ``retry_after`` hint scales with queue pressure.  The clientgo
  stack honors the hint instead of blind exponential retry.

Everything is deterministic per seed: queue dealing and jitter derive
from crc32 streams, dispatch order is fixed.
"""

import random
import zlib

from repro.telemetry import telemetry_of

from .errors import TooManyRequests

#: Wake/queue priority rank per tier (lower wakes first).
TIER_RANK = {"system": 0, "platinum": 1, "standard": 2, "free": 3}

#: Tiers a tenant may declare.  ``system`` is reserved for
#: infrastructure credentials and is not assignable to a tenant.
TENANT_TIERS = ("platinum", "standard", "free")

_QUEUED = "queued"
_ADMITTED = "admitted"
_REJECTED = "rejected"
_RELEASED = "released"


class FlowClassifier:
    """Maps request credentials to (tier, flow) — the FlowSchema role.

    Resolution order: explicit per-user assignment, then the built-in
    system rule (``system:masters`` and ``system:*`` users are
    control-plane infrastructure), then the default tier.
    """

    def __init__(self, default_tier="standard"):
        self.default_tier = default_tier
        self._users = {}

    def assign(self, user, tier):
        """Pin one user (e.g. ``tenant-acme``) to a tier."""
        self._users[user] = tier

    def tier_of(self, credential):
        tier = self._users.get(credential.user)
        if tier is not None:
            return tier
        if "system:masters" in credential.groups or \
                credential.user.startswith("system:"):
            return "system"
        return self.default_tier

    def flow_of(self, credential):
        """The fairness flow: one per tenant identity."""
        return credential.user


class Ticket:
    """One admission grant (or pending grant) issued by the limiter."""

    __slots__ = ("level", "state", "event", "queued_at", "seq")

    def __init__(self, level, seq):
        self.level = level
        self.seq = seq
        self.state = _QUEUED
        self.event = None
        self.queued_at = None


class PriorityLevel:
    """Runtime state of one tier's priority level."""

    def __init__(self, spec, seats, borrow_cap):
        self.spec = spec
        self.name = spec.name
        self.seats = seats            # nominal concurrency share
        self.borrow_cap = borrow_cap  # hard per-level occupancy cap
        self.in_use = 0
        self.waiting = 0
        self.queues = [[] for _ in range(spec.queues)]
        self._cursor = 0              # round-robin dispatch cursor
        self._hands = {}              # flow -> dealt queue indices

    def hand_for(self, flow, shuffle_seed):
        """Deterministic shuffle-shard dealing: crc32 draws without
        replacement, memoized per flow."""
        hand = self._hands.get(flow)
        if hand is None:
            avail = list(range(len(self.queues)))
            digest = zlib.crc32(
                f"{shuffle_seed}:{self.name}:{flow}".encode("utf-8"))
            hand = []
            for _ in range(min(self.spec.hand_size, len(avail))):
                digest = zlib.crc32(digest.to_bytes(4, "big"), digest)
                hand.append(avail.pop(digest % len(avail)))
            self._hands[flow] = hand
        return hand

    def shortest_queue(self, flow, shuffle_seed):
        """The least-loaded queue of the flow's hand (ties: lowest index)."""
        best = None
        for index in self.hand_for(flow, shuffle_seed):
            depth = len(self.queues[index])
            if best is None or depth < best[0]:
                best = (depth, index)
        return best[1]

    def pop_next(self):
        """Next live queued ticket, round-robin across queues.

        Skips expired tickets and dead waiters (a process interrupted
        while queued detaches from its event; seating it would leak the
        seat forever — same hazard as the workqueue's dead waiters).
        """
        for _ in range(len(self.queues)):
            queue = self.queues[self._cursor]
            self._cursor = (self._cursor + 1) % len(self.queues)
            while queue:
                ticket = queue.pop(0)
                if ticket.state != _QUEUED:
                    continue
                if not ticket.event.callbacks:
                    ticket.state = _REJECTED
                    self.waiting -= 1
                    continue
                return ticket
        return None


class APFLimiter:
    """Priority-and-fairness seat allocator for one apiserver.

    ``acquire`` is a coroutine: it returns an admitted :class:`Ticket`
    (possibly after a bounded queue wait) or raises
    :class:`TooManyRequests` with a pressure-scaled Retry-After hint.
    Callers must pair every admitted ticket with :meth:`release`.
    """

    def __init__(self, sim, config, name="apf"):
        self.sim = sim
        self.config = config
        self.name = name
        self.classifier = FlowClassifier(config.default_tier)
        share_sum = sum(t.shares for t in config.tiers if not t.exempt)
        self.levels = {}
        for spec in config.tiers:
            if spec.exempt:
                seats = 0
                cap = 0
            else:
                seats = max(1, round(config.total_seats
                                     * spec.shares / share_sum))
                cap = min(config.total_seats,
                          max(seats, int(seats * spec.borrow_cap_factor)))
            self.levels[spec.name] = PriorityLevel(spec, seats, cap)
        self.total_seats = config.total_seats
        self.total_in_use = 0
        self.exempt_in_use = 0
        self._seq = 0
        # Deterministic jitter stream for queue-wait deadlines; seeded
        # from the config's shuffle seed, independent of sim.rng so
        # enabling APF never perturbs unrelated draws.
        self._jitter_rng = random.Random(
            zlib.crc32(f"apf:{name}:{config.shuffle_seed}".encode("utf-8")))
        telemetry = telemetry_of(sim)
        self._rejected_total = telemetry.counter(
            "apf_rejected_total", "requests shed by APF admission",
            labels=("level", "reason"))
        self._admitted_total = telemetry.counter(
            "apf_admitted_total", "requests admitted by APF",
            labels=("level",))
        self._queue_wait = telemetry.histogram(
            "apf_queue_wait_seconds", "APF queue wait of admitted requests",
            labels=("level",))

    # ------------------------------------------------------------------
    # Acquire / release
    # ------------------------------------------------------------------

    def level_of(self, credential):
        tier = self.classifier.tier_of(credential)
        level = self.levels.get(tier)
        if level is None:
            level = self.levels[self.config.default_tier]
        return level

    def acquire(self, credential):
        """Coroutine: admit, queue, or shed one request."""
        level = self.level_of(credential)
        self._seq += 1
        ticket = Ticket(level, self._seq)

        if level.spec.exempt:
            ticket.state = _ADMITTED
            self.exempt_in_use += 1
            self._admitted_total.labels(level=level.name).inc()
            return ticket

        if level.waiting == 0 and self._can_admit(level):
            self._seat(level, ticket)
            return ticket

        index = level.shortest_queue(self.classifier.flow_of(credential),
                                     self.config.shuffle_seed)
        queue = level.queues[index]
        if len(queue) >= level.spec.queue_limit:
            self._rejected_total.labels(
                level=level.name, reason="queue-full").inc()
            raise TooManyRequests(
                f"{self.name}: {level.name} queue {index} full",
                retry_after=self._retry_after(level))
        from repro.simkernel.events import Event

        ticket.event = Event(self.sim)
        ticket.queued_at = self.sim.now
        queue.append(ticket)
        level.waiting += 1
        self.sim.spawn(self._expire(ticket),
                       name=f"{self.name}-expire-{ticket.seq}")
        yield ticket.event
        # Dispatch (not expiry) seated the ticket before succeeding the
        # event; record how long fairness queuing held it.
        self._queue_wait.labels(level=level.name).observe(
            self.sim.now - ticket.queued_at)
        return ticket

    def release(self, ticket):
        if ticket.state != _ADMITTED:
            raise RuntimeError(
                f"{self.name}: release of {ticket.state} ticket")
        ticket.state = _RELEASED
        level = ticket.level
        if level.spec.exempt:
            self.exempt_in_use -= 1
            return
        level.in_use -= 1
        self.total_in_use -= 1
        self._dispatch()

    # ------------------------------------------------------------------
    # Seat accounting
    # ------------------------------------------------------------------

    def _can_admit(self, level):
        return (level.in_use < level.borrow_cap
                and self.total_in_use < self.total_seats)

    def _seat(self, level, ticket):
        ticket.state = _ADMITTED
        level.in_use += 1
        self.total_in_use += 1
        self._admitted_total.labels(level=level.name).inc()

    def _dispatch(self):
        """Hand one freed seat to a waiter, if any can take it.

        Starved-first: levels still under their nominal share are served
        before levels that would be borrowing, both in fixed tier order —
        so sustained saturation converges every level to its share, and
        no nonempty queue starves while seats keep turning over.
        """
        candidate = None
        for level in self.levels.values():
            if level.spec.exempt or level.waiting == 0:
                continue
            if not self._can_admit(level):
                continue
            if level.in_use < level.seats:
                candidate = level
                break
            if candidate is None:
                candidate = level
        if candidate is None:
            return
        ticket = candidate.pop_next()
        if ticket is None:
            # Queues held only expired tickets or dead waiters
            # (pop_next already fixed the waiting count).
            return
        candidate.waiting -= 1
        self._seat(candidate, ticket)
        ticket.event.succeed()

    # ------------------------------------------------------------------
    # Shedding
    # ------------------------------------------------------------------

    def _expire(self, ticket):
        """Watchdog: bound the ticket's queue wait (seeded jitter keeps
        simultaneous expiries from synchronizing)."""
        wait = (ticket.level.spec.queue_wait
                * (1.0 + 0.25 * self._jitter_rng.random()))
        yield self.sim.timeout(wait)
        if ticket.state != _QUEUED:
            return
        ticket.state = _REJECTED
        level = ticket.level
        level.waiting -= 1
        if not ticket.event.callbacks:
            # The waiter was interrupted while queued; nothing listens,
            # and failing the event would crash the sim as undefused.
            return
        self._rejected_total.labels(
            level=level.name, reason="timeout").inc()
        ticket.event.fail(TooManyRequests(
            f"{self.name}: {level.name} queue wait exceeded "
            f"{level.spec.queue_wait:.2f}s",
            retry_after=self._retry_after(level)))

    def _retry_after(self, level):
        """Pressure-scaled Retry-After hint (deterministic; clients add
        their own jitter)."""
        capacity = max(1, len(level.queues) * level.spec.queue_limit)
        hint = (self.config.retry_after_base
                * (1.0 + 4.0 * level.waiting / capacity))
        return min(round(hint, 4), self.config.retry_after_max)
