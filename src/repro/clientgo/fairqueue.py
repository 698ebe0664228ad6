"""Fair work queue: per-tenant lanes + weighted round-robin, in shards.

The paper (§III-C) extends the standard client-go worker queue with per
tenant sub-queues and weighted round-robin dispatch so that one greedy
tenant's burst cannot starve regular tenants (evaluated in Fig. 11).

Items are ``(tenant, key)`` pairs.  Dedup semantics match
:class:`~repro.clientgo.workqueue.WorkQueue`: a pending item is not
enqueued twice, and an item re-added while being processed is re-queued
once its worker calls :meth:`FairWorkQueue.done`.

Tenants are routed once, by ``shard_hash(tenant) % shards``, to one of
``shards`` independent dispatch paths; each shard runs WRR over the
lanes of exactly the tenants it hosts, and ``get(shard)`` serves only
that shard.  One shard is the paper's single serialized queue.

With ``fair=False`` every tenant of a shard shares that shard's single
lane; WRR over one lane is FIFO — the configuration used for the
Fig. 11(b) comparison.
"""

import zlib
from collections import defaultdict

from repro.simkernel.events import Event, resolved
from repro.telemetry import ChildCache, telemetry_of

from .workqueue import ShutDown


def shard_hash(tenant):
    """Stable (process-independent) tenant hash for shard routing.

    Requires a ``str``: ``str()`` of an arbitrary object falls back to
    the default repr — which embeds a memory address — so routing would
    silently differ across processes (linter rule D006).  crc32 over the
    tenant name's UTF-8 bytes is identical in every process.
    """
    if not isinstance(tenant, str):
        raise TypeError(
            f"shard_hash needs the tenant name as str, "
            f"got {type(tenant).__name__}")
    return zlib.crc32(tenant.encode("utf-8"))


class _Lane:
    """One WRR participant: pending ``(tenant, key)`` items plus credits."""

    __slots__ = ("shard", "items", "weight", "credits")

    def __init__(self, shard, weight):
        self.shard = shard
        self.items = []
        self.weight = weight
        self.credits = weight


class _Shard:
    """One dispatch path: lanes in WRR order, the cursor, blocked
    ``get(shard)`` waiters and the shard's registry children."""

    def __init__(self, label, families):
        adds, deduped, dispatch, wait = families
        self.lanes = []
        self.cursor = 0
        self.depth = 0
        self.waiters = []
        self.adds = adds.labels(queue=label)
        self.deduped = deduped.labels(queue=label)
        self.dispatched = ChildCache(
            lambda tenant: dispatch.labels(queue=label, tenant=tenant))
        self.wait_hist = wait.labels(queue=label)

    def pop_live_waiter(self):
        """Next waiter event that still has a process listening; a worker
        interrupted while blocked in ``get()`` leaves a dead event behind,
        and dispatching to it would strand the item as processing."""
        while self.waiters:
            event = self.waiters.pop(0)
            if event.callbacks:
                return event
        return None


class FairWorkQueue:
    """Sharded WRR multi-queue with client-go dedup semantics.

    Dedup state (dirty, processing, enqueue times) is held once for the
    whole queue: an item can only ever live on its tenant's shard, so
    this is exact.
    """

    # The WRR weight of a tenant registered without one.
    default_weight = 1

    def __init__(self, sim, name="fair-queue", shards=1, fair=True):
        self.sim = sim
        self.name = name
        self.fair = fair
        self.num_shards = max(1, int(shards))
        self._lanes = {}  # tenant -> its lane (shared per shard if unfair)
        self._dirty = set()
        self._processing = set()
        self._enqueue_times = {}
        self._shutdown = False
        self.added_total = 0
        self.deduped_total = 0
        self.wait_time_by_tenant = defaultdict(float)
        telemetry = telemetry_of(sim)
        families = (
            telemetry.counter(
                "fairqueue_adds_total",
                "fair-queue adds (dedup hits included)", labels=("queue",)),
            telemetry.counter(
                "fairqueue_deduped_total", "adds absorbed by dedup",
                labels=("queue",)),
            telemetry.counter(
                "fairqueue_dispatch_total", "items dispatched per tenant",
                labels=("queue", "tenant")),
            telemetry.histogram(
                "fairqueue_wait_seconds", "time queued before dispatch",
                labels=("queue",)),
        )
        self._shards = [_Shard(f"{name}-shard{i}", families)
                        for i in range(self.num_shards)]

    # ------------------------------------------------------------------
    # Tenant management
    # ------------------------------------------------------------------

    def shard_of(self, tenant):
        """The shard index serving ``tenant``."""
        return shard_hash(tenant) % self.num_shards

    def register_tenant(self, tenant, weight=None):
        """Route the tenant to its shard's lane (idempotent).

        ``weight=None`` means the queue default; an explicit weight must
        be positive — a zero-weight tenant would never be served and a
        negative one would wedge the WRR credit loop.
        """
        if weight is not None and weight <= 0:
            raise ValueError(
                f"{self.name}: tenant weight must be positive, "
                f"got {weight!r} for {tenant!r}")
        lane = self._lanes.get(tenant)
        if lane is None:
            shard = self._shards[self.shard_of(tenant)]
            if self.fair or not shard.lanes:
                shard.lanes.append(_Lane(
                    shard, weight if weight is not None
                    else self.default_weight))
            # Unfair: every tenant of the shard shares its one lane.
            lane = self._lanes[tenant] = shard.lanes[-1]
        return lane

    def remove_tenant(self, tenant):
        """Drop a tenant; its pending items are discarded."""
        lane = self._lanes.pop(tenant, None)
        if lane is None:
            return
        shard = lane.shard
        kept = []
        for item in lane.items:
            if item[0] == tenant:
                self._dirty.discard(item)
                self._enqueue_times.pop(item, None)
            else:
                kept.append(item)
        shard.depth -= len(lane.items) - len(kept)
        lane.items = kept
        if not self.fair:
            return  # the shard's one lane serves its other tenants
        index = shard.lanes.index(lane)
        del shard.lanes[index]
        if index < shard.cursor:
            # Removing an entry before the cursor shifts every later
            # lane left one slot; without pulling the cursor back it
            # lands one past the lane whose turn is next, silently
            # skipping that tenant's WRR turn.
            shard.cursor -= 1
        if shard.cursor >= len(shard.lanes):
            shard.cursor = 0

    # ------------------------------------------------------------------
    # Queue operations
    # ------------------------------------------------------------------

    def __len__(self):
        return sum(shard.depth for shard in self._shards)

    def add(self, tenant, key):
        """Enqueue ``key`` for ``tenant`` with dedup."""
        if self._shutdown:
            return
        lane = self._lanes.get(tenant) or self.register_tenant(tenant)
        shard = lane.shard
        item = (tenant, key)
        self.added_total += 1
        shard.adds.inc()
        if item in self._dirty:
            self.deduped_total += 1
            shard.deduped.inc()
            return
        self._dirty.add(item)
        if item in self._processing:
            return
        self._enqueue_times.setdefault(item, self.sim.now)
        waiter = shard.pop_live_waiter()
        if waiter is not None:
            waiter.succeed(self._dispatch(item, shard))
            return
        lane.items.append(item)
        shard.depth += 1

    def get(self, shard=0):
        """Event resolving to ``(tenant, key, enqueued_at)`` from a shard."""
        if self._shutdown:
            return Event(self.sim).fail(ShutDown(self.name))
        shard = self._shards[shard % self.num_shards]
        item = self._pick(shard)
        if item is not None:
            return resolved(self.sim, self._dispatch(item, shard))
        event = Event(self.sim)
        shard.waiters.append(event)
        return event

    def done(self, tenant, key):
        """Worker finished the item; re-queue if it went dirty meanwhile.

        Safe to call after :meth:`shutdown` or :meth:`remove_tenant` — a
        late ``done()`` must never raise nor resurrect a removed tenant.
        """
        item = (tenant, key)
        self._processing.discard(item)
        if item in self._dirty:
            self._dirty.discard(item)
            if not self._shutdown and tenant in self._lanes:
                self.add(tenant, key)

    def shutdown(self):
        """Wake every blocked ``get()`` waiter with :class:`ShutDown`."""
        self._shutdown = True
        for shard in self._shards:
            while shard.waiters:
                event = shard.waiters.pop(0)
                if event.callbacks:
                    event.fail(ShutDown(self.name))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _dispatch(self, item, shard):
        """Mark ``item`` processing; returns what ``get()`` resolves to."""
        tenant, key = item
        self._dirty.discard(item)
        self._processing.add(item)
        queued_at = self._enqueue_times.pop(item, self.sim.now)
        waited = self.sim.now - queued_at
        self.wait_time_by_tenant[tenant] += waited
        shard.dispatched[tenant].inc()
        shard.wait_hist.observe(waited)
        return tenant, key, queued_at

    @staticmethod
    def _pick(shard):
        """Weighted round-robin over the shard's lanes (O(n) in lanes, as
        the paper notes; with equal weights it is plain round-robin)."""
        if not shard.depth:
            return None
        lanes = shard.lanes
        attempts = 0
        while True:
            if shard.cursor >= len(lanes):
                shard.cursor = 0
            lane = lanes[shard.cursor]
            if lane.items and lane.credits > 0:
                lane.credits -= 1
                if lane.credits == 0:
                    # Weight exhausted for this round: move to the next
                    # lane (plain round-robin when all weights are 1).
                    shard.cursor += 1
                shard.depth -= 1
                return lane.items.pop(0)
            shard.cursor += 1
            attempts += 1
            if attempts >= len(lanes):
                # Full pass without service: refill every credit (new
                # WRR round) and scan again — an item is known to exist.
                for other in lanes:
                    other.credits = other.weight
                attempts = 0

    def stats(self):
        depth_by_shard = [shard.depth for shard in self._shards]
        return {
            "depth": sum(depth_by_shard),
            "added": self.added_total,
            "deduped": self.deduped_total,
            "tenants": len(self._lanes),
            "processing": len(self._processing),
            "shards": self.num_shards,
            "depth_by_shard": depth_by_shard,
        }
