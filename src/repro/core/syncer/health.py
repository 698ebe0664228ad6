"""Per-tenant health tracking and circuit breaking for the syncer.

The centralized syncer shares its DWS/UWS worker pools across every
tenant, so one unreachable tenant control plane can tie workers up in
retry loops and stall *all* tenants — the blast-radius concern that
motivates per-tenant control planes in the first place (paper §III-C).

The :class:`HealthTracker` gives each tenant a circuit breaker:

- ``closed``: reconciles proceed normally; retryable API failures
  (503/504/429 — an unreachable control plane) count against the tenant.
- ``open``: after ``failure_threshold`` consecutive retryable failures,
  items for the tenant are *parked* instead of processed, so workers fail
  fast and stay available to healthy tenants.
- ``half-open``: after an (exponentially growing, capped, jittered)
  cooldown a background probe issues one cheap request against the tenant
  apiserver; success closes the circuit and re-enqueues every parked
  item, failure re-opens it with a longer cooldown.

Non-retryable errors (NotFound/Conflict races) never trip the breaker —
they are part of the eventual-consistency model, not a sign the control
plane is down.
"""

from repro.apiserver.errors import ApiError, is_retryable
from repro.simkernel.errors import Interrupt

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half-open"


class TenantHealth:
    """Circuit state and failure accounting for one tenant."""

    __slots__ = ("state", "consecutive_failures", "failures_total",
                 "successes_total", "opens_total", "opened_at",
                 "open_duration", "degraded_since", "time_degraded",
                 "probes_total")

    def __init__(self):
        self.state = STATE_CLOSED
        self.consecutive_failures = 0
        self.failures_total = 0
        self.successes_total = 0
        self.opens_total = 0
        self.opened_at = None
        self.open_duration = 0.0
        self.degraded_since = None
        self.time_degraded = 0.0
        self.probes_total = 0


class HealthTracker:
    """Tracks every tenant's health and parks work for open circuits."""

    def __init__(self, syncer, enabled=True):
        self.syncer = syncer
        self.sim = syncer.sim
        self.enabled = enabled
        cfg = syncer.config.syncer
        self.failure_threshold = cfg.breaker_failure_threshold
        self.base_open_duration = cfg.breaker_open_duration
        self.max_open_duration = cfg.breaker_max_open_duration
        self._tenants = {}
        # tenant -> {"downward": set(), "upward": set()} of parked items.
        self._parked = {}
        self._probe_processes = {}
        self.parked_total = 0
        self.unparked_total = 0

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def health(self, tenant):
        entry = self._tenants.get(tenant)
        if entry is None:
            entry = self._tenants[tenant] = TenantHealth()
        return entry

    def state(self, tenant):
        return self.health(tenant).state

    def allow(self, tenant):
        """Whether workers should process items for this tenant now."""
        if not self.enabled:
            return True
        return self.health(tenant).state == STATE_CLOSED

    def parked_count(self, tenant=None):
        if tenant is not None:
            buckets = self._parked.get(tenant)
            if buckets is None:
                return 0
            return sum(len(items) for items in buckets.values())
        return sum(len(items) for buckets in self._parked.values()
                   for items in buckets.values())

    def time_degraded(self, tenant):
        """Accumulated seconds with the circuit not closed (live value)."""
        entry = self.health(tenant)
        total = entry.time_degraded
        if entry.degraded_since is not None:
            total += self.sim.now - entry.degraded_since
        return total

    # ------------------------------------------------------------------
    # Outcome recording
    # ------------------------------------------------------------------

    def record_success(self, tenant):
        entry = self.health(tenant)
        entry.successes_total += 1
        entry.consecutive_failures = 0

    def record_failure(self, tenant, error=None):
        """Record a reconcile failure; opens the circuit at the threshold.

        Returns True when the failure tripped (or found) an open circuit,
        so callers can park the item instead of re-queuing it.
        """
        entry = self.health(tenant)
        entry.failures_total += 1
        if error is not None and isinstance(error, ApiError) \
                and not is_retryable(error):
            return not self.allow(tenant)
        entry.consecutive_failures += 1
        if (self.enabled and entry.state == STATE_CLOSED
                and entry.consecutive_failures >= self.failure_threshold):
            self._trip(tenant, entry)
        return not self.allow(tenant)

    def _trip(self, tenant, entry):
        entry.state = STATE_OPEN
        entry.opens_total += 1
        entry.opened_at = self.sim.now
        if entry.degraded_since is None:
            entry.degraded_since = self.sim.now
        entry.open_duration = entry.open_duration or self.base_open_duration
        self.syncer.metrics_inc("breaker_open")
        if tenant not in self._probe_processes:
            self._probe_processes[tenant] = self.syncer.spawn(
                self._probe_loop(tenant), name=f"breaker-probe-{tenant}")

    # ------------------------------------------------------------------
    # Parking
    # ------------------------------------------------------------------

    def park(self, tenant, direction, item):
        buckets = self._parked.setdefault(
            tenant, {"downward": set(), "upward": set()})
        if item not in buckets[direction]:
            buckets[direction].add(item)
            self.parked_total += 1

    def _unpark(self, tenant):
        buckets = self._parked.pop(tenant, None)
        if buckets is None:
            return
        for plural, key in sorted(buckets["downward"]):
            self.unparked_total += 1
            self.syncer.enqueue_downward(tenant, plural, key)
        for plural, key in sorted(buckets["upward"]):
            self.unparked_total += 1
            self.syncer.enqueue_upward(tenant, plural, key)

    def drop_tenant(self, tenant):
        """Forget a tenant (unregistered from the syncer)."""
        self._parked.pop(tenant, None)
        self._tenants.pop(tenant, None)
        process = self._probe_processes.pop(tenant, None)
        if process is not None:
            process.interrupt("tenant dropped")

    def stop(self):
        for tenant in list(self._probe_processes):
            process = self._probe_processes.pop(tenant)
            process.interrupt("health tracker stopped")

    # ------------------------------------------------------------------
    # Half-open probing
    # ------------------------------------------------------------------

    def _probe_loop(self, tenant):
        """Sleep through the cooldown, then probe until the tenant heals."""
        try:
            while True:
                entry = self.health(tenant)
                cooldown = entry.open_duration
                cooldown *= 1.0 + 0.25 * self.sim.rng.random()  # jitter
                yield self.sim.timeout(cooldown)
                registration = self.syncer.tenants.get(tenant)
                if registration is None:
                    break
                entry.state = STATE_HALF_OPEN
                entry.probes_total += 1
                try:
                    yield from registration.client.list("namespaces")
                except ApiError:
                    # Still down: re-open with a longer (capped) cooldown.
                    entry.state = STATE_OPEN
                    entry.open_duration = min(entry.open_duration * 2,
                                              self.max_open_duration)
                    continue
                self._close(tenant, entry)
                break
        except Interrupt:
            return
        finally:
            self._probe_processes.pop(tenant, None)

    def _close(self, tenant, entry):
        entry.state = STATE_CLOSED
        entry.consecutive_failures = 0
        entry.open_duration = 0.0
        entry.opened_at = None
        if entry.degraded_since is not None:
            entry.time_degraded += self.sim.now - entry.degraded_since
            entry.degraded_since = None
        self.syncer.metrics_inc("breaker_close")
        self._unpark(tenant)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self):
        return {
            tenant: {
                "state": entry.state,
                "consecutive_failures": entry.consecutive_failures,
                "failures_total": entry.failures_total,
                "opens_total": entry.opens_total,
                "probes_total": entry.probes_total,
                "parked": self.parked_count(tenant),
                "time_degraded": self.time_degraded(tenant),
            }
            for tenant, entry in sorted(self._tenants.items())
        }
