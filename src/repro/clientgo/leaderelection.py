"""Lease-based leader election with fencing tokens (client-go analogue).

Any component can run active/standby by giving each replica a
:class:`LeaderElector` pointed at the same Lease object.  Exactly one
replica holds the lease at a time; the others retry at a jittered
interval and take over only once the holder's claim has *provably*
lapsed.

Mutual exclusion relies on three things, all enforced here:

* **Conservative self-view.**  A holder stamps ``renew_time`` with the
  simulation clock *before* issuing the write, and considers itself
  leader strictly while ``now < renew_time + lease_duration``.  The
  write can only land at or after that stamp, so the holder's own view
  of its deadline is never later than what any challenger reads from
  the lease.
* **Expiry-only takeover.**  A challenger overwrites the lease only
  when ``now >= renew_time + lease_duration`` — i.e. at or after the
  instant the holder has already stopped claiming leadership.
* **Optimistic concurrency.**  All writes go through the apiserver's
  resource-version CAS, so two challengers racing for an expired lease
  cannot both win: the loser gets ``Conflict`` and re-reads.

The lease's ``lease_transitions`` counter increments on every
acquisition and doubles as the **fencing token**: storage-side fencing
(``EtcdStore.check_fence``) rejects writes stamped with a token lower
than the highest one seen, which stops a deposed leader's in-flight
batches from landing after a successor has taken over.

``partition()`` models the dangerous half of a network partition: the
elector stops renewing (it cannot reach the apiserver) but its owner
keeps working until ``notice_delay`` after the lease deadline — the
window in which split-brain writes are emitted and fencing must hold.
"""

from repro.apiserver.errors import ApiError
from repro.objects import Lease, LeaseSpec, ObjectMeta
from repro.simkernel import Interrupt
from repro.telemetry import telemetry_of

from .backoff import JitteredBackoff

LEASE_NAMESPACE = "kube-system"


class LeaderElector:
    """Acquire/renew/release loop for one replica contending for a lease.

    Callbacks:

    * ``on_started_leading(token)`` — fired (synchronously, from the
      elector's process) right after an acquisition; ``token`` is the
      fencing token for this leadership term.
    * ``on_stopped_leading(reason)`` — fired when leadership is lost
      (renewal failure, steal observed, partition noticed).  Not fired
      on :meth:`crash`, which models a process death that never gets to
      run cleanup.
    """

    def __init__(self, sim, client, name, identity, lease_duration=10.0,
                 renew_interval=3.0, retry_interval=1.0, jitter=0.2,
                 on_started_leading=None, on_stopped_leading=None):
        if renew_interval >= lease_duration:
            raise ValueError("renew_interval must be < lease_duration")
        self.sim = sim
        self.client = client
        self.name = name
        self.identity = identity
        self.namespace = LEASE_NAMESPACE
        self.lease_duration = lease_duration
        self.renew_interval = renew_interval
        self.retry_interval = retry_interval
        self.jitter = jitter
        self.on_started_leading = on_started_leading
        self.on_stopped_leading = on_stopped_leading
        # Retry backoff for acquisition attempts while the apiserver is
        # unreachable (or the lease namespace does not exist yet — the
        # elector may start before bootstrap creates kube-system, which
        # surfaces as a non-retryable Forbidden from admission).
        self._retry_backoff = JitteredBackoff(
            sim.rng, retry_interval, max(lease_duration, 4 * retry_interval),
            jitter=jitter)
        self._leading = False
        self._deadline = float("-inf")
        self._token = 0
        self._process = None
        self._stopped = False
        self._partitioned = False
        self._partition_notice = 0.0
        self.acquisitions = 0
        self.renewals = 0
        self.losses = 0
        # One series per lease ("syncer-leader", "store-<name>", …):
        # every elected group's failovers in the registry, whoever
        # owns the elector.
        self._transitions_counter = telemetry_of(sim).counter(
            "leader_transitions_total",
            "lease acquisitions (leadership terms started)",
            labels=("domain",)).labels(domain=name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def is_leader(self):
        """Live mutual-exclusion check: strictly before the deadline."""
        return (self._leading and not self._stopped
                and self.sim.now < self._deadline)

    @property
    def fencing_token(self):
        """Token for the current (or most recent) leadership term."""
        return self._token

    def stats(self):
        return {
            "identity": self.identity,
            "is_leader": self.is_leader,
            "fencing_token": self._token,
            "acquisitions": self.acquisitions,
            "renewals": self.renewals,
            "losses": self.losses,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        if self._process is None:
            self._stopped = False
            self._process = self.sim.spawn(
                self._run(), name=f"elector-{self.name}-{self.identity}")
        return self._process

    def stop(self, release=True):
        """Graceful shutdown: stop contending and (best effort) release
        the lease so a standby can take over without waiting for expiry."""
        self._stopped = True
        if self._process is not None:
            process, self._process = self._process, None
            process.interrupt("elector stop")
        was_leading = self._leading
        self._leading = False
        if was_leading and release:
            self.sim.spawn(self._release(),
                           name=f"elector-release-{self.identity}")

    def crash(self):
        """Model an abrupt process death: no release, no callbacks.
        Standbys must wait out the lease before taking over."""
        self._stopped = True
        if self._process is not None:
            process, self._process = self._process, None
            process.interrupt("elector crash")
        self._leading = False

    def partition(self, notice_delay=0.0):
        """Cut this elector off from the apiserver: renewals stop, and
        the owner is told it lost only ``notice_delay`` seconds after
        the lease deadline (the split-brain window fencing must cover)."""
        self._partitioned = True
        self._partition_notice = notice_delay

    def heal(self):
        self._partitioned = False

    # ------------------------------------------------------------------
    # Core loop
    # ------------------------------------------------------------------

    def _jittered(self, base):
        return base * (1.0 + self.jitter * self.sim.rng.random())

    def _run(self):
        try:
            while not self._stopped:
                if not self._leading:
                    won = False
                    if not self._partitioned:
                        won = yield from self._try_acquire()
                    if won:
                        self._retry_backoff.reset()
                    else:
                        yield self.sim.timeout(self._retry_backoff.next())
                    continue
                # Leading: sleep until the next renewal is due, then
                # retry renewals until success or the deadline passes.
                yield self.sim.timeout(self._jittered(self.renew_interval))
                yield from self._renew_until_resolved()
        except Interrupt:
            pass

    def _renew_until_resolved(self):
        while self._leading and not self._stopped:
            if self._partitioned:
                if self.sim.now < self._deadline:
                    yield self.sim.timeout(
                        min(self.retry_interval,
                            self._deadline - self.sim.now))
                    continue
                # Deadline passed while cut off.  ``is_leader`` is
                # already False; the owner notices after the delay.
                if self._partition_notice > 0:
                    yield self.sim.timeout(self._partition_notice)
                self._lose("partitioned past lease deadline")
                return
            renewed = yield from self._try_renew()
            if renewed or not self._leading:
                return
            if self.sim.now >= self._deadline:
                self._lose("failed to renew before lease deadline")
                return
            yield self.sim.timeout(self._jittered(self.retry_interval))

    def _try_acquire(self):
        try:
            lease = yield from self.client.get(
                Lease.PLURAL, self.name, namespace=self.namespace)
        except ApiError as exc:
            if exc.reason != "NotFound":
                return False
            now = self.sim.now
            lease = Lease(
                metadata=ObjectMeta(name=self.name,
                                    namespace=self.namespace),
                spec=LeaseSpec(
                    holder_identity=self.identity,
                    lease_duration_seconds=self.lease_duration,
                    acquire_time=now, renew_time=now, lease_transitions=1))
            try:
                created = yield from self.client.create(
                    lease, namespace=self.namespace)
            except ApiError:
                return False
            self._became_leader(created, now)
            return True
        now = self.sim.now
        spec = lease.spec
        if not spec.expired(now):
            # Healthy holder observed: this is a standby's steady-state
            # poll, not a failure — keep retrying at the base interval so
            # the takeover after an expiry is prompt (backoff only grows
            # on API errors and CAS losses).
            self._retry_backoff.reset()
            return False
        try:
            updated = yield from self.client.update(lease.replace(
                spec=spec.replace(
                    holder_identity=self.identity,
                    lease_duration_seconds=self.lease_duration,
                    acquire_time=now, renew_time=now,
                    lease_transitions=(spec.lease_transitions or 0) + 1)))
        except ApiError:
            # Conflict: somebody else won the CAS race — back off.
            return False
        self._became_leader(updated, now)
        return True

    def _try_renew(self):
        try:
            lease = yield from self.client.get(
                Lease.PLURAL, self.name, namespace=self.namespace)
        except ApiError:
            return False
        spec = lease.spec
        if (spec.holder_identity != self.identity
                or spec.lease_transitions != self._token):
            self._lose("lease held by another identity")
            return False
        now = self.sim.now
        try:
            yield from self.client.update(
                lease.replace(spec=spec.replace(renew_time=now)))
        except ApiError:
            return False
        self._deadline = now + self.lease_duration
        self.renewals += 1
        return True

    def _release(self):
        try:
            lease = yield from self.client.get(
                Lease.PLURAL, self.name, namespace=self.namespace)
            if lease.spec.holder_identity != self.identity:
                return
            yield from self.client.update(lease.replace(
                spec=lease.spec.replace(holder_identity=None,
                                        renew_time=None)))
        except (ApiError, Interrupt):
            pass

    def _became_leader(self, lease, written_now):
        self._leading = True
        self._deadline = written_now + self.lease_duration
        self._token = lease.spec.lease_transitions
        self.acquisitions += 1
        self._transitions_counter.inc()
        if self.on_started_leading is not None:
            self.on_started_leading(self._token)

    def _lose(self, reason):
        if not self._leading:
            return
        self._leading = False
        self._deadline = float("-inf")
        self.losses += 1
        if self.on_stopped_leading is not None:
            self.on_stopped_leading(reason)
