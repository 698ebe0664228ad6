"""N-way replicated store group with WAL streaming and leader failover.

A :class:`StoreGroup` runs N :class:`EtcdStore` replicas of one control
plane's store (DESIGN.md §13): an etcd cluster behind one apiserver,
which stays up while storage goes leaderless for the election window.

Topology and failure model:

- Every replica owns an :class:`EtcdStore` *plus its own
  :class:`WriteAheadLog`* — kill -9 destroys a replica's memory, never
  its log.  Replica 0 is the designated initial leader so bootstrap
  writes need no election round.
- The leader's WAL is the only channel to the followers.  Its
  ``on_append`` hook streams each durable record into a per-follower
  :class:`Channel`, and a pump process applies it after the replication
  delay (plus any chaos-injected lag) and logs that very record: logs
  share their immutable records.  Its ``on_reset`` hook fires when
  a restore or wipe of the serving store restarts the log, and rolls
  every live follower to it by full state transfer.
- Each log carries a generation that a restart of it bumps
  (:attr:`WriteAheadLog.generation`).  A replica that was down through
  such a restart recovers a log of an older generation: catching up
  compares the two and rolls it to the leader's log whole instead of
  resuming over a divergent history.
- Every way a replica takes in records — the stream, the catch-up when
  it (re)joins or is promoted, that full state transfer and its own
  crash recovery — applies them one at a time through
  :meth:`EtcdStore.apply`, resuming from the store's own revision: a
  duplicate is skipped, a gap refused.
- Leader election reuses ``clientgo.leaderelection`` against a shared
  *coordination* apiserver (``coordinator_of(sim)``), modeling the
  ZooKeeper/PVC-style external coordination plane from ROADMAP item 4 —
  a store group cannot elect through leases stored in itself.
- Leaderless window: the killed leader's store is powered off, and a
  leader that loses its lease while alive is suspended
  (:meth:`EtcdStore.suspend`), so every call on the store the apiserver
  holds raises its retryable unavailable error until a promotion
  re-points it.
- Failover is fencing-gated: the promoted follower first catches up from
  the dead leader's durable WAL (the disk outlives the process,
  :meth:`EtcdStore.catch_up`), then
  advances the fencing floor for ``store/<name>`` with its new token (so
  a deposed leader's in-flight writes die), and only then serves.
- Zero committed-write loss is *verified*, not assumed: at kill time the
  group captures :meth:`WriteAheadLog.durable_state` — exactly what the
  crash is obliged to preserve — and the promotion compares the new
  leader against it, recording ``lost_writes`` per recovery.
"""

from repro.objects.meta import stored_wire
from repro.simkernel.resources import Channel, ChannelClosed
from repro.telemetry import telemetry_of

from .errors import CompactedError
from .etcd import EtcdStore
from .wal import WriteAheadLog


def coordinator_of(sim):
    """The per-simulation coordination backplane (lazily created).

    A bare apiserver serving only leases for store-group elections —
    deliberately outside the system under test, like the ZooKeeper
    ensemble PVC-style deployments coordinate through.
    """
    coordinator = getattr(sim, "_store_coordinator", None)
    if coordinator is None:
        coordinator = StoreCoordinator(sim)
        sim._store_coordinator = coordinator
    return coordinator


class StoreCoordinator:
    """Coordination apiserver + the admin client factory electors use."""

    name = "store-coord"

    def __init__(self, sim):
        from repro.apiserver import ADMIN, APIServer
        from repro.objects import make_namespace

        self.sim = sim
        self.api = APIServer(sim, self.name)
        self._admin = ADMIN
        # Electors create Leases in kube-system; the elector retries
        # through the window before this bootstrap process has run.
        sim.spawn(self.api.create(ADMIN, make_namespace("kube-system")),
                  name=f"{self.name}-bootstrap")

    def client(self, user_agent):
        from repro.clientgo import Client

        return Client(self.sim, self.api, self._admin, qps=20.0, burst=40,
                      user_agent=user_agent)


class StoreReplica:
    """One member of a replicated group: a store, its WAL, its elector."""

    __slots__ = ("group", "index", "store", "role", "alive", "channel",
                 "pump", "elector", "extra_lag", "records_applied")

    def __init__(self, group, index, store):
        self.group = group
        self.index = index
        self.store = store
        self.role = "follower"
        self.alive = True
        self.channel = None
        self.pump = None
        self.elector = None
        self.extra_lag = 0.0  # chaos ReplicaLag fault
        self.records_applied = 0

    @property
    def name(self):
        return self.store.name

    @property
    def lag(self):
        """Events this follower trails the leader's durable log by."""
        leader = self.group._leader
        if leader is None or leader is self or not self.alive:
            return 0
        return max(0, leader.store.wal.durable_revision
                   - self.store.revision)

    def apply(self, record):
        """Apply one streamed WAL record to this replica."""
        self._count(self.store.apply(record))

    def catch_up(self, wal):
        """Bring this replica up to another replica's log (see
        :meth:`EtcdStore.catch_up`).  A log of another generation
        restarted while this replica was not following it (a restore or
        wipe): the histories diverge, so roll to it whole."""
        own = self.store.wal
        self._count(self.store.catch_up(wal,
                                        own.generation != wal.generation))
        own.generation = wal.generation

    def _count(self, applied):
        if applied:
            self.records_applied += applied
            self.group._replicated_records.inc(applied)


class StoreGroup:
    """Leader/follower replicas of one control plane's store.

    Not a store: the apiserver holds :attr:`store`, the leader's plain
    :class:`EtcdStore`, and ``on_failover`` (set by the control plane)
    re-points it at each promoted leader's.  The group keeps
    replication, elections, fencing, lost-write accounting and the
    chaos surface, configured by ``config.storage``.
    """

    def __init__(self, sim, name, config):
        storage = config.storage
        if storage.replicas < 1:
            raise ValueError("a store group needs at least 1 replica")
        self.sim = sim
        self.name = name
        self.replication_delay = storage.replication_delay
        self.fence_domain = f"store/{name}"
        self.on_failover = None
        self._term = 0
        self._pending_recovery = None
        self.recoveries = []
        self.failovers = 0
        telemetry = telemetry_of(sim)
        self._replicated_records = telemetry.counter(
            "store_replication_records_total",
            "WAL records applied by followers",
            labels=("store",)).labels(store=name)
        self._failover_metric = telemetry.counter(
            "store_recoveries_total",
            "store recoveries by source (wal replay / snapshot restore)",
            labels=("store", "source")).labels(store=name, source="failover")
        lag_gauge = telemetry.gauge(
            "replica_lag_events",
            "events a follower trails the leader's durable log by",
            labels=("store", "replica"))
        self.replicas = []
        for index in range(storage.replicas):
            member = f"{name}-r{index}"
            store = EtcdStore(sim, name=member,
                              wal=WriteAheadLog(sim, member))
            replica = StoreReplica(self, index, store)
            self.replicas.append(replica)
            lag_gauge.labels(store=name, replica=f"r{index}").set_function(
                lambda r=replica: float(r.lag))
        # Replica 0 leads from t=0 (bootstrap writes predate any election
        # round); elections only gate failover.  _last_leader is the
        # replica whose store the apiserver holds, leaderless or not.
        leader = self.replicas[0]
        leader.role = "leader"
        self._leader = leader
        self._last_leader = leader
        self._stream_from(leader)
        for follower in self.replicas[1:]:
            self._attach_follower(follower)
        if len(self.replicas) > 1:
            coordinator = coordinator_of(sim)
            for replica in self.replicas:
                replica.elector = self._make_elector(coordinator, replica,
                                                     storage)
            # The initial leader contends first; followers join only
            # after a full lease so replica 0 wins the opening term.
            self.replicas[0].elector.start()
            for offset, replica in enumerate(self.replicas[1:], start=1):
                sim.spawn(
                    self._delayed_start(
                        replica,
                        storage.lease_duration * (1.0 + 0.25 * offset)),
                    name=f"elector-stagger-{replica.name}")

    def _make_elector(self, coordinator, replica, storage):
        from repro.clientgo import LeaderElector

        client = coordinator.client(user_agent=f"store-elector-{replica.name}")
        return LeaderElector(
            self.sim, client, name=f"store-{self.name}",
            identity=replica.name, lease_duration=storage.lease_duration,
            renew_interval=storage.lease_renew_interval,
            retry_interval=storage.lease_retry_interval,
            jitter=storage.lease_jitter,
            on_started_leading=lambda token, r=replica:
                self._on_elected(r, token),
            on_stopped_leading=lambda reason, r=replica:
                self._on_lost(r, reason))

    def _delayed_start(self, replica, delay):
        yield self.sim.timeout(delay)
        if replica.alive and replica.elector is not None:
            replica.elector.start()

    @property
    def leader(self):
        """The leading replica, or None while the group is leaderless."""
        return self._leader

    @property
    def store(self):
        """The store the apiserver holds: the leader's, or while the
        group is leaderless the last leader's, which refuses every call."""
        return self._last_leader.store

    # ------------------------------------------------------------------
    # Streaming replication (the leader's WAL is the only channel)
    # ------------------------------------------------------------------

    def _stream_from(self, replica, on=True):
        wal = replica.store.wal
        wal.on_append = self._stream_record if on else None
        wal.on_reset = self._stream_reset if on else None

    def _stream_record(self, record):
        for replica in self.replicas:
            if (replica.alive and replica.role == "follower"
                    and replica.channel is not None
                    and not replica.channel.closed):
                replica.channel.try_put(record)

    def _stream_reset(self):
        """The leader's log restarted (a restore or wipe): its new
        generation makes every live follower's catch-up a full state
        transfer."""
        leader = self._leader
        for replica in self.replicas:
            if replica is not leader and replica.alive:
                self._attach_follower(replica)

    def _attach_follower(self, replica):
        """(Re)join a replica to the leader's stream, catching it up from
        the leader's durable log first so the stream only has to carry
        the delta."""
        leader = self._leader
        if leader is not None and leader is not replica:
            replica.catch_up(leader.store.wal)
        if replica.channel is not None:
            replica.channel.close()
        replica.role = "follower"
        replica.channel = Channel(
            self.sim, name=f"repl:{replica.name}")
        replica.pump = self.sim.spawn(self._pump(replica),
                                      name=f"repl-pump:{replica.name}")

    def _pump(self, replica):
        channel = replica.channel
        while True:
            try:
                record = yield channel.get()
            except ChannelClosed:
                return
            delay = self.replication_delay + replica.extra_lag
            if delay > 0:
                yield self.sim.timeout(delay)
            if (not replica.alive or replica.role != "follower"
                    or replica.channel is not channel):
                return  # killed, promoted, or re-attached mid-flight
            replica.apply(record)

    # ------------------------------------------------------------------
    # Failure / recovery surface (chaos hooks)
    # ------------------------------------------------------------------

    def kill_leader(self, reason="kill"):
        """Kill -9 the leader replica; returns its index (None if no
        leader to kill).  Recovery is a follower election + promotion."""
        if self._leader is None:
            return None
        return self.kill_replica(self._leader.index, reason=reason)

    def arm_kill(self, after_ops, callback=None):
        """Arm a mid-``txn`` kill -9 on the current leader (see
        :meth:`EtcdStore.arm_kill`)."""
        leader = self._leader
        if leader is None:
            return
        leader.store.arm_kill(
            after_ops,
            callback=lambda store, cb=callback: self._on_mid_txn_kill(store,
                                                                      cb))

    def disarm_kill(self):
        """Clear any armed mid-txn kill on every replica."""
        for replica in self.replicas:
            replica.store.disarm_kill()

    def _on_mid_txn_kill(self, store, callback):
        for replica in self.replicas:
            if replica.store is store:
                self.kill_replica(replica.index, reason="mid-txn")
                break
        if callback is not None:
            callback(self)

    def kill_replica(self, index, reason="kill"):
        """Kill -9 one replica by index (leader or follower); returns
        the index, or None when it was already dead."""
        replica = self.replicas[index]
        if not replica.alive:
            return None
        if replica is self._leader:
            # What durability owes us: the durable log image at the
            # instant of death.  Promotion verifies against it.
            self._pending_recovery = {
                "victim": replica.name,
                "reason": reason,
                "killed_at": self.sim.now,
                "durable_revision": replica.store.wal.durable_revision,
                "durable_state": replica.store.wal.durable_state(),
            }
        replica.alive = False
        replica.role = "dead"
        self._stream_from(replica, on=False)
        # Idempotent: a mid-txn kill has powered the store off already.
        replica.store.power_off()
        if replica.elector is not None:
            replica.elector.crash()
        if replica is self._leader:
            # The sender's sockets die with it: in-flight records are
            # lost, and followers resume from the durable log instead.
            for other in self.replicas:
                if other is not replica and other.channel is not None:
                    other.channel.close()
            self._leader = None
        elif replica.channel is not None:
            replica.channel.close()
        return index

    def restart_replica(self, index=None):
        """Bring a dead replica back: recover its store from its own WAL,
        rejoin the leader's stream as a follower, resume contending."""
        dead = [replica for replica in self.replicas
                if not replica.alive and index in (None, replica.index)]
        if not dead:
            return None
        replica = dead[0]
        replica.alive = True
        try:
            replica.store.recover_from_wal()
        except CompactedError:
            replica.store.wipe()  # empty disk: full resync from the leader
        replica.role = "follower"
        if self._leader is not None:
            self._attach_follower(replica)
        elif replica is self._last_leader:
            # The apiserver still holds this store: it serves again
            # only once an election promotes a leader.
            replica.store.suspend()
        if replica.elector is not None:
            replica.elector.start()
        return replica.index

    def set_extra_lag(self, seconds, index=None):
        """Chaos ReplicaLag: slow one follower's apply pump; ``index``
        None picks the first live follower (deterministic order)."""
        for replica in self.replicas:
            if index is not None and replica.index != index:
                continue
            if replica.alive and replica.role == "follower":
                replica.extra_lag = seconds
                return replica.index
        return None

    # ------------------------------------------------------------------
    # Election callbacks
    # ------------------------------------------------------------------

    def _on_elected(self, replica, token):
        if not replica.alive:
            return
        self._term = max(self._term, token)
        if replica is self._leader:
            # Re-affirmed leadership: ratchet the fencing floor.
            replica.store.check_fence(self.fence_domain, token)
            return
        self._promote(replica, token)

    def _on_lost(self, replica, reason):
        # Lease lost while the process is alive (e.g. coordination
        # partition): stop serving to preserve single-writer.
        if replica is self._leader:
            replica.role = "follower"
            self._stream_from(replica, on=False)
            replica.store.suspend()
            self._leader = None

    def _promote(self, replica, token):
        """Fencing-gated takeover: catch up from the most durable log,
        fence out the deposed term, serve, and re-point the apiserver."""
        source = self._last_leader
        if source is not replica:
            replica.catch_up(source.store.wal)
        # Fence barrier: any in-flight write stamped with an older term
        # dies at the storage layer before the new leader serves.
        replica.store.resume()
        replica.store.check_fence(self.fence_domain, token)
        replica.role = "leader"
        if replica.channel is not None:
            replica.channel.close()
            replica.channel = None
        self._leader = replica
        self._last_leader = replica
        self._stream_from(replica)
        for other in self.replicas:
            if other is not replica and other.alive:
                self._attach_follower(other)
        self.failovers += 1
        self._failover_metric.inc()
        pending, self._pending_recovery = self._pending_recovery, None
        if pending is not None:
            pending["promoted"] = replica.name
            pending["token"] = token
            pending["recovered_at"] = self.sim.now
            pending["mttr"] = self.sim.now - pending["killed_at"]
            pending["lost_writes"] = self._count_lost_writes(
                pending["durable_state"], replica.store)
            self.recoveries.append(pending)
        if self.on_failover is not None:
            self.on_failover(replica.store)

    @staticmethod
    def _count_lost_writes(durable_state, store):
        lost = 0
        for key, (value, mod_revision) in durable_state.items():
            stored = store.try_get_stored(key)
            if (stored is None or stored.mod_revision != mod_revision
                    or stored_wire(stored.value) != stored_wire(value)):
                lost += 1
        return lost

    def stats(self):
        """The serving store's stats, plus replica detail, the recovery
        log and group-wide sums."""
        out = self.store.stats()
        out["replicas"] = [
            {
                "name": replica.name,
                "role": replica.role,
                "alive": replica.alive,
                "revision": replica.store.revision,
                "lag": replica.lag,
                "records_applied": replica.records_applied,
                "wal": (replica.store.wal.stats()
                        if replica.store.wal is not None else None),
            }
            for replica in self.replicas
        ]
        out["failovers"] = self.failovers
        # Group-wide WAL-recovery count: the leader's own counter alone
        # would hide a restarted victim's recovery.
        out["recoveries"] = sum(
            replica.store.recoveries for replica in self.replicas)
        # Likewise fan-out work: each leader of the group's life did some,
        # and a deposed leader may still hold revisions for its lists.
        for counter in ("watch_evals", "watch_deliveries", "holds"):
            out[counter] = sum(getattr(replica.store, counter)
                               for replica in self.replicas)
        out["recoveries_log"] = list(self.recoveries)
        return out
