"""N-way replicated store group with WAL streaming and leader failover.

A :class:`ReplicatedStore` presents the :class:`EtcdStore` API while
fanning every durable WAL record from the current leader to N-1 follower
stores (DESIGN.md §13).  It models an etcd cluster behind one apiserver:
the apiserver object stays up, but storage goes leaderless for the
election window when the leader is killed.

Topology and failure model:

- Every replica owns an :class:`EtcdStore` *plus its own
  :class:`WriteAheadLog`* — kill -9 destroys a replica's memory, never
  its log.  Replica 0 is the designated initial leader so bootstrap
  writes need no election round.
- The leader's WAL ``on_append`` hook streams each durable record into a
  per-follower :class:`Channel`; a pump process applies it after the
  replication delay (plus any chaos-injected lag).
- Leader election reuses ``clientgo.leaderelection`` against a shared
  *coordination* apiserver (``coordinator_of(sim)``), modeling the
  ZooKeeper/PVC-style external coordination plane from ROADMAP item 4 —
  a store group cannot elect through leases stored in itself.
- Failover is fencing-gated: the promoted follower first catches up from
  the dead leader's durable WAL (the disk outlives the process), then
  advances the fencing floor for ``store/<name>`` with its new token (so
  a deposed leader's in-flight writes die), and only then serves.
- Zero committed-write loss is *verified*, not assumed: at kill time the
  group captures :meth:`WriteAheadLog.durable_state` — exactly what the
  crash is obliged to preserve — and the promotion compares the new
  leader against it, recording ``lost_writes`` per recovery.

Stale reads: :meth:`read_follower` serves from a follower and returns
its applied revision alongside the value; a caller that passes
``min_revision`` gets :class:`StaleRead` when the follower lags behind
it, which is the client-side rejection contract the paper's
read-your-writes tenants need.
"""

from repro.simkernel.resources import Channel, ChannelClosed
from repro.telemetry import telemetry_of

from .errors import CompactedError, StaleRead, StoreUnavailable
from .etcd import EtcdStore, WatchEvent
from .wal import WAL_FENCE, WriteAheadLog

# Store-group election timings: snappier than the syncer's (6 s) lease
# so storage MTTR stays in the low seconds.
DEFAULT_LEASE_DURATION = 3.0
DEFAULT_RENEW_INTERVAL = 1.0
DEFAULT_RETRY_INTERVAL = 0.25
DEFAULT_REPLICATION_DELAY = 0.002


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

    def __init__(self, sim, name="store-coord"):
        from repro.apiserver import ADMIN, APIServer
        from repro.objects import make_namespace

        self.sim = sim
        self.api = APIServer(sim, name)
        self._admin = ADMIN
        # Electors create Leases in kube-system; the elector retries
        # through the window before this bootstrap process has run.
        sim.spawn(self.api.create(ADMIN, make_namespace("kube-system")),
                  name=f"{name}-bootstrap")

    def client(self, user_agent):
        from repro.clientgo import Client

        return Client(self.sim, self.api, self._admin, qps=20.0, burst=40,
                      user_agent=user_agent)


class StoreReplica:
    """One member of a replicated group: a store, its WAL, its elector."""

    __slots__ = ("group", "index", "store", "role", "alive",
                 "applied_revision", "channel", "pump", "elector",
                 "extra_lag", "catchups", "records_applied")

    def __init__(self, group, index, store):
        self.group = group
        self.index = index
        self.store = store
        self.role = "follower"
        self.alive = True
        self.applied_revision = 0
        self.channel = None
        self.pump = None
        self.elector = None
        self.extra_lag = 0.0  # chaos ReplicaLag fault
        self.catchups = 0
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
        return max(0, leader.store.wal_durable_revision()
                   - self.applied_revision)

    def apply(self, record):
        """Apply one streamed/caught-up WAL record to this replica."""
        store = self.store
        fields = record.decode()
        if record.type == WAL_FENCE:
            floor = store._fences.get(record.key)
            if floor is None or fields["token"] > floor:
                store._fences[record.key] = fields["token"]
            if store.wal is not None:
                store.wal.append_fence(record.key, fields["token"],
                                       record.revision)
            return
        if record.revision <= self.applied_revision:
            return  # duplicate delivery (catch-up raced a stream record)
        event = WatchEvent(record.type, record.key, fields["value"],
                           record.revision)
        store._apply_replayed(event)
        if store.wal is not None:
            store.wal.append_event(event)
        self.applied_revision = record.revision
        self.records_applied += 1
        self.group._replicated_records.inc()

    def catch_up_from(self, source_wal):
        """Synchronously replay the durable tail of another replica's log.

        Raises :class:`CompactedError` when the tail was compacted away;
        the caller falls back to :meth:`resync_from`.
        """
        records = source_wal.records_since(self.applied_revision)
        for record in records:
            self.apply(record)
        if records:
            self.catchups += 1
        return len(records)

    def resync_from(self, source_wal):
        """Full state transfer: rebuild this replica from another log's
        anchor + tail (the catch-up path crossed a compaction boundary)."""
        saved, self.store.wal = self.store.wal, None
        try:
            source_wal.recover_into(self.store)
        finally:
            self.store.wal = saved
        if self.store.wal is not None:
            self.store.wal.reset(anchor=self.store.snapshot())
        self.applied_revision = self.store.revision
        self.catchups += 1


class ReplicatedStore:
    """Leader/follower store group behind the :class:`EtcdStore` API.

    Reads and writes route to the leader; while the group is leaderless
    (between a kill and the next election) every operation raises the
    injected unavailable error, which the apiserver maps to its
    retryable ``ServerUnavailable``.
    """

    def __init__(self, sim, name, replicas=2, segment_records=512,
                 fsync_interval=0.0,
                 replication_delay=DEFAULT_REPLICATION_DELAY,
                 lease_duration=DEFAULT_LEASE_DURATION,
                 renew_interval=DEFAULT_RENEW_INTERVAL,
                 retry_interval=DEFAULT_RETRY_INTERVAL, jitter=0.2,
                 coordinator=None, elect=True):
        if replicas < 1:
            raise ValueError("a replicated store needs at least 1 replica")
        self.sim = sim
        self.name = name
        self.replication_delay = replication_delay
        self.fence_domain = f"store/{name}"
        self._unavailable_factory = None
        self._term = 0
        self._pending_recovery = None
        self.recoveries = []
        self.failovers = 0
        self.stale_reads = 0
        telemetry = telemetry_of(sim)
        self._replicated_records = telemetry.counter(
            "store_replication_records_total",
            "WAL records applied by followers",
            labels=("store",)).labels(store=name)
        self._stale_reads_metric = telemetry.counter(
            "store_stale_reads_total",
            "follower reads rejected behind the required revision",
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
        for index in range(replicas):
            member = f"{name}-r{index}"
            wal = WriteAheadLog(sim, member, segment_records=segment_records,
                                fsync_interval=fsync_interval)
            store = EtcdStore(sim, name=member, wal=wal)
            replica = StoreReplica(self, index, store)
            self.replicas.append(replica)
            lag_gauge.labels(store=name, replica=f"r{index}").set_function(
                lambda r=replica: float(r.lag))
        # Replica 0 leads from t=0 (bootstrap writes predate any election
        # round); elections only gate failover.
        leader = self.replicas[0]
        leader.role = "leader"
        self._leader = leader
        self._last_leader = leader
        leader.store.wal.on_append = self._stream_record
        for follower in self.replicas[1:]:
            self._attach_follower(follower)
        if elect and replicas > 1:
            coordinator = coordinator or coordinator_of(sim)
            for replica in self.replicas:
                client = coordinator.client(
                    user_agent=f"store-elector-{replica.name}")
                replica.elector = self._make_elector(client, replica,
                                                     lease_duration,
                                                     renew_interval,
                                                     retry_interval, jitter)
            # The initial leader contends first; followers join only
            # after a full lease so replica 0 wins the opening term.
            self.replicas[0].elector.start()
            for offset, replica in enumerate(self.replicas[1:], start=1):
                sim.spawn(
                    self._delayed_start(replica,
                                        lease_duration * (1.0 + 0.25 * offset)),
                    name=f"elector-stagger-{replica.name}")

    def _make_elector(self, client, replica, lease_duration, renew_interval,
                      retry_interval, jitter):
        from repro.clientgo import LeaderElector

        return LeaderElector(
            self.sim, client, name=f"store-{self.name}",
            identity=replica.name, lease_duration=lease_duration,
            renew_interval=renew_interval, retry_interval=retry_interval,
            jitter=jitter,
            on_started_leading=lambda token, r=replica:
                self._on_elected(r, token),
            on_stopped_leading=lambda reason, r=replica:
                self._on_lost(r, reason))

    def _delayed_start(self, replica, delay):
        yield self.sim.timeout(delay)
        if replica.alive and replica.elector is not None:
            replica.elector.start()

    # ------------------------------------------------------------------
    # Streaming replication
    # ------------------------------------------------------------------

    def _stream_record(self, record):
        for replica in self.replicas:
            if (replica.alive and replica.role == "follower"
                    and replica.channel is not None
                    and not replica.channel.closed):
                replica.channel.try_put(record)

    def _attach_follower(self, replica):
        """(Re)join a replica to the leader's stream, catching it up from
        the leader's durable log first so the stream only has to carry
        the delta."""
        leader = self._leader
        if leader is not None and leader is not replica:
            try:
                replica.catch_up_from(leader.store.wal)
            except CompactedError:
                replica.resync_from(leader.store.wal)
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
        leader = self._leader
        if leader is None:
            return None
        self._kill_replica(leader, reason=reason)
        return leader.index

    def kill_replica(self, index, reason="kill"):
        """Kill -9 one replica by index (leader or follower); returns
        the index, or None when it was already dead."""
        replica = self.replicas[index]
        if not replica.alive:
            return None
        self._kill_replica(replica, reason=reason)
        return replica.index

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
                self._kill_replica(replica, reason="mid-txn")
                break
        if callback is not None:
            callback(self)

    def _kill_replica(self, replica, reason):
        if not replica.alive:
            return
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
        replica.store.wal.on_append = None
        if replica.store.available:
            replica.store.power_off()
        elif replica.store.wal is not None:
            replica.store.wal.power_off()
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

    def restart_replica(self, index=None):
        """Bring a dead replica back: recover its store from its own WAL,
        rejoin the leader's stream as a follower, resume contending."""
        replica = None
        if index is not None:
            replica = self.replicas[index]
        else:
            for candidate in self.replicas:
                if not candidate.alive:
                    replica = candidate
                    break
        if replica is None or replica.alive:
            return None
        replica.alive = True
        try:
            replica.store.recover_from_wal()
        except CompactedError:
            replica.store.wipe()  # empty disk: full resync from the leader
        replica.applied_revision = replica.store.revision
        replica.role = "follower"
        if self._leader is not None:
            self._attach_follower(replica)
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
            replica.store.wal.on_append = None
            self._leader = None

    def _promote(self, replica, token):
        """Fencing-gated takeover: catch up from the most durable log,
        fence out the deposed term, then serve."""
        source = self._last_leader
        if source is not None and source is not replica:
            try:
                replica.catch_up_from(source.store.wal)
            except CompactedError:
                replica.resync_from(source.store.wal)
        # Fence barrier: any in-flight write stamped with an older term
        # dies at the storage layer before the new leader serves.
        replica.store.check_fence(self.fence_domain, token)
        replica.role = "leader"
        if replica.channel is not None:
            replica.channel.close()
            replica.channel = None
        self._leader = replica
        self._last_leader = replica
        replica.store.wal.on_append = self._stream_record
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

    @staticmethod
    def _count_lost_writes(durable_state, store):
        lost = 0
        for key, (value, mod_revision) in durable_state.items():
            stored = store._data.get(key)
            if (stored is None or stored.mod_revision != mod_revision
                    or stored.value != value):
                lost += 1
        return lost

    # ------------------------------------------------------------------
    # Stale-read contract
    # ------------------------------------------------------------------

    def read_follower(self, key, min_revision=None, index=None):
        """Serve a read from a follower, tagged with its applied revision.

        Returns ``(value, mod_revision, applied_revision)`` (value None
        when the key is absent at the follower's applied point).  With
        ``min_revision`` set, a follower applied below it raises
        :class:`StaleRead` instead of returning stale data.
        """
        replica = None
        if index is not None:
            candidate = self.replicas[index]
            if candidate.alive:
                replica = candidate
        else:
            # Deterministic choice: the most-lagged live follower (ties
            # break on index) — the adversarial read for staleness tests.
            followers = [r for r in self.replicas
                         if r.alive and r.role == "follower"]
            if followers:
                replica = max(followers, key=lambda r: (r.lag, -r.index))
        if replica is None:
            replica = self._leader
        if replica is None:
            raise self._unavailable(f"{self.name}: no replica to read from")
        if min_revision is not None and replica.applied_revision < \
                min_revision and replica.role != "leader":
            self.stale_reads += 1
            self._stale_reads_metric.inc()
            raise StaleRead(min_revision, replica.applied_revision,
                            replica=replica.name)
        value, mod_revision = replica.store.try_get(key)
        applied = (replica.store.revision if replica.role == "leader"
                   else replica.applied_revision)
        return value, mod_revision, applied

    # ------------------------------------------------------------------
    # EtcdStore facade (routes to the leader)
    # ------------------------------------------------------------------

    @property
    def available(self):
        leader = self._leader
        return leader is not None and leader.alive

    def set_unavailable_factory(self, factory):
        self._unavailable_factory = factory
        for replica in self.replicas:
            replica.store.set_unavailable_factory(factory)

    def _unavailable(self, message):
        if self._unavailable_factory is not None:
            return self._unavailable_factory(message)
        return StoreUnavailable(message)

    def _leader_store(self):
        leader = self._leader
        if leader is None or not leader.alive:
            raise self._unavailable(f"{self.name}: storage has no leader")
        return leader.store

    @property
    def leader(self):
        return self._leader

    @property
    def revision(self):
        return self._leader_store().revision

    def create(self, key, value):
        return self._leader_store().create(key, value)

    def get(self, key):
        return self._leader_store().get(key)

    def get_stored(self, key):
        return self._leader_store().get_stored(key)

    def try_get(self, key):
        return self._leader_store().try_get(key)

    def try_get_stored(self, key):
        return self._leader_store().try_get_stored(key)

    def update(self, key, value, expected_revision=None):
        return self._leader_store().update(key, value,
                                           expected_revision=expected_revision)

    def delete(self, key, expected_revision=None):
        return self._leader_store().delete(key,
                                           expected_revision=expected_revision)

    def txn(self, ops):
        return self._leader_store().txn(ops)

    def list_prefix(self, prefix):
        return self._leader_store().list_prefix(prefix)

    def list_stored(self, prefix):
        return self._leader_store().list_stored(prefix)

    def hold(self, revision):
        # Called in the step that served the list, so this is the store
        # that handed out ``revision``; its release stays bound to it
        # across a failover.
        return self._leader_store().hold(revision)

    def count_prefix(self, prefix):
        return self._leader_store().count_prefix(prefix)

    def watch(self, prefix, from_revision=None, channel_factory=None,
              predicate=None, hint=None):
        return self._leader_store().watch(prefix, from_revision=from_revision,
                                          channel_factory=channel_factory,
                                          predicate=predicate, hint=hint)

    def events_since(self, revision):
        return self._leader_store().events_since(revision)

    def compact(self, keep=1000):
        return self._leader_store().compact(keep=keep)

    def check_fence(self, domain, token):
        return self._leader_store().check_fence(domain, token)

    def snapshot(self):
        return self._leader_store().snapshot()

    def anchor_wal(self, snapshot):
        return self._leader_store().anchor_wal(snapshot)

    def wal_durable_revision(self):
        return self._leader_store().wal_durable_revision()

    def restore(self, snapshot, replay=()):
        """Roll the whole group to a snapshot (operator recovery):
        restore the leader, then full-resync every live follower."""
        store = self._leader_store()
        revision = store.restore(snapshot, replay=replay)
        for replica in self.replicas:
            if replica is not self._leader and replica.alive:
                # A restore can roll state *back*, which catch-up cannot
                # express — force a full state transfer.
                replica.resync_from(store.wal)
                self._attach_follower(replica)
        return revision

    def recover_from_wal(self):
        return self._leader_store().recover_from_wal()

    def wipe(self):
        """Catastrophic loss of the whole group, WALs included."""
        for replica in self.replicas:
            if replica.alive:
                replica.store.wipe()
                replica.applied_revision = 0

    def dump(self):
        return self._leader_store().dump()

    def __len__(self):
        return len(self._leader_store())

    def stats(self):
        leader = self._leader or self._last_leader
        out = leader.store.stats() if leader is not None else {}
        out["replicas"] = [
            {
                "name": replica.name,
                "role": replica.role,
                "alive": replica.alive,
                # A leader applies writes directly; its follower-era
                # applied_revision would be stale.
                "applied_revision": (replica.store.revision
                                     if replica.role == "leader"
                                     else replica.applied_revision),
                "lag": replica.lag,
                "records_applied": replica.records_applied,
                "catchups": replica.catchups,
                "wal": (replica.store.wal.stats()
                        if replica.store.wal is not None else None),
            }
            for replica in self.replicas
        ]
        out["failovers"] = self.failovers
        out["stale_reads"] = self.stale_reads
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

    def __getattr__(self, name):
        # Delegate anything else (test/benchmark introspection such as
        # ``_data`` or ``_fences``) to the current leader's store.
        replicas = self.__dict__.get("replicas")
        if not replicas:
            raise AttributeError(name)
        leader = self.__dict__.get("_leader") or self.__dict__.get(
            "_last_leader")
        if leader is None:
            raise AttributeError(name)
        return getattr(leader.store, name)
