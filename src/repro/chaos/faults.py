"""Injection points: *what* a fault does to the system under test.

A fault is a pair of ``inject()`` / ``restore()`` hooks the engine calls
when a schedule window opens / closes.  Faults touch only documented
chaos hooks on the simulated components:

======================  ==================================================
fault                   hook
======================  ==================================================
ApiServerCrash          ``APIServer.crash()`` / ``recover()``
ApiRequestFault         ``APIServer.fault_injector`` (per-verb error or
                        latency on the request path)
WatchDrop               ``WatchStream.stop()`` on the server's open
                        streams (reflectors must relist)
ForcedCompaction        ``EtcdStore.compact(keep=...)`` (watch replay
                        from an old revision fails → relist)
NetworkPartition        ``Client.fault_injector`` + ``sever_watches()``
                        on one client (one link down, server healthy)
WorkerCrash             ``Process.interrupt()`` on syncer workers (the
                        watchdog must respawn them)
KillLeader              ``SyncerHA.kill_leader()`` (a standby must win
                        the lease and take over; fencing must hold)
CrashControlPlane       ``TenantOperator.crash_control_plane()`` (wiped
                        etcd; the operator restores from its snapshot)
RestoreFromSnapshot     ``EtcdStore.restore()`` on a live tenant CP
                        (rollback; watchers must relist cleanly)
KillStore               ``StoreGroup.kill_leader()`` /
                        ``arm_kill()`` (kill -9 of the storage leader,
                        optionally mid-``txn``; a fenced follower must
                        take over with zero committed-write loss)
ReplicaLag              ``StoreGroup.set_extra_lag()`` (one follower
                        falls behind; a failover must catch it up)
WalCorruption           ``WriteAheadLog.tear_tail()`` (torn tail
                        record; recovery keeps the committed prefix
                        and resyncs the rest from the leader)
TenantStorm             none — ordinary (abusive) client traffic at the
                        super apiserver's front door, which APF
                        admission must shed
======================  ==================================================

Faults draw any randomness from the engine RNG handed to ``bind()``.
:data:`FAULTS` at the bottom of this module is the one table of what a
scenario file may schedule: DSL name, class, legal targets, parameters,
and how to build the fault against a live env.
"""

from repro.apiserver.apf import TENANT_TIERS
from repro.apiserver.errors import ServerUnavailable

from .spec import BOOL, CHOICE, INT, NUMBER, STRS, Field, load


class Fault:
    """Base injection point.

    A subclass implements ``inject()`` (open a window) and
    ``counters()``: what the fault did beyond opening windows, as
    ``{name: count}`` for :meth:`ChaosEngine.report`.  Every fault
    states its own (``{}`` when ``injections`` says it all), so a new
    one cannot be silently missing from the report.
    """

    def __init__(self, name=None):
        self.name = name or type(self).__name__
        self.sim = None
        self.rng = None
        self.injections = 0

    def bind(self, sim, rng):
        """Called once by the engine before the first window."""
        self.sim = sim
        self.rng = rng

    def restore(self):
        """Close the window (no-op for instantaneous faults)."""


def _api_of(target):
    """Accept an APIServer, a ControlPlane, or anything with ``.api``."""
    return getattr(target, "api", target)


class ApiServerCrash(Fault):
    """Take one apiserver down for the window (all its watches break)."""

    def __init__(self, target, name=None):
        super().__init__(name=name or f"crash:{_api_of(target).name}")
        self.api = _api_of(target)

    def inject(self):
        self.injections += 1
        self.api.crash()

    def restore(self):
        self.api.recover()

    def counters(self):
        return {}


class ApiRequestFault(Fault):
    """Per-verb error/latency injection on one apiserver's request path.

    While active, a matching request fails with a retryable
    ``ServerUnavailable`` with probability ``error_rate`` and pays
    ``extra_latency`` seconds first.
    Instances chain, so several request faults can overlap on one server.
    """

    def __init__(self, target, verbs=None, error_rate=1.0,
                 extra_latency=0.0, name=None):
        api = _api_of(target)
        super().__init__(name=name or f"reqfault:{api.name}")
        self.api = api
        self.verbs = frozenset(verbs) if verbs else None
        self.error_rate = error_rate
        self.extra_latency = extra_latency
        self._active = False
        self._previous = None
        self.errors_injected = 0
        self.latency_injected = 0

    def inject(self):
        self.injections += 1
        self._active = True
        if self.api.fault_injector is not self:
            self._previous = self.api.fault_injector
            self.api.fault_injector = self

    def restore(self):
        self._active = False
        if self.api.fault_injector is self:
            self.api.fault_injector = self._previous
            self._previous = None

    def on_request(self, verb, plural):
        """Coroutine hook called by ``APIServer._begin``."""
        if self._previous is not None:
            yield from self._previous.on_request(verb, plural)
        if not self._active or (self.verbs is not None
                                and verb not in self.verbs):
            return
        if self.extra_latency:
            self.latency_injected += 1
            yield self.sim.timeout(self.extra_latency)
        if self.error_rate >= 1.0 or self.rng.random() < self.error_rate:
            self.errors_injected += 1
            raise ServerUnavailable(f"{self.name} injected")

    def counters(self):
        return {"errors_injected": self.errors_injected,
                "latency_injected": self.latency_injected}


class WatchDrop(Fault):
    """Sever open watch streams on one apiserver (connection resets).

    ``fraction`` selects how many of the currently open streams die; the
    affected reflectors observe a closed channel and relist.
    """

    def __init__(self, target, fraction=1.0, name=None):
        api = _api_of(target)
        super().__init__(name=name or f"watchdrop:{api.name}")
        self.api = api
        self.fraction = fraction
        self.streams_dropped = 0

    def inject(self):
        self.injections += 1
        streams = [s for s in list(self.api._watch_streams) if not s.closed]
        if self.fraction < 1.0:
            count = max(1, int(len(streams) * self.fraction))
            streams = self.rng.sample(streams, min(count, len(streams)))
        for stream in streams:
            stream.stop()
            self.streams_dropped += 1

    def counters(self):
        return {"streams_dropped": self.streams_dropped}


class ForcedCompaction(Fault):
    """Compact one etcd's watch history down to ``keep`` events.

    A reflector that later tries to resume a watch from a pre-compaction
    revision gets :class:`RevisionCompacted` and must relist.
    """

    def __init__(self, target, keep=0, name=None):
        api = _api_of(target)
        super().__init__(name=name or f"compact:{api.name}")
        self.api = api
        self.keep = keep

    def inject(self):
        # The store the apiserver serves from now: a replica group's
        # failover re-points it.
        self.injections += 1
        self.api.store.compact(keep=self.keep)

    def counters(self):
        return {}


class NetworkPartition(Fault):
    """Cut the link between one client and its apiserver.

    The server stays healthy for everyone else; this client's requests
    fail with :class:`ServerUnavailable` and its established watch
    streams die with the link.  Pass the syncer's per-tenant client
    (``syncer.tenants[key].client``) to model a syncer↔tenant partition.
    """

    def __init__(self, client, name=None):
        super().__init__(
            name=name or f"partition:{client.user_agent}")
        self.client = client
        self._active = False
        self.requests_blocked = 0

    def inject(self):
        self.injections += 1
        self._active = True
        if self.client.fault_injector is not self:
            self.client.fault_injector = self
        self.client.sever_watches()

    def restore(self):
        self._active = False
        if self.client.fault_injector is self:
            self.client.fault_injector = None

    def check(self):
        """Synchronous hook called by ``Client._call`` / ``watch``."""
        if self._active:
            self.requests_blocked += 1
            raise ServerUnavailable(f"{self.name}: link down")

    def counters(self):
        return {"requests_blocked": self.requests_blocked}


class KillLeader(Fault):
    """Kill the serving syncer leader (DESIGN.md §10).

    ``mode="crash"``: the replica dies; the window's ``restore()``
    brings it back as a standby.  ``mode="partition"``: the leader is
    cut off but keeps writing with its stale fencing token until it
    notices — the split-brain window storage fencing must cover.
    """

    def __init__(self, ha, mode="crash", notice_delay=2.0):
        super().__init__(name=f"killleader:{mode}")
        self.ha = ha
        self.mode = mode
        self.notice_delay = notice_delay
        self.leaders_killed = 0
        self._victim = None

    def inject(self):
        victim = self.ha.kill_leader(mode=self.mode,
                                     notice_delay=self.notice_delay)
        if victim is not None:
            self.injections += 1
            self.leaders_killed += 1
            self._victim = victim

    def restore(self):
        victim, self._victim = self._victim, None
        if victim is None:
            return
        if self.mode == "crash":
            self.ha.restart_replica(victim)
        else:
            self.ha.heal(victim)

    def counters(self):
        return {"leaders_killed": self.leaders_killed}


class CrashControlPlane(Fault):
    """Crash one tenant control plane with total data loss.

    The apiserver goes down and its etcd is wiped; the tenant operator
    must notice and reprovision from its latest snapshot (DESIGN.md
    §10.3).  Recovery is driven by the operator, not by ``restore()``.
    """

    def __init__(self, operator, key, name=None):
        super().__init__(name=name or f"cpcrash:{key}")
        self.operator = operator
        self.key = key
        self.crashes = 0

    def inject(self):
        if self.operator.crash_control_plane(self.key):
            self.injections += 1
            self.crashes += 1

    def counters(self):
        return {"crashes": self.crashes}


class RestoreFromSnapshot(Fault):
    """Roll one live tenant control plane back to its last snapshot.

    No crash: the etcd state snaps back in place, every open watch is
    cancelled, and reflectors must relist cleanly across the restore
    (their resume revisions are now compacted away).
    """

    def __init__(self, operator, key, name=None):
        super().__init__(name=name or f"rollback:{key}")
        self.operator = operator
        self.key = key
        self.rollbacks = 0

    def inject(self):
        control_plane = self.operator.control_planes.get(self.key)
        snapshot = self.operator.snapshots.get(self.key)
        if control_plane is None or snapshot is None:
            return
        self.injections += 1
        self.rollbacks += 1
        control_plane.api.store.restore(snapshot)

    def counters(self):
        return {"rollbacks": self.rollbacks}


class KillStore(Fault):
    """Kill -9 the replicated storage leader (DESIGN.md §13).

    ``mid_txn=False``: the leader dies at the window open.
    ``mid_txn=True``: the kill is *armed* instead — the leader dies
    after K ops inside its next multi-op ``txn`` (K drawn from the
    engine RNG), i.e. between WAL appends of a single transaction, the
    worst crash point for atomicity.  Either way a follower must win
    the store lease, pass the fencing barrier, and serve with zero
    committed-write loss; the window's ``restore()`` restarts the
    victim from its own WAL so a later kill has somewhere to fail over.
    """

    def __init__(self, group, mid_txn=False, max_ops=4):
        super().__init__(
            name=f"killstore:{'midtxn' if mid_txn else 'leader'}")
        self.group = group
        self.mid_txn = mid_txn
        self.max_ops = max_ops
        self.stores_killed = 0
        self.mid_txn_kills = 0
        self._victim = None

    def inject(self):
        if self.group.leader is None:
            return  # leaderless already: nothing to kill
        self.injections += 1
        if self.mid_txn:
            after = self.rng.randrange(self.max_ops)
            self.group.arm_kill(after, callback=self._on_killed)
        else:
            self.stores_killed += 1
            self._victim = self.group.kill_leader(reason=self.name)

    def _on_killed(self, _store):
        self.stores_killed += 1
        self.mid_txn_kills += 1

    def restore(self):
        victim, self._victim = self._victim, None
        if victim is not None:
            self.group.restart_replica(victim)
        else:
            # Armed/mid-txn path: an arm that never fired (no txn hit
            # the window) is defused, and whoever is dead comes back.
            self.group.disarm_kill()
            self.group.restart_replica()

    def counters(self):
        return {"stores_killed": self.stores_killed,
                "mid_txn_kills": self.mid_txn_kills}


class ReplicaLag(Fault):
    """Slow one follower's apply pump by ``extra_lag`` seconds/record.

    While the window is open the follower's applied revision trails the
    leader's durable revision (the ``replica_lag_events`` gauge), so a
    failover in the window must catch the promoted follower up from the
    old leader's log.  The window close removes the lag and the
    follower catches up.
    """

    def __init__(self, group, extra_lag=0.5):
        super().__init__(name=f"replicalag:{group.name}")
        self.group = group
        self.extra_lag = extra_lag
        self.lagged = 0
        self._victim = None

    def inject(self):
        victim = self.group.set_extra_lag(self.extra_lag)
        if victim is None:
            return  # no live follower to slow down
        self.injections += 1
        self.lagged += 1
        self._victim = victim

    def restore(self):
        victim, self._victim = self._victim, None
        if victim is not None:
            self.group.set_extra_lag(0.0, index=victim)

    def counters(self):
        return {"lagged": self.lagged}


class WalCorruption(Fault):
    """Tear the tail record of one store replica's write-ahead log.

    Models a write torn mid-flight by a crash: the victim follower is
    killed and its last WAL record's payload truncated so the checksum
    no longer matches.  Recovery (the window's ``restore()``) must
    detect the tear, truncate to the intact committed prefix, and
    resync the lost suffix from the leader — corruption is repaired
    from peers, never replayed into the store.

    On a plain single store (no replica group) the tail is torn in
    place without a kill; the next recovery exercises the same
    truncate-to-prefix path.
    """

    def __init__(self, control_plane):
        self.group = control_plane.store_group
        self.api = control_plane.api
        super().__init__(
            name=f"walcorrupt:{(self.group or self.api.store).name}")
        self.tails_torn = 0
        self._victim = None

    def inject(self):
        if self.group is not None:
            followers = [r for r in self.group.replicas
                         if r.alive and r.role == "follower"]
            if not followers:
                return
            victim = self.rng.choice(sorted(followers,
                                            key=lambda r: r.index))
            self.group.kill_replica(victim.index, reason=self.name)
            if victim.store.wal.tear_tail() is not None:
                self.tails_torn += 1
            self.injections += 1
            self._victim = victim.index
        else:
            wal = self.api.store.wal
            if wal is None:
                return
            self.injections += 1
            if wal.tear_tail() is not None:
                self.tails_torn += 1

    def restore(self):
        victim, self._victim = self._victim, None
        if victim is not None:
            self.group.restart_replica(victim)

    def counters(self):
        return {"tails_torn": self.tails_torn}


class WorkerCrash(Fault):
    """Kill random syncer workers; the watchdog must respawn them."""

    def __init__(self, syncer, count=1):
        super().__init__(name=f"workercrash:{syncer.name}")
        self.syncer = syncer
        self.count = count
        self.workers_killed = 0

    def inject(self):
        self.injections += 1
        pool = sorted(self.syncer.worker_processes)
        if not pool:
            return
        victims = self.rng.sample(pool, min(self.count, len(pool)))
        for label in victims:
            process = self.syncer.worker_processes.get(label)
            if process is not None:
                self.workers_killed += 1
                process.interrupt(f"{self.name}: chaos kill")

    def counters(self):
        return {"workers_killed": self.workers_killed}


class TenantStorm(Fault):
    """One tenant floods the super apiserver at many times normal QPS.

    Unlike the other faults this hooks nothing: the storm *is* ordinary
    (abusive) client traffic — ``concurrency`` flooder processes issuing
    list requests as ``user`` at an aggregate ``qps`` against the super
    apiserver, exactly the noisy-neighbor front-door pressure APF
    admission (DESIGN.md §15) exists to absorb.  The abuser is impatient:
    ``max_retries=0`` and no client-side throttle, so shed requests
    surface immediately and are counted in ``requests_shed``.

    ``tier`` optionally registers the user with the server's APF
    classifier (an abusive *free* tenant is the headline case); without
    APF the storm still runs and simply competes for the shared
    max-inflight pool — the degradation the seed exhibits.
    """

    def __init__(self, super_cluster, user="tenant-storm", qps=300.0,
                 concurrency=8, tier=None, name=None):
        super().__init__(name=name or f"storm:{user}")
        self.super_cluster = super_cluster
        self.user = user
        self.qps = qps
        self.concurrency = max(1, concurrency)
        self.tier = tier
        self._credential = None
        self._procs = []
        self.requests_ok = 0
        self.requests_shed = 0
        self.requests_failed = 0

    def bind(self, sim, rng):
        super().bind(sim, rng)
        self._credential = self.super_cluster.register_user(self.user)
        apf = getattr(self.super_cluster, "apf", None)
        if apf is not None and self.tier is not None:
            apf.classifier.assign(self.user, self.tier)

    def inject(self):
        self.injections += 1
        for index in range(self.concurrency):
            self._procs.append(self.sim.spawn(
                self._flood(index), name=f"{self.name}-{index}"))

    def restore(self):
        procs, self._procs = self._procs, []
        for process in procs:
            process.interrupt(f"{self.name}: window closed")

    def _flood(self, index):
        from repro.apiserver.errors import ApiError, TooManyRequests
        from repro.simkernel.errors import Interrupt

        client = self.super_cluster.client(
            credential=self._credential,
            user_agent=f"{self.name}-{index}",
            qps=1_000_000, burst=2_000_000)
        client.max_retries = 0
        period = self.concurrency / self.qps
        try:
            while True:
                try:
                    yield from client.list("pods", namespace="default")
                    self.requests_ok += 1
                except TooManyRequests:
                    self.requests_shed += 1
                except ApiError:
                    self.requests_failed += 1
                yield self.sim.timeout(period)
        except Interrupt:
            return

    def counters(self):
        return {"requests_ok": self.requests_ok,
                "requests_shed": self.requests_shed,
                "requests_failed": self.requests_failed}


# ----------------------------------------------------------------------
# The fault table: every schedulable fault, enumerated once
# ----------------------------------------------------------------------


class FaultKind:
    """One row of :data:`FAULTS`.

    ``targets`` are the legal target kinds (``"tenant"`` means any
    declared tenant name, ``"super"`` and ``"syncer"`` are literal).
    ``params`` is the fault's parameter table: one
    :class:`~repro.chaos.spec.Field` row per parameter (type, default,
    bounds or choices), keyed by name, so iterating it yields the names.
    A scenario's ``chaos[].params`` is checked against it at load time.
    ``make(env, handles, target, params)`` constructs the fault against
    a live env, where ``handles`` maps tenant name →
    :class:`TenantHandle` and ``params`` holds every parameter, typed
    and defaulted by the table; callers go through :meth:`build`.
    ``requires`` is an optional ``(description, predicate(control))``
    pair naming the deployment the fault needs (e.g. a replicated
    store).
    """

    def __init__(self, cls, targets, params, make, requires=None):
        self.cls = cls
        self.targets = targets
        self.params = {row.name: row for row in params}
        self.make = make
        self.requires = requires

    def build(self, env, handles, target, params):
        """The fault for one ``chaos:`` entry (``params`` as written)."""
        return self.make(env, handles, target,
                         load(self.params.values(), params, "params"))


def _plane(env, handles, target):
    """The cluster/control plane an apiserver-level fault acts on."""
    if target == "super":
        return env.super_cluster
    return handles[target].control_plane


def _build_storm(env, handles, target, params):
    # The abuser floods the *super* apiserver under a per-tenant storm
    # identity; its tier defaults to the tenant's declared tier so APF
    # classifies (and sheds) it accordingly.
    return TenantStorm(
        env.super_cluster, user=f"storm-{target}", qps=params["qps"],
        concurrency=params["concurrency"],
        tier=params["tier"] or handles[target].tier,
        name=f"storm:{target}")


_REPLICATED_STORE = ("control.store_replicas >= 2",
                     lambda control: control.store_replicas >= 2)

#: DSL name → :class:`FaultKind`.  The scenario model validates against
#: this table and the runner builds from it; nothing else lists faults.
FAULTS = {
    "apiserver-crash": FaultKind(
        ApiServerCrash, ("tenant", "super"), (),
        lambda env, handles, target, params: ApiServerCrash(
            _plane(env, handles, target), name=f"crash:{target}")),
    "request-fault": FaultKind(
        ApiRequestFault, ("tenant", "super"),
        (Field("error_rate", NUMBER, 1.0, ge=0, le=1),
         Field("extra_latency", NUMBER, 0.0, ge=0),
         Field("verbs", STRS, None)),
        lambda env, handles, target, params: ApiRequestFault(
            _plane(env, handles, target), verbs=params["verbs"],
            error_rate=params["error_rate"],
            extra_latency=params["extra_latency"],
            name=f"reqfault:{target}")),
    "watch-drop": FaultKind(
        WatchDrop, ("tenant", "super"),
        (Field("fraction", NUMBER, 1.0, ge=0, le=1),),
        lambda env, handles, target, params: WatchDrop(
            _plane(env, handles, target), fraction=params["fraction"],
            name=f"watchdrop:{target}")),
    "compaction": FaultKind(
        ForcedCompaction, ("tenant", "super"),
        (Field("keep", INT, 0, ge=0),),
        lambda env, handles, target, params: ForcedCompaction(
            _plane(env, handles, target), keep=params["keep"],
            name=f"compact:{target}")),
    "partition": FaultKind(
        NetworkPartition, ("tenant",), (),
        lambda env, handles, target, params: NetworkPartition(
            env.syncer.tenants[handles[target].key].client,
            name=f"partition:{target}")),
    "worker-crash": FaultKind(
        WorkerCrash, ("syncer",), (Field("count", INT, 1, ge=1),),
        lambda env, handles, target, params: WorkerCrash(
            env.syncer, count=params["count"])),
    "tenant-storm": FaultKind(
        TenantStorm, ("tenant",),
        (Field("qps", NUMBER, 400.0, gt=0),
         Field("concurrency", INT, 200, ge=1),
         Field("tier", CHOICE, None, choices=TENANT_TIERS)),
        _build_storm),
    "kill-leader": FaultKind(
        KillLeader, ("syncer",),
        (Field("mode", CHOICE, "crash", choices=("crash", "partition")),
         Field("notice_delay", NUMBER, 2.0, ge=0)),
        lambda env, handles, target, params: KillLeader(
            env.syncer_ha, mode=params["mode"],
            notice_delay=params["notice_delay"]),
        requires=("control.syncer_replicas >= 2",
                  lambda control: control.syncer_replicas >= 2)),
    "crash-control-plane": FaultKind(
        CrashControlPlane, ("tenant",), (),
        lambda env, handles, target, params: CrashControlPlane(
            env.tenant_operator, handles[target].key,
            name=f"cpcrash:{target}")),
    "restore-snapshot": FaultKind(
        RestoreFromSnapshot, ("tenant",), (),
        lambda env, handles, target, params: RestoreFromSnapshot(
            env.tenant_operator, handles[target].key,
            name=f"rollback:{target}")),
    "kill-store": FaultKind(
        KillStore, ("super",),
        (Field("mid_txn", BOOL, False), Field("max_ops", INT, 4, ge=1)),
        lambda env, handles, target, params: KillStore(
            env.super_cluster.store_group, mid_txn=params["mid_txn"],
            max_ops=params["max_ops"]),
        requires=_REPLICATED_STORE),
    "replica-lag": FaultKind(
        ReplicaLag, ("super",), (Field("extra_lag", NUMBER, 0.5, ge=0),),
        lambda env, handles, target, params: ReplicaLag(
            env.super_cluster.store_group, extra_lag=params["extra_lag"]),
        requires=_REPLICATED_STORE),
    "wal-corruption": FaultKind(
        WalCorruption, ("super",), (),
        lambda env, handles, target, params: WalCorruption(
            env.super_cluster),
        requires=("control.store_replicas >= 2 or control.store_wal",
                  lambda control: (control.store_replicas >= 2
                                   or control.store_wal))),
}
