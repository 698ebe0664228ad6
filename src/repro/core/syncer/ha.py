"""Active/standby syncer replication (DESIGN.md §10).

The paper's syncer is a single process: it is stateless with respect to
durable data (everything rebuilds from list+watch), but while it is down
no tenant state converges.  :class:`SyncerHA` runs N syncer replicas
behind one lease:

- every replica registers every tenant and — with
  ``config.syncer.warm_standby`` — runs its informers, so caches are
  primed on all replicas;
- exactly one replica (the lease holder) runs workers, scanners and
  heartbeats; the others idle on warm caches;
- the winner of an election performs a *takeover*: rebuild in-memory-only
  state (vNode bindings, namespace origins) from its caches, issue a
  fence barrier so any deposed leader's in-flight writes die first, then
  start processing and replay one full scan per tenant to pick up
  whatever the old leader dropped mid-flight;
- the fencing token is the lease's ``lease_transitions`` counter, so a
  deposed leader's writes carry a strictly lower token and are rejected
  by the store (:class:`~repro.apiserver.errors.FencingConflict`).

``warm_standby: False`` is the ablation: standbys keep no caches and a
takeover pays the full cold relist, which is what the MTTR benchmark
compares against.
"""

from repro.clientgo import LeaderElector
from repro.config import DEFAULT_CONFIG
from repro.simkernel.errors import Interrupt

from .syncer import Syncer

LEASE_NAME = "syncer-leader"


class SyncerHA:
    """N syncer replicas, one lease, hot (or cold) standby failover."""

    def __init__(self, sim, super_cluster, config=None):
        config = config or DEFAULT_CONFIG
        cfg = config.syncer
        if cfg.replicas < 1:
            raise ValueError("need at least one replica")
        self.sim = sim
        self.super_cluster = super_cluster
        self.warm_standby = cfg.warm_standby
        self.domain = f"syncer/{LEASE_NAME}"
        self.replicas = []
        self.electors = []
        self.active = None
        # Failover measurement: every completed takeover appends a record
        # with elected/serving timestamps and (when a leader loss preceded
        # it) the MTTR from loss to serving.
        self.failovers = []
        self._last_leader_loss = None
        self._takeover_process = None

        for index in range(cfg.replicas):
            syncer = Syncer(sim, super_cluster, config,
                            name=f"syncer-{index}")
            syncer.ha_domain = self.domain
            self.replicas.append(syncer)
        for syncer in self.replicas:
            elector = LeaderElector(
                sim, syncer.super_client, LEASE_NAME, syncer.name,
                lease_duration=cfg.lease_duration,
                renew_interval=cfg.lease_renew_interval,
                retry_interval=cfg.lease_retry_interval,
                jitter=cfg.lease_jitter,
                on_started_leading=(
                    lambda token, s=syncer: self._on_started(s, token)),
                on_stopped_leading=(
                    lambda reason, s=syncer: self._on_stopped(s, reason)),
            )
            self.electors.append(elector)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        if self.warm_standby:
            for syncer in self.replicas:
                syncer.start_informers()
        for elector in self.electors:
            elector.start()

    def stop(self):
        for elector in self.electors:
            elector.stop(release=True)
        for syncer in self.replicas:
            syncer.stop()
        self.active = None

    # ------------------------------------------------------------------
    # Tenant fan-out (every replica tracks every tenant)
    # ------------------------------------------------------------------

    def register_tenant(self, vc, control_plane, weight=None):
        for syncer in self.replicas:
            syncer.register_tenant(vc, control_plane, weight=weight)

    def unregister_tenant(self, tenant):
        for syncer in self.replicas:
            syncer.unregister_tenant(tenant)

    drop_tenant = unregister_tenant

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def elector_for(self, syncer):
        return self.electors[self.replicas.index(syncer)]

    @property
    def syncer(self):
        """Best current replica for read paths: the serving leader, a
        leader-elect mid-takeover, else replica 0 (warm caches)."""
        if self.active is not None:
            return self.active
        for syncer, elector in zip(self.replicas, self.electors):
            if elector.is_leader:
                return syncer
        return self.replicas[0]

    # ------------------------------------------------------------------
    # Election callbacks
    # ------------------------------------------------------------------

    def _on_started(self, syncer, token):
        self._takeover_process = self.sim.spawn(
            self._takeover(syncer, token),
            name=f"{syncer.name}-takeover")

    def _on_stopped(self, syncer, reason):
        self._last_leader_loss = self.sim.now
        syncer.stop_processing()
        if self.active is syncer:
            self.active = None

    def _takeover(self, syncer, token):
        """Coroutine: promote a standby to serving leader."""
        elector = self.elector_for(syncer)
        elected_at = self.sim.now
        loss_at = self._last_leader_loss
        syncer.fencing_token = token
        # Cold standby (or crashed replica): pay the full relist now.
        syncer.start_informers()
        yield from syncer.wait_for_sync()
        if not elector.is_leader:
            return  # lost the lease while syncing — stay standby
        # In-memory-only state is rebuilt from the warm caches before any
        # write: an empty vNode binding map would delete live vNodes.
        syncer.rebuild_namespace_origins()
        for tenant in list(syncer.tenants):
            syncer.vnodes.rebuild(tenant)
        # Fence barrier: advance the store's token floor so every
        # in-flight write from a deposed leader dies before we serve.
        from repro.apiserver.errors import ApiError
        try:
            yield from syncer.super_client.transaction(
                [], fencing=syncer.current_fence())
        except ApiError:
            return  # a newer leader fenced us out already
        if not elector.is_leader:
            return
        syncer.start_processing()
        self.active = syncer
        serving_at = self.sim.now
        record = {
            "identity": syncer.name,
            "token": token,
            "elected_at": elected_at,
            "serving_at": serving_at,
            "sync_seconds": serving_at - elected_at,
            "mttr": (serving_at - loss_at) if loss_at is not None else None,
        }
        self.failovers.append(record)
        # Startup scan: replay one full remediation sweep per tenant so
        # anything the old leader dropped mid-flight converges without
        # waiting a whole scan_interval.
        for tenant in list(syncer.tenants):
            if not elector.is_leader or syncer is not self.active:
                return
            try:
                yield from syncer.scanner.scan_tenant(tenant)
            except Interrupt:
                return

    # ------------------------------------------------------------------
    # Fault injection (chaos hooks)
    # ------------------------------------------------------------------

    def kill_leader(self, mode="crash", notice_delay=2.0):
        """Kill the serving leader.  Returns the victim (or None).

        ``mode="crash"``: the replica dies outright — elector stops
        renewing, processing stops, caches drop.  ``mode="partition"``:
        the replica keeps *believing* it leads for ``notice_delay``
        seconds past its lease deadline and keeps issuing writes with its
        stale token — the split-brain window fencing exists for.
        """
        victim = self.active
        if victim is None:
            return None
        elector = self.elector_for(victim)
        if mode == "crash":
            self._last_leader_loss = self.sim.now
            self.active = None
            elector.crash()
            victim.stop_processing()
            victim.stop_informers()
        elif mode == "partition":
            elector.partition(notice_delay=notice_delay)
        else:
            raise ValueError(f"unknown kill mode: {mode!r}")
        return victim

    def heal(self, syncer):
        """Undo a partition on ``syncer`` (it may re-campaign)."""
        self.elector_for(syncer).heal()

    def restart_replica(self, syncer):
        """Bring a crashed replica back as a (warm) standby."""
        if self.warm_standby:
            syncer.start_informers()
        elector = self.elector_for(syncer)
        elector.start()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self):
        return {
            "replicas": len(self.replicas),
            "warm_standby": self.warm_standby,
            "active": self.active.name if self.active else None,
            "failovers": list(self.failovers),
            "electors": {e.identity: e.stats() for e in self.electors},
            "fenced_writes": sum(s.super_writer.fenced_writes
                                 for s in self.replicas),
        }
