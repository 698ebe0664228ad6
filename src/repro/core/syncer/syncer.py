"""The centralized resource syncer (paper §III-C, Fig. 5).

One syncer instance serves *all* tenant control planes:

- per-tenant informers feed a shared **downward** fair work queue
  (per-tenant sub-queues, weighted round-robin dispatch);
- super-cluster informers feed the **upward** queue with status changes;
- per-resource reconcilers do the actual downward/upward convergence,
  comparing against informer caches only;
- the enqueue/dequeue critical sections are guarded by one lock per
  queue — the serialization the paper blames for the ~21% throughput
  degradation;
- a per-tenant periodic scanner remediates permanently-missed states;
- the vNode manager maintains one virtual node per physical node per
  tenant and broadcasts heartbeats.

The syncer is stateless with respect to durable data (everything it knows
is rebuilt from list+watch), so a restart just relists — measured in the
restart benchmark.
"""

from repro.apiserver.errors import ApiError
from repro.clientgo import (
    FairWorkQueue,
    InformerFactory,
    JitteredBackoff,
    ShutDown,
)
from repro.config import DEFAULT_CONFIG
from repro.objects import Namespace
from repro.objects.meta import same_spec
from repro.simkernel.accounting import CpuAccount, MemoryAccount
from repro.simkernel.errors import Interrupt
from repro.simkernel.resources import Lock
from repro.telemetry import telemetry_of

from ..crd import super_namespace
from .batch import DownwardBatchWriter
from .conversion import (
    ANNOTATION_TENANT_NAMESPACE,
    ANNOTATION_VC,
    INDEX_TENANT,
    LABEL_MANAGED_BY,
    MANAGED_BY_VALUE,
    tenant_index,
    tenant_origin,
)
from .reconcilers import (
    DOWNWARD_TYPES,
    ClusterResourceUpward,
    EndpointsUpward,
    EventUpward,
    GenericDownward,
    NamespaceDownward,
    PodDownward,
    PodUpward,
    ServiceDownward,
)
from .crd_sync import CrdSyncManager
from .health import HealthTracker
from .scanner import PeriodicScanner
from .tracing import TraceStore
from .vnode import VNodeManager

# Super-cluster resources the syncer watches.
SUPER_WATCHED = (
    "pods", "namespaces", "services", "secrets", "configmaps",
    "serviceaccounts", "persistentvolumeclaims", "resourcequotas",
    "endpoints", "nodes", "events", "persistentvolumes", "storageclasses",
)
# Tenant-side resources the syncer watches per tenant.  "nodes" is
# watch-only: it feeds the scanner's stale-vNode detection (vNodes live
# in the tenant control plane but are managed by the vNode manager).
TENANT_WATCHED = DOWNWARD_TYPES + ("endpoints", "persistentvolumes",
                                   "storageclasses", "nodes")


class TenantRegistration:
    """Everything the syncer holds for one tenant control plane."""

    __slots__ = ("vc", "control_plane", "client", "informers", "weight")

    def __init__(self, vc, control_plane, client, informers, weight):
        self.vc = vc
        self.control_plane = control_plane
        self.client = client
        self.informers = informers
        self.weight = weight


class Syncer:
    """The centralized syncer controller."""

    def __init__(self, sim, super_cluster, config=None, name="syncer"):
        self.sim = sim
        self.super_cluster = super_cluster
        self.config = config or DEFAULT_CONFIG
        self.name = name
        cfg = self.config.syncer

        self.cpu = CpuAccount()
        self.mem = MemoryAccount()

        self.super_client = super_cluster.client(
            user_agent=f"{name}-super", qps=1_000_000, burst=2_000_000,
            cpu_account=self.cpu)
        mem_cfg = self.config.memory
        self.super_informers = InformerFactory(
            sim, self.super_client,
            size_factor=mem_cfg.object_size_factor,
            size_overhead=mem_cfg.informer_overhead_bytes,
            handler_cost=cfg.informer_handler, cpu_account=self.cpu)

        # Dispatch (DESIGN.md §9): tenants hash to one of
        # ``dispatch_shards`` shards of each fair queue, each shard with
        # its own lock; one shard is the paper's single queue + lock.
        self.downward = FairWorkQueue(
            sim, name=f"{name}-downward", shards=cfg.dispatch_shards,
            fair=cfg.fair_queuing)
        self.upward = FairWorkQueue(
            sim, name=f"{name}-upward", shards=cfg.dispatch_shards,
            fair=cfg.fair_queuing)
        self.dispatch_shards = self.downward.num_shards
        self.dws_locks = [Lock(sim, name=f"{name}-dws-lock-{i}")
                          for i in range(self.dispatch_shards)]
        self.uws_locks = [Lock(sim, name=f"{name}-uws-lock-{i}")
                          for i in range(self.dispatch_shards)]
        self.super_writer = DownwardBatchWriter(self)

        self.tenants = {}
        telemetry = telemetry_of(sim)
        self._telemetry = telemetry
        self.trace_store = TraceStore(telemetry=telemetry)
        self.vnodes = VNodeManager(self)
        self.crd_sync = CrdSyncManager(self)
        self.scanner = PeriodicScanner(self)
        # Bookkeeping counters live in the registry (one family, labeled
        # by syncer and event); :attr:`counters` renders the historical
        # dict view from it.
        self._events_counter = telemetry.counter(
            "syncer_events_total", "syncer bookkeeping events",
            labels=("syncer", "event"))
        items = telemetry.counter(
            "syncer_items_total", "queue items reconciled",
            labels=("syncer", "direction"))
        self._items_dws = items.labels(syncer=name, direction="downward")
        self._items_uws = items.labels(syncer=name, direction="upward")
        self.health = HealthTracker(self)
        # label -> live worker Process, maintained by the supervisors.
        self.worker_processes = {}
        # label -> respawn count (watchdog restarts after crashes).
        self.worker_restarts = {}

        self.downward_reconcilers = self._build_downward_reconcilers()
        self.upward_reconcilers = self._build_upward_reconcilers()

        # super namespace -> (tenant vc key, tenant namespace)
        self._namespace_origin = {}
        self._ensured_namespaces = set()
        self._processes = []
        self._stopped = False
        self._started = False
        self._informers_started = False
        # HA (DESIGN.md §10): set by SyncerHA when this instance is one
        # replica of an active/standby group.  While set, every downward
        # write is stamped with (ha_domain, fencing_token) so the store
        # rejects a deposed leader's in-flight batches.
        self.ha_domain = None
        self.fencing_token = 0
        self._setup_super_informers()
        self._register_memory_meters()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _build_downward_reconcilers(self):
        from repro.objects import (
            ConfigMap,
            PersistentVolumeClaim,
            ResourceQuota,
            Secret,
            ServiceAccount,
        )

        return {
            "namespaces": NamespaceDownward(self),
            "pods": PodDownward(self),
            "services": ServiceDownward(self),
            "secrets": GenericDownward(self, "secrets", Secret),
            "configmaps": GenericDownward(self, "configmaps", ConfigMap),
            "serviceaccounts": GenericDownward(self, "serviceaccounts",
                                               ServiceAccount),
            "persistentvolumeclaims": GenericDownward(
                self, "persistentvolumeclaims", PersistentVolumeClaim),
            "resourcequotas": GenericDownward(self, "resourcequotas",
                                              ResourceQuota),
        }

    def _build_upward_reconcilers(self):
        from repro.objects import PersistentVolume, StorageClass

        return {
            "pods": PodUpward(self),
            "events": EventUpward(self),
            "endpoints": EndpointsUpward(self),
            "persistentvolumes": ClusterResourceUpward(
                self, "persistentvolumes", PersistentVolume),
            "storageclasses": ClusterResourceUpward(
                self, "storageclasses", StorageClass),
        }

    def _setup_super_informers(self):
        for plural in SUPER_WATCHED:
            informer = self.super_informers.informer(plural)
            # Synced super objects carry their owner VC annotation; the
            # tenant index turns the scanner's per-tenant sweeps from
            # O(all objects) into O(tenant's objects).
            informer.cache.add_index(INDEX_TENANT, tenant_index)

        pods = self.super_informer("pods")
        pods.add_handlers(
            on_add=self._on_super_pod,
            on_update=lambda old, new: self._on_super_pod(new, old=old),
        )
        events = self.super_informer("events")
        events.add_handlers(on_add=self._on_super_event)
        endpoints = self.super_informer("endpoints")
        endpoints.add_handlers(
            on_add=self._on_super_endpoints,
            on_update=lambda old, new: self._on_super_endpoints(new),
        )
        for plural in ("persistentvolumes", "storageclasses"):
            informer = self.super_informer(plural)
            informer.add_handlers(
                on_add=lambda obj, p=plural: self._broadcast_upward(p, obj),
                on_update=lambda old, new, p=plural: self._broadcast_upward(
                    p, new),
                on_delete=lambda obj, p=plural: self._broadcast_upward(
                    p, obj),
            )

    def _register_memory_meters(self):
        mem_cfg = self.config.memory

        def tenant_cache_bytes():
            return sum(reg.informers.total_cache_bytes
                       for reg in self.tenants.values())

        def queue_bytes():
            return ((len(self.downward) + len(self.upward))
                    * mem_cfg.queue_entry_bytes)

        self.mem.register_meter("super-informer-caches",
                                lambda: self.super_informers.total_cache_bytes)
        self.mem.register_meter("tenant-informer-caches", tenant_cache_bytes)
        self.mem.register_meter("work-queues", queue_bytes)

    # ------------------------------------------------------------------
    # Informer accessors
    # ------------------------------------------------------------------

    def super_informer(self, plural):
        return self.super_informers.informer(plural)

    def tenant_informer(self, tenant, plural):
        return self.tenants[tenant].informers.informer(plural)

    def spawn(self, coroutine, name=None):
        return self.sim.spawn(coroutine, name=name)

    def metrics_inc(self, counter):
        self._events_counter.labels(syncer=self.name, event=counter).inc()

    @property
    def counters(self):
        """Historical dict view of this syncer's bookkeeping events,
        rendered from the ``syncer_events_total`` registry family."""
        return {values[1]: int(child.value)
                for values, child in self._events_counter.children()
                if values[0] == self.name}

    def current_fence(self):
        """The (domain, token) stamp for downward writes, or None when
        this syncer is not running as an HA replica."""
        if self.ha_domain is None:
            return None
        return (self.ha_domain, self.fencing_token)

    # ------------------------------------------------------------------
    # Tenant registration
    # ------------------------------------------------------------------

    def register_tenant(self, vc, control_plane, weight=None):
        """Attach a tenant control plane to the syncer."""
        tenant = vc.key
        if tenant in self.tenants:
            return self.tenants[tenant]
        client = control_plane.client(
            user_agent=f"{self.name}-{control_plane.name}",
            qps=1_000_000, burst=2_000_000, cpu_account=self.cpu)
        mem_cfg = self.config.memory
        informers = InformerFactory(
            self.sim, client,
            size_factor=mem_cfg.object_size_factor,
            size_overhead=mem_cfg.informer_overhead_bytes,
            handler_cost=self.config.syncer.informer_handler,
            cpu_account=self.cpu)
        registration = TenantRegistration(
            vc, control_plane, client, informers,
            weight or vc.spec.tenant_weight or 1)
        self.tenants[tenant] = registration
        self.downward.register_tenant(tenant, weight=registration.weight)
        self.upward.register_tenant(tenant, weight=registration.weight)

        for plural in TENANT_WATCHED:
            informer = informers.informer(plural)
            if plural in DOWNWARD_TYPES:
                self._wire_downward_handlers(tenant, plural, informer)
        if self._informers_started:
            informers.start_all()
        if self._started:
            self.scanner.start_tenant(tenant)
        return registration

    def unregister_tenant(self, tenant):
        registration = self.tenants.pop(tenant, None)
        if registration is None:
            return
        self.crd_sync.drop_tenant(tenant)
        self.health.drop_tenant(tenant)
        self.scanner.stop_tenant(tenant)
        registration.informers.stop_all()
        self.downward.remove_tenant(tenant)
        self.upward.remove_tenant(tenant)

    # Teardown of per-tenant state when a VC is deprovisioned (wired to
    # TenantOperator's on_deprovisioned hook): identical to unregistering.
    drop_tenant = unregister_tenant

    def _wire_downward_handlers(self, tenant, plural, informer):
        def on_add(obj):
            if plural == "pods":
                self.trace_store.begin(
                    tenant, obj.key,
                    obj.metadata.creation_timestamp
                    if obj.metadata.creation_timestamp is not None
                    else self.sim.now)
            self.enqueue_downward(tenant, plural, obj.key)

        def on_update(old, new):
            if not self._downward_relevant_change(old, new):
                return
            self.enqueue_downward(tenant, plural, new.key)

        def on_delete(obj):
            self.enqueue_downward(tenant, plural, obj.key)

        informer.add_handlers(on_add=on_add, on_update=on_update,
                              on_delete=on_delete)

    @staticmethod
    def _downward_relevant_change(old, new):
        """Skip echoes of the syncer's own upward writes (status, binding)."""
        if old is None:
            return True
        if (old.metadata.deletion_timestamp
                != new.metadata.deletion_timestamp):
            return True
        if (old.metadata.labels or {}) != (new.metadata.labels or {}):
            return True
        # Payload types without a spec (Secrets, ConfigMaps) change via
        # their data blocks — check those before the spec short-circuit.
        for attr in ("data", "string_data", "binary_data"):
            if getattr(old, attr, None) != getattr(new, attr, None):
                return True
        return not same_spec(old, new, ignore=("nodeName",))

    # ------------------------------------------------------------------
    # Super-cluster event handlers (upward feeding)
    # ------------------------------------------------------------------

    def _on_super_pod(self, pod, old=None):
        origin = tenant_origin(pod)
        if origin is None:
            return
        tenant = origin[0]
        if tenant not in self.tenants:
            return
        if pod.status.is_ready and (old is None or not old.status.is_ready):
            t_key = (f"{origin[1]}/{origin[2]}" if origin[1] else origin[2])
            self.trace_store.mark(tenant, t_key, "super_ready", self.sim.now)
        self.enqueue_upward(tenant, "pods", pod.key)

    def _on_super_event(self, event):
        origin = self._namespace_origin.get(event.namespace)
        if origin is None:
            return
        tenant, _tenant_ns = origin
        if tenant in self.tenants:
            self.enqueue_upward(tenant, "events", event.key)

    def _on_super_endpoints(self, endpoints):
        origin = self._namespace_origin.get(endpoints.namespace)
        if origin is None:
            return
        tenant, _tenant_ns = origin
        if tenant in self.tenants:
            self.enqueue_upward(tenant, "endpoints", endpoints.key)

    def _broadcast_upward(self, plural, obj):
        for tenant in self.tenants:
            self.enqueue_upward(tenant, plural, obj.key)

    # ------------------------------------------------------------------
    # Queue feeding
    # ------------------------------------------------------------------

    def enqueue_downward(self, tenant, plural, key):
        self.downward.add(tenant, (plural, key))

    def enable_crd_sync(self, tenant, crd):
        """Synchronize a tenant CRD downward (paper §V future work)."""
        return self.crd_sync.enable(tenant, crd)

    def downward_plurals_for(self, tenant):
        """Built-in downward types plus the tenant's synced CRDs."""
        return list(DOWNWARD_TYPES) + self.crd_sync.plurals_for(tenant)

    def enqueue_upward(self, tenant, plural, key):
        self.upward.add(tenant, (plural, key))

    def requeue_upward_later(self, tenant, plural, key):
        """Retry an upward item after a 0.5 s backoff (used when a write
        raced; the super object may produce no further events)."""

        def later():
            yield self.sim.timeout(0.5)
            if tenant in self.tenants:
                self.upward.add(tenant, (plural, key))

        self.spawn(later(), name=f"uws-retry-{plural}")

    # ------------------------------------------------------------------
    # Namespace mapping
    # ------------------------------------------------------------------

    def ensure_super_namespace(self, vc, tenant_namespace):
        """Coroutine: create the prefixed super namespace once."""
        sname = super_namespace(vc, tenant_namespace)
        self._namespace_origin[sname] = (vc.key, tenant_namespace)
        if sname in self._ensured_namespaces:
            return sname
        self._ensured_namespaces.add(sname)
        namespace = Namespace()
        namespace.metadata.name = sname
        namespace.metadata.labels = {LABEL_MANAGED_BY: MANAGED_BY_VALUE}
        namespace.metadata.annotations = {
            ANNOTATION_VC: vc.key,
            ANNOTATION_TENANT_NAMESPACE: tenant_namespace,
        }
        try:
            # Routed through the batch writer so the create is fenced
            # (and batched) like every other downward write.
            yield from self.super_writer.create(namespace)
        except ApiError:
            pass
        return sname

    def resolve_super_namespace(self, sname):
        return self._namespace_origin.get(sname)

    def owns(self, tenant, super_obj):
        annotations = super_obj.metadata.annotations or {}
        return annotations.get(ANNOTATION_VC) == tenant

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        """Start informers, workers, scanners, vNode heartbeats."""
        self.start_processing()

    def start_informers(self):
        """Start (only) the informer machinery: list+watch into caches.

        An HA standby runs exactly this — warm caches, no reconciling —
        so its takeover skips the full relist a cold start pays.
        """
        if self._informers_started:
            return
        self._informers_started = True
        self.super_informers.start_all()
        for registration in self.tenants.values():
            registration.informers.start_all()

    def start_processing(self):
        """Start workers, scanners and heartbeats (informers implied)."""
        if self._started:
            return
        self.start_informers()
        self._started = True
        self._stopped = False
        self.super_writer.start()
        for index in range(self.config.syncer.dws_workers):
            label = f"{self.name}-dws-{index}"
            shard = index % self.dispatch_shards
            self._processes.append(self.spawn(
                self._supervise(label,
                                lambda s=shard: self._dws_worker(s)),
                name=f"{label}-watchdog"))
        for index in range(self.config.syncer.uws_workers):
            label = f"{self.name}-uws-{index}"
            shard = index % self.dispatch_shards
            self._processes.append(self.spawn(
                self._supervise(label,
                                lambda s=shard: self._uws_worker(s)),
                name=f"{label}-watchdog"))
        for tenant in self.tenants:
            self.scanner.start_tenant(tenant)
        self.vnodes.start()
        self._processes.append(self.spawn(self._memory_sampler(),
                                          name=f"{self.name}-mem-sampler"))

    def stop_processing(self):
        """Stop reconciling but keep informer caches warm.

        This is what a deposed HA leader does on losing its lease: the
        replica drops back to standby (warm caches, no writes) and can
        take over again later.  Work queues stay open so the backlog is
        there for the next leader term.
        """
        self._stopped = True
        if not self._started:
            return
        self._started = False
        self.super_writer.stop()
        self.scanner.stop()
        self.vnodes.stop()
        self.health.stop()
        for process in self._processes:
            process.interrupt("syncer stopped processing")
        self._processes = []
        for worker in list(self.worker_processes.values()):
            worker.interrupt("syncer stopped processing")
        self.worker_processes = {}

    def stop_informers(self):
        """Stop every informer and drop its cache.

        A crashed replica loses all in-memory state; a later
        :meth:`start_informers` relists everything from scratch.
        """
        self.super_informers.stop_all()
        for registration in self.tenants.values():
            registration.informers.stop_all()
        for informer in self.super_informers.informers.values():
            self._reset_informer(informer)
        for registration in self.tenants.values():
            for informer in registration.informers.informers.values():
                self._reset_informer(informer)
        self._informers_started = False

    @staticmethod
    def _reset_informer(informer):
        informer.cache.replace([])
        informer.reflector.has_synced = False
        informer.reflector._stopped = False
        informer.reflector._process = None

    def stop(self):
        self.stop_processing()
        self.downward.shutdown()
        self.upward.shutdown()
        self.stop_informers()

    def wait_for_sync(self):
        """Coroutine: block until every informer cache is primed."""
        yield from self.super_informers.wait_for_sync()
        for registration in self.tenants.values():
            yield from registration.informers.wait_for_sync()

    def simulate_restart(self):
        """Coroutine: drop all caches and relist (syncer restart, §IV-C).

        Returns the simulated seconds it took to re-prime every cache.
        """
        started = self.sim.now
        self.stop_informers()
        self.start_informers()
        yield from self.wait_for_sync()
        return self.sim.now - started

    def rebuild_namespace_origins(self):
        """Repopulate the super-namespace origin map from the warm cache.

        The map is in-memory only; a standby that just took over needs
        it before upward Events/Endpoints can be routed to their tenant.
        """
        for namespace in self.super_informer("namespaces").cache.items():
            annotations = namespace.metadata.annotations or {}
            vc_key = annotations.get(ANNOTATION_VC)
            tenant_ns = annotations.get(ANNOTATION_TENANT_NAMESPACE)
            if vc_key and tenant_ns is not None:
                name = namespace.metadata.name
                self._namespace_origin[name] = (vc_key, tenant_ns)
                self._ensured_namespaces.add(name)

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------

    def _supervise(self, label, factory):
        """Watchdog: keep one worker alive under ``label``.

        A worker that dies (chaos crash, unexpected exception) while the
        syncer is running is respawned after a crash-loop backoff; a long
        stable run resets the backoff.  Restart counts are exported via
        :attr:`worker_restarts` and the ``worker_restarts`` counter.
        """
        cfg = self.config.syncer
        backoff = JitteredBackoff(self.sim.rng, cfg.watchdog_base_backoff,
                                  cfg.watchdog_max_backoff, jitter=0.0)
        while not self._stopped:
            worker = self.spawn(factory(), name=label)
            self.worker_processes[label] = worker
            started = self.sim.now
            try:
                yield worker
            except Interrupt:
                return  # the syncer is stopping; the worker is handled there
            except Exception:
                self.metrics_inc("worker_crashes")
            finally:
                if self.worker_processes.get(label) is worker:
                    del self.worker_processes[label]
            if self._stopped:
                return
            self.worker_restarts[label] = (
                self.worker_restarts.get(label, 0) + 1)
            self.metrics_inc("worker_restarts")
            if self.sim.now - started >= cfg.watchdog_stable_after:
                backoff.reset()
            try:
                yield self.sim.timeout(backoff.next())
            except Interrupt:
                return

    def _dws_worker(self, shard=0):
        cfg = self.config.syncer
        dws_lock = self.dws_locks[shard]
        while not self._stopped:
            try:
                tenant, item, _enqueued_at = yield self.downward.get(shard)
            except (ShutDown, Interrupt):
                return
            plural, key = item
            if not self.health.allow(tenant):
                # Circuit open: fail fast so this shared worker stays
                # available to healthy tenants; the item is parked and
                # re-enqueued when the tenant's probe succeeds.
                self.health.park(tenant, "downward", item)
                self.downward.done(tenant, item)
                continue
            try:
                with self._telemetry.span("syncer.dws", tenant=tenant,
                                          resource=plural):
                    # Serialized dequeue critical section (lock contention
                    # is the syncer's throughput limiter under burst); one
                    # lock per dispatch shard.
                    yield dws_lock.acquire()
                    try:
                        yield self.sim.timeout(cfg.dws_dequeue_cs)
                    finally:
                        dws_lock.release()
                    self.cpu.charge(cfg.dws_dequeue_cs)
                    self.cpu.charge(cfg.per_item_cpu_overhead)
                    if plural == "pods":
                        self.trace_store.mark(tenant, key, "dws_dequeue",
                                              self.sim.now)
                    yield self.sim.timeout(cfg.dws_process)
                    self.cpu.charge(cfg.dws_process)
                    reconciler = (self.crd_sync.reconciler_for(tenant,
                                                               plural)
                                  or self.downward_reconcilers.get(plural))
                    if reconciler is not None:
                        yield from reconciler.sync_down(tenant, key)
                    self.health.record_success(tenant)
                    self._items_dws.inc()
            except Interrupt:
                return
            except ApiError as exc:
                self.metrics_inc("dws_api_error")
                if self.health.record_failure(tenant, exc):
                    self.health.park(tenant, "downward", item)
                else:
                    self.downward.add(tenant, item)
            finally:
                self.downward.done(tenant, item)

    def _uws_worker(self, shard=0):
        cfg = self.config.syncer
        uws_lock = self.uws_locks[shard]
        while not self._stopped:
            try:
                tenant, item, _enqueued_at = yield self.upward.get(shard)
            except (ShutDown, Interrupt):
                return
            plural, key = item
            if not self.health.allow(tenant):
                self.health.park(tenant, "upward", item)
                self.upward.done(tenant, item)
                continue
            try:
                with self._telemetry.span("syncer.uws", tenant=tenant,
                                          resource=plural):
                    yield uws_lock.acquire()
                    try:
                        yield self.sim.timeout(cfg.uws_dequeue_cs)
                    finally:
                        uws_lock.release()
                    self.cpu.charge(cfg.uws_dequeue_cs)
                    self.cpu.charge(cfg.per_item_cpu_overhead)
                    if plural == "pods":
                        super_pod = self.super_informer("pods").cache.get(
                            key)
                        if super_pod is not None:
                            origin = tenant_origin(super_pod)
                            if (origin is not None
                                    and super_pod.status.is_ready):
                                t_key = (f"{origin[1]}/{origin[2]}"
                                         if origin[1] else origin[2])
                                self.trace_store.mark(tenant, t_key,
                                                      "uws_dequeue",
                                                      self.sim.now)
                    yield self.sim.timeout(cfg.uws_process)
                    self.cpu.charge(cfg.uws_process)
                    reconciler = self.upward_reconcilers.get(plural)
                    if reconciler is not None:
                        yield from reconciler.sync_up(tenant, key)
                    self.health.record_success(tenant)
                    self._items_uws.inc()
            except Interrupt:
                return
            except ApiError as exc:
                self.metrics_inc("uws_api_error")
                if self.health.record_failure(tenant, exc):
                    self.health.park(tenant, "upward", item)
                else:
                    self.upward.add(tenant, item)
            finally:
                self.upward.done(tenant, item)

    def _memory_sampler(self):
        while not self._stopped:
            try:
                yield self.sim.timeout(0.25)
            except Interrupt:
                return
            self.mem.snapshot()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self):
        return {
            "tenants": len(self.tenants),
            "downward": self.downward.stats(),
            "upward": self.upward.stats(),
            "dws_lock_contentions": sum(lock.contentions
                                        for lock in self.dws_locks),
            "uws_lock_contentions": sum(lock.contentions
                                        for lock in self.uws_locks),
            "dispatch_shards": self.dispatch_shards,
            "downward_batching": self.super_writer.stats(),
            "cpu_seconds": self.cpu.seconds,
            "peak_memory_bytes": self.mem.peak,
            "traces": len(self.trace_store),
            "counters": dict(self.counters),
            "health": self.health.stats(),
            "parked_items": self.health.parked_count(),
            "worker_restarts": dict(self.worker_restarts),
        }
