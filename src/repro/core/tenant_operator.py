"""Tenant operator: reconciles VirtualCluster objects (paper §III-B(1)).

Watches VC objects in the super cluster and drives tenant control plane
lifecycles: provisioning (local mode spins up an in-simulation control
plane; cloud mode models a managed-control-plane provisioning delay),
storing the tenant kubeconfig in a super-cluster Secret so the syncer can
reach every tenant, and deprovisioning on VC deletion.
"""

from repro.apiserver.errors import AlreadyExists, ApiError, NotFound
from repro.controllers.base import Controller
from repro.objects import Secret
from repro.simkernel.errors import Interrupt

from .controlplane import TenantControlPlane
from .crd import VirtualCluster, cluster_prefix

PROVISION_DELAY_LOCAL = 1.5   # etcd + apiserver + kcm pods come up
PROVISION_DELAY_CLOUD = 20.0  # managed control plane (ACK/EKS) provisioning
RESTORE_DELAY = 2.0           # rehydrate etcd from the last snapshot
VC_FINALIZER = "tenancy.x-k8s.io/vc-protection"


class TenantOperator(Controller):
    """The VC reconciler."""

    name = "tenant-operator"

    def __init__(self, sim, super_cluster, config, workers=4,
                 on_provisioned=None, on_deprovisioned=None):
        client = super_cluster.client(user_agent="tenant-operator")
        super().__init__(sim, client, workers=workers)
        self.super_cluster = super_cluster
        self.config = config
        self.on_provisioned = on_provisioned
        self.on_deprovisioned = on_deprovisioned
        self.control_planes = {}
        # Durability (DESIGN.md §10.3): periodic etcd snapshots per tenant
        # control plane, so a crashed one restarts from its last snapshot
        # instead of empty.  vc key -> latest EtcdStore.snapshot() dict.
        self.snapshots = {}
        self.snapshot_interval = getattr(
            config.syncer, "snapshot_interval", 0.0)
        self._needs_restore = set()
        self._snapshot_process = None
        self.snapshots_taken = 0
        self.restores_total = 0
        self.wal_restores = 0
        self._vc_informer = super_cluster.informer_factory.informer(
            "virtualclusters")
        self._vc_informer.add_handlers(
            on_add=self.enqueue_object,
            on_update=lambda old, new: self.enqueue_object(new),
            on_delete=self.enqueue_object,
        )
        # The super cluster's informer factory may already be running; a
        # freshly-created informer must be started explicitly.
        if self._vc_informer.reflector._process is None:
            self._vc_informer.start()

    def start(self):
        processes = super().start()
        if self.snapshot_interval > 0 and self._snapshot_process is None:
            self._snapshot_process = self.sim.spawn(
                self._snapshot_loop(), name="tenant-operator-snapshots")
            self._processes.append(self._snapshot_process)
        return processes

    def reconcile(self, key):
        vc = self._vc_informer.cache.get(key)
        if key in self._needs_restore and key in self.control_planes:
            yield from self._restore(key)
        if vc is None:
            yield from self._deprovision(key)
            return
        if vc.metadata.deletion_timestamp is not None:
            yield from self._finalize(vc)
            return
        if VC_FINALIZER not in vc.metadata.finalizers:
            vc = yield from self.client.update(vc.replace(
                metadata=vc.metadata.replace(
                    finalizers=[*vc.metadata.finalizers, VC_FINALIZER])))
        if key in self.control_planes:
            if not vc.is_running:
                yield from self._mark_running(vc)
            return
        yield from self._provision(vc)

    # ------------------------------------------------------------------
    # Provision / deprovision
    # ------------------------------------------------------------------

    def _provision(self, vc):
        delay = (PROVISION_DELAY_CLOUD if vc.spec.mode == "cloud"
                 else PROVISION_DELAY_LOCAL)
        yield self.sim.timeout(delay)
        control_plane = TenantControlPlane(
            self.sim, name=cluster_prefix(vc), config=self.config,
            owner_vc=vc)
        control_plane.start()
        self.control_planes[vc.key] = control_plane

        # Persist the tenant kubeconfig in the super cluster so the syncer
        # (which never lets tenants in the other direction) can reach it.
        secret = Secret()
        secret.metadata.name = f"{cluster_prefix(vc)}-kubeconfig"
        secret.metadata.namespace = vc.namespace
        secret.string_data = {
            "cluster": control_plane.name,
            "user": control_plane.tenant_credential.user,
            "cert-hash": control_plane.tenant_credential.cert_hash,
        }
        try:
            yield from self.client.create(secret)
        except AlreadyExists:
            pass

        yield from self._mark_running(
            vc, kubeconfig_secret=secret.metadata.name,
            cert_hash=control_plane.tenant_credential.cert_hash)
        if self.on_provisioned is not None:
            self.on_provisioned(vc, control_plane)

    def _mark_running(self, vc, kubeconfig_secret=None, cert_hash=None):
        try:
            fresh = yield from self.client.get("virtualclusters", vc.name,
                                               namespace=vc.namespace)
        except NotFound:
            return
        status = fresh.status.replace(
            phase="Running",
            control_plane_endpoint=f"https://{cluster_prefix(vc)}.svc:6443")
        if kubeconfig_secret:
            status.kubeconfig_secret = kubeconfig_secret
        if cert_hash:
            status.cert_hash = cert_hash
        try:
            yield from self.client.update_status(
                fresh.replace(status=status))
        except ApiError:
            self.enqueue(vc.key)

    def _finalize(self, vc):
        yield from self._deprovision(vc.key)
        if VC_FINALIZER in vc.metadata.finalizers:
            try:
                fresh = yield from self.client.get(
                    "virtualclusters", vc.name, namespace=vc.namespace)
            except NotFound:
                return
            try:
                yield from self.client.update(fresh.replace(
                    metadata=fresh.metadata.replace(finalizers=[
                        f for f in fresh.metadata.finalizers
                        if f != VC_FINALIZER])))
            except ApiError:
                self.enqueue(vc.key)

    def _deprovision(self, key):
        control_plane = self.control_planes.pop(key, None)
        self.snapshots.pop(key, None)
        self._needs_restore.discard(key)
        if control_plane is None:
            return
        yield self.sim.timeout(0.5)
        control_plane.stop()
        if self.on_deprovisioned is not None:
            self.on_deprovisioned(key, control_plane)

    # ------------------------------------------------------------------
    # Snapshots / crash recovery (DESIGN.md §10.3)
    # ------------------------------------------------------------------

    def _snapshot_loop(self):
        while not self._stopped:
            try:
                yield self.sim.timeout(self.snapshot_interval)
            except Interrupt:
                return
            self.snapshot_all()

    def snapshot_all(self):
        """Snapshot every healthy tenant control plane's etcd."""
        for key in list(self.control_planes):
            self.snapshot_now(key)

    def snapshot_now(self, key):
        """Snapshot one tenant control plane's etcd store.

        A crashed control plane (awaiting restore) is skipped so its
        wiped store cannot overwrite the last good snapshot.
        """
        control_plane = self.control_planes.get(key)
        if control_plane is None or key in self._needs_restore:
            return None
        store = control_plane.api.store
        snapshot = store.snapshot()
        self.snapshots[key] = snapshot
        self.snapshots_taken += 1
        # WAL-equipped stores anchor their log to the snapshot: segments
        # the snapshot covers are compacted away (DESIGN.md §13).
        anchor = getattr(store, "anchor_wal", None)
        if anchor is not None:
            anchor(snapshot)
        return snapshot

    def crash_control_plane(self, key, total_loss=True):
        """Chaos hook: the tenant control plane's process dies.

        ``total_loss=True`` (the seed semantics) wipes etcd data *and*
        its WAL — the catastrophic case snapshots exist for.  With
        ``total_loss=False`` the process is killed but the disk (WAL)
        survives, so the restore path can replay to the last durable
        revision instead of falling back to a stale snapshot.
        """
        control_plane = self.control_planes.get(key)
        if control_plane is None:
            return False
        control_plane.stop()
        control_plane.api.crash()
        store = control_plane.api.store
        if not total_loss and getattr(store, "wal", None) is not None:
            store.power_off()
        else:
            store.wipe()
        self._needs_restore.add(key)
        self.enqueue(key)
        return True

    def _restore(self, key):
        """Coroutine: reprovision a crashed control plane.

        Prefers WAL replay when the store's durable log reaches past the
        last snapshot (zero committed-write loss); a gapped or empty log
        (:class:`CompactedError` — e.g. replay across a compaction
        boundary, or a total-loss wipe) falls back to snapshot-only
        recovery, exactly the seed behavior.
        """
        from repro.storage import CompactedError, RevisionCompacted

        control_plane = self.control_planes.get(key)
        if control_plane is None:
            self._needs_restore.discard(key)
            return
        yield self.sim.timeout(RESTORE_DELAY)
        store = control_plane.api.store
        snapshot = self.snapshots.get(key)
        snapshot_revision = snapshot["revision"] if snapshot else 0
        recovered = False
        wal_revision = getattr(store, "wal_durable_revision",
                               lambda: 0)()
        if wal_revision > snapshot_revision:
            try:
                store.recover_from_wal()
                recovered = True
                self.wal_restores += 1
            except (CompactedError, RevisionCompacted):
                recovered = False
        if not recovered and snapshot is not None:
            store.restore(snapshot)
        control_plane.api.recover()
        # Fresh kcm: controllers relist against the restored state.
        control_plane.start()
        self._needs_restore.discard(key)
        self.restores_total += 1

    def control_plane_for(self, vc_key):
        return self.control_planes.get(vc_key)

    def find_vc_by_cert_hash(self, cert_hash):
        """Used by vn-agent to map a TLS cert to a tenant (paper §III-B(3))."""
        for vc in self._vc_informer.cache.items():
            if vc.status.cert_hash == cert_hash:
                return vc
        return None
