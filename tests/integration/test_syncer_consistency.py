"""Syncer consistency under races and failures (paper §III-C).

The syncer is eventually consistent and must tolerate objects vanishing
mid-sync; whatever slips through is remediated by the periodic scanner.
"""

from repro.apiserver import NotFound
from repro.core.crd import super_namespace
from repro.objects import ConfigMap, PersistentVolume, StorageClass


class TestRaceTolerance:
    def test_delete_immediately_after_create(self, env, tenant):
        """The object may be gone by the time its ADD event is handled."""

        def create_then_delete():
            yield from tenant.create_pod("flash")
            yield from tenant.client.delete("pods", "flash",
                                            namespace="default")

        env.run_coroutine(create_then_delete())
        env.run_for(10)
        admin = env.super_admin_client()
        super_ns = super_namespace(tenant.vc, "default")
        try:
            env.run_coroutine(admin.get("pods", "flash",
                                        namespace=super_ns))
            leaked = True
        except NotFound:
            leaked = False
        assert not leaked

    def test_rapid_create_delete_create_converges(self, env, tenant):
        def churn():
            yield from tenant.create_pod("churny")
            yield from tenant.client.delete("pods", "churny",
                                            namespace="default")
            yield from tenant.create_pod("churny")

        env.run_coroutine(churn())
        env.run_until_pods_ready(tenant, ["default/churny"], timeout=60)
        pod = env.run_coroutine(tenant.get_pod("churny"))
        assert pod.status.is_ready


class TestScannerRemediation:
    def test_scanner_recreates_lost_super_object(self, env, tenant):
        """Simulate a permanently-lost downward sync: delete the super pod
        behind the syncer's back; the periodic scan resurrects it."""
        env.run_coroutine(tenant.create_pod("resilient"))
        env.run_until_pods_ready(tenant, ["default/resilient"], timeout=60)

        admin = env.super_admin_client()
        super_ns = super_namespace(tenant.vc, "default")
        env.run_coroutine(admin.delete("pods", "resilient",
                                       namespace=super_ns))

        def resurrected():
            try:
                pod = env.run_coroutine(admin.get("pods", "resilient",
                                                  namespace=super_ns))
                return pod is not None
            except NotFound:
                return False

        # scan_interval for the integration env is 5s.
        env.run_until(resurrected, timeout=60)
        assert env.syncer.scanner.mismatches_found >= 1

    def test_scanner_deletes_orphaned_super_object(self, env, tenant):
        """A super object whose tenant object is gone must be removed."""
        env.run_coroutine(tenant.create_pod("orphan"))
        env.run_until_pods_ready(tenant, ["default/orphan"], timeout=60)

        # Remove the tenant pod directly from the tenant store, bypassing
        # the watch path the syncer would normally react to.
        tenant_api = tenant.control_plane.api
        tenant_api.store.delete("/registry/pods/default/orphan")
        # Drop the event from the syncer's informer cache too, mimicking a
        # missed notification: force the cache out of sync.
        cache = env.syncer.tenant_informer(tenant.key, "pods").cache
        cache.delete("default/orphan")

        admin = env.super_admin_client()
        super_ns = super_namespace(tenant.vc, "default")

        def orphan_gone():
            try:
                env.run_coroutine(admin.get("pods", "orphan",
                                            namespace=super_ns))
                return False
            except NotFound:
                return True

        env.run_until(orphan_gone, timeout=60)

    def test_scanner_remediates_missed_upward_status(self, env, tenant):
        """A lost upward status write: the super pod is Ready but the
        tenant pod regressed behind the UWS's back; the scan re-enqueues
        the upward sync."""
        env.run_coroutine(tenant.create_pod("statusless"))
        env.run_until_pods_ready(tenant, ["default/statusless"], timeout=60)

        def regress():
            pod = (yield from tenant.get_pod("statusless")).copy()
            pod.status.phase = "Pending"
            pod.status.conditions = []
            yield from tenant.client.update_status(pod)

        # A status-only change produces no downward work and no super
        # event, so nothing but the scanner can repair it.
        env.run_coroutine(regress())

        def ready_again():
            pod = env.run_coroutine(tenant.get_pod("statusless"))
            return pod.status.is_ready

        env.run_until(ready_again, timeout=60)
        assert env.syncer.scanner.upward_status_mismatches >= 1

    def test_scanner_removes_stale_vnode(self, env, tenant):
        """A vNode whose removal was missed must be garbage-collected."""
        env.run_coroutine(tenant.create_pod("pinned"))
        env.run_until_pods_ready(tenant, ["default/pinned"], timeout=60)
        vnodes = env.syncer.vnodes.vnodes_for(tenant.key)
        assert vnodes  # the bound pod created its vNode
        node = vnodes[0]

        # Simulate a lost removal: drop the binding record behind the
        # manager's back, leaving the tenant-side vNode object orphaned.
        env.syncer.vnodes._bindings[tenant.key].pop(node)
        assert env.run_coroutine(tenant.client.get("nodes", node)) is not None

        def vnode_gone():
            try:
                env.run_coroutine(tenant.client.get("nodes", node))
                return False
            except NotFound:
                return True

        env.run_until(vnode_gone, timeout=60)
        assert env.syncer.scanner.vnode_mismatches >= 1

    def test_scan_duration_tracked(self, env, tenant):
        env.run_coroutine(tenant.create_pod("p"))
        env.run_until_pods_ready(tenant, ["default/p"], timeout=60)
        env.run_for(12)  # at least two 5s scan intervals
        assert env.syncer.scanner.scans_completed >= 1
        assert env.syncer.scanner.objects_scanned_total >= 1


class TestSyncerRestart:
    def test_restart_relists_and_recovers(self, env, tenant):
        env.run_coroutine(tenant.create_pod("pre-restart"))
        env.run_until_pods_ready(tenant, ["default/pre-restart"],
                                 timeout=60)

        elapsed = env.run_coroutine(env.syncer.simulate_restart())
        assert elapsed > 0
        # Caches are re-primed with the existing state.
        assert env.syncer.tenant_informer(
            tenant.key, "pods").cache.get("default/pre-restart") is not None

        # And the pipeline still works for new pods.
        env.run_coroutine(tenant.create_pod("post-restart"))
        env.run_until_pods_ready(tenant, ["default/post-restart"],
                                 timeout=60)

    def test_super_apiserver_crash_recovery(self, env, tenant):
        env.run_coroutine(tenant.create_pod("before-crash"))
        env.run_until_pods_ready(tenant, ["default/before-crash"],
                                 timeout=60)
        env.super_cluster.api.crash()
        env.run_for(1)
        env.super_cluster.api.recover()
        env.run_for(3)  # reflectors relist
        env.run_coroutine(tenant.create_pod("after-crash"))
        env.run_until_pods_ready(tenant, ["default/after-crash"],
                                 timeout=120)


class TestQueueHygiene:
    def test_dedup_prevents_queue_blowup(self, env, tenant):
        """Hammering updates on one object must coalesce in the queue."""
        env.run_coroutine(tenant.create_pod("hot"))
        env.run_until_pods_ready(tenant, ["default/hot"], timeout=60)

        def hammer():
            for index in range(30):
                pod = (yield from tenant.get_pod("hot")).copy()
                pod.metadata.labels["rev"] = str(index)
                yield from tenant.client.update(pod)

        env.run_coroutine(hammer())
        env.run_for(5)
        stats = env.syncer.downward.stats()
        assert stats["deduped"] >= 1
        assert stats["depth"] == 0  # fully drained


def _super_get(env, plural, name, namespace=None):
    admin = env.super_admin_client()
    try:
        return env.run_coroutine(admin.get(plural, name,
                                           namespace=namespace))
    except NotFound:
        return None


class TestInPlaceUpdates:
    """A tenant object edited in place reaches its super copy, and a
    super cluster-scoped object reaches every tenant."""

    def test_pod_label_update_reaches_super_pod(self, env, tenant):
        env.run_coroutine(tenant.create_pod("web", labels={"app": "a"}))
        env.run_until_pods_ready(tenant, ["default/web"], timeout=60)
        super_ns = super_namespace(tenant.vc, "default")
        bound = _super_get(env, "pods", "web", super_ns)

        def relabel():
            pod = (yield from tenant.get_pod("web")).copy()
            pod.metadata.labels = {"app": "b"}
            yield from tenant.client.update(pod)

        env.run_coroutine(relabel())
        env.run_for(10)
        relabeled = _super_get(env, "pods", "web", super_ns)
        assert relabeled.metadata.labels["app"] == "b"
        assert relabeled.metadata.uid == bound.metadata.uid
        assert relabeled.spec.node_name == bound.spec.node_name
        assert relabeled.status.is_ready

    def test_configmap_data_update_reaches_super_copy(self, env, tenant):
        config = ConfigMap()
        config.metadata.name = "settings"
        config.metadata.namespace = "default"
        config.data = {"mode": "v1"}
        env.run_coroutine(tenant.client.create(config))
        env.run_for(5)
        super_ns = super_namespace(tenant.vc, "default")
        assert _super_get(env, "configmaps", "settings",
                          super_ns).data == {"mode": "v1"}

        def edit():
            current = yield from tenant.client.get(
                "configmaps", "settings", namespace="default")
            yield from tenant.client.update(
                current.replace(data={"mode": "v2"}))

        env.run_coroutine(edit())
        env.run_for(10)
        assert _super_get(env, "configmaps", "settings",
                          super_ns).data == {"mode": "v2"}

    def test_service_spec_change_keeps_super_cluster_ip(self, env, tenant):
        env.run_coroutine(tenant.create_service(
            "svc", selector={"app": "web"}, port=80))
        env.run_for(5)
        super_ns = super_namespace(tenant.vc, "default")
        before = _super_get(env, "services", "svc", super_ns)
        assert before.spec.cluster_ip

        def edit():
            current = (yield from tenant.client.get(
                "services", "svc", namespace="default")).copy()
            current.spec.ports[0].port = 8080
            yield from tenant.client.update(current)

        env.run_coroutine(edit())
        env.run_for(10)
        after = _super_get(env, "services", "svc", super_ns)
        assert after.spec.ports[0].port == 8080
        assert after.spec.cluster_ip == before.spec.cluster_ip

    def test_super_cluster_resources_reach_every_tenant(self, env,
                                                        two_tenants):
        admin = env.super_admin_client()
        volume = PersistentVolume()
        volume.metadata.name = "pv-shared"
        volume.spec = {"capacity": {"storage": "1Gi"}}
        storage_class = StorageClass()
        storage_class.metadata.name = "fast"
        storage_class.provisioner = "example.com/ssd"

        def tenant_copies(plural, name):
            copies = []
            for tenant in two_tenants:
                try:
                    copies.append(env.run_coroutine(
                        tenant.client.get(plural, name)))
                except NotFound:
                    copies.append(None)
            return copies

        env.run_coroutine(admin.create(volume))
        env.run_coroutine(admin.create(storage_class))
        env.run_for(5)
        for copy in tenant_copies("persistentvolumes", "pv-shared"):
            assert copy.spec["capacity"] == {"storage": "1Gi"}
        for copy in tenant_copies("storageclasses", "fast"):
            assert copy.provisioner == "example.com/ssd"

        def edit():
            current = yield from admin.get("persistentvolumes", "pv-shared")
            yield from admin.update(current.replace(
                spec={"capacity": {"storage": "2Gi"}}))
            current = yield from admin.get("storageclasses", "fast")
            yield from admin.update(current.replace(
                parameters={"tier": "gold"}))

        env.run_coroutine(edit())
        env.run_for(5)
        for copy in tenant_copies("persistentvolumes", "pv-shared"):
            assert copy.spec["capacity"] == {"storage": "2Gi"}
        for copy in tenant_copies("storageclasses", "fast"):
            assert copy.parameters == {"tier": "gold"}

        env.run_coroutine(admin.delete("persistentvolumes", "pv-shared"))
        env.run_coroutine(admin.delete("storageclasses", "fast"))
        env.run_for(5)
        assert tenant_copies("persistentvolumes", "pv-shared") == [None,
                                                                   None]
        assert tenant_copies("storageclasses", "fast") == [None, None]
