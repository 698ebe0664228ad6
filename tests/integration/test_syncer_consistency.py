"""Syncer consistency under races and failures (paper §III-C).

The syncer is eventually consistent and must tolerate objects vanishing
mid-sync; whatever slips through is remediated by the periodic scanner.
"""

from repro.apiserver import NotFound
from repro.core.crd import super_namespace


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
