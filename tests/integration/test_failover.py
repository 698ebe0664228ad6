"""HA failover and crash recovery end to end (DESIGN.md §10).

Hot-standby syncer takeover after a leader kill, storage fencing
against the deposed leader, tenant control-plane crash restored from
its etcd snapshot, and the deprovision hook tearing down syncer state
no matter how the deletion arrived.
"""

import pytest

from repro.apiserver import ADMIN, FencingConflict
from repro.config import DEFAULT_CONFIG
from repro.core import VirtualClusterEnv


@pytest.fixture
def ha_env():
    environment = VirtualClusterEnv(
        num_virtual_nodes=3, config=DEFAULT_CONFIG.with_overrides(
            syncer={"scan_interval": 5.0, "replicas": 2}))
    environment.bootstrap()
    return environment


@pytest.fixture
def ha_tenant(ha_env):
    return ha_env.run_coroutine(ha_env.create_tenant("acme"))


class TestHotStandbyFailover:
    def test_standby_takes_over_after_leader_crash(self, ha_env, ha_tenant):
        ha = ha_env.syncer_ha
        ha_env.run_until(lambda: ha.active is not None, timeout=30)
        old_leader = ha.active
        ha_env.run_coroutine(ha_tenant.create_pod("web-1"))
        ha_env.run_until_pods_ready(ha_tenant, ["default/web-1"])

        victim = ha.kill_leader(mode="crash")
        assert victim is old_leader
        ha_env.run_until(lambda: ha.active is not None, timeout=60)
        assert ha.active is not old_leader
        assert len(ha.failovers) >= 2  # initial election + this takeover
        record = ha.failovers[-1]
        assert record["identity"] == ha.active.name
        assert record["mttr"] is not None and record["mttr"] > 0

        # The new leader serves: a pod created after the kill converges.
        ha_env.run_coroutine(ha_tenant.create_pod("web-2"))
        ha_env.run_until_pods_ready(ha_tenant, ["default/web-2"],
                                    timeout=120)

    def test_warm_standby_takeover_sync_is_fast(self, ha_env, ha_tenant):
        ha = ha_env.syncer_ha
        ha_env.run_until(lambda: ha.active is not None, timeout=30)
        ha.kill_leader(mode="crash")
        ha_env.run_until(lambda: ha.active is not None, timeout=60)
        record = ha.failovers[-1]
        # Warm caches: the winner needs no full relist before serving.
        assert record["sync_seconds"] < 1.0

    def test_killed_replica_can_rejoin_as_standby(self, ha_env, ha_tenant):
        ha = ha_env.syncer_ha
        ha_env.run_until(lambda: ha.active is not None, timeout=30)
        victim = ha.kill_leader(mode="crash")
        ha_env.run_until(lambda: ha.active is not None, timeout=60)
        ha.restart_replica(victim)
        ha_env.run_for(5.0)
        # Rejoined as a warm standby, not a second leader.
        assert ha.active is not victim
        assert ha.elector_for(victim).is_leader is False
        # Kill again: the rejoined replica must win this time.
        ha.kill_leader(mode="crash")
        ha_env.run_until(lambda: ha.active is victim, timeout=60)


class TestFencing:
    def test_deposed_leader_token_is_fenced_out(self, ha_env, ha_tenant):
        ha = ha_env.syncer_ha
        ha_env.run_until(lambda: ha.active is not None, timeout=30)
        deposed = ha.active
        old_fence = deposed.current_fence()
        assert old_fence is not None

        # Partition, don't crash: the deposed leader keeps "working"
        # with its stale token while the standby takes over.
        ha.kill_leader(mode="partition", notice_delay=3.0)
        ha_env.run_until(
            lambda: ha.active is not None and ha.active is not deposed,
            timeout=60)

        new_fence = ha.active.current_fence()
        assert new_fence[1] > old_fence[1]
        # Any write still in flight from the deposed leader dies at the
        # storage fence (the new leader's barrier raised the floor).
        api = ha_env.super_cluster.api
        with pytest.raises(FencingConflict):
            ha_env.run_coroutine(
                api.transaction(ADMIN, [], fencing=old_fence))
        assert api.store.fencing_rejections >= 1


class TestControlPlaneCrashRecovery:
    def test_crash_is_restored_from_snapshot(self, ha_env, ha_tenant):
        operator = ha_env.tenant_operator
        key = ha_tenant.key
        ha_env.run_coroutine(ha_tenant.create_pod("web-1"))
        ha_env.run_until_pods_ready(ha_tenant, ["default/web-1"])
        assert operator.snapshot_now(key) is not None

        assert operator.crash_control_plane(key)
        ha_env.run_until(lambda: operator.restores_total == 1, timeout=60)

        # The snapshotted pod survived the total data loss.
        pod = ha_env.run_coroutine(ha_tenant.get_pod("web-1"))
        assert pod is not None
        # The restored control plane serves new work: reflectors relist
        # across the restore and the syncer pushes the pod downward.
        ha_env.run_coroutine(ha_tenant.create_pod("web-2"))
        ha_env.run_until_pods_ready(ha_tenant, ["default/web-2"],
                                    timeout=120)

    def test_crash_before_any_snapshot_restores_empty(self, ha_env,
                                                      ha_tenant):
        operator = ha_env.tenant_operator
        key = ha_tenant.key
        assert key not in operator.snapshots
        assert operator.crash_control_plane(key)
        ha_env.run_until(lambda: operator.restores_total == 1, timeout=60)
        # No snapshot existed: the control plane comes back empty but
        # healthy, and still serves new work.
        ha_env.run_coroutine(ha_tenant.create_namespace("default"))
        ha_env.run_coroutine(ha_tenant.create_pod("fresh"))
        ha_env.run_until_pods_ready(ha_tenant, ["default/fresh"],
                                    timeout=120)

    def test_crashed_control_plane_is_not_snapshotted(self, ha_env,
                                                      ha_tenant):
        operator = ha_env.tenant_operator
        key = ha_tenant.key
        operator.snapshot_now(key)
        good = operator.snapshots[key]
        operator.crash_control_plane(key)
        # A periodic snapshot pass must not capture the wiped store.
        operator.snapshot_all()
        assert operator.snapshots[key] is good


class TestDeprovisionHook:
    def test_direct_vc_delete_tears_down_syncer_state(self, ha_env,
                                                      ha_tenant):
        """Regression: deleting the VC at the super apiserver (not via
        env.delete_tenant) must still reach Syncer.drop_tenant through
        the operator's on_deprovisioned hook."""
        key = ha_tenant.key
        assert key in ha_env.syncer.tenants
        admin = ha_env.super_admin_client()
        ha_env.run_coroutine(admin.delete(
            "virtualclusters", ha_tenant.name, namespace="vc-manager"))

        def torn_down():
            return (key not in ha_env.syncer.tenants
                    and key not in ha_env.tenants)

        ha_env.run_until(torn_down, timeout=60)
        # Every replica dropped the tenant, not just the leader.
        for replica in ha_env.syncer_ha.replicas:
            assert key not in replica.tenants
