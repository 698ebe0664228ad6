"""Unit tests for syncer internals: echo filtering, queue feeding, stats."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.core import VirtualClusterEnv
from repro.core.syncer.syncer import Syncer
from repro.objects import make_pod


SLOW_SCAN = DEFAULT_CONFIG.with_overrides(syncer={"scan_interval": 120.0})


@pytest.fixture(scope="module")
def env_and_tenant():
    env = VirtualClusterEnv(num_virtual_nodes=2, config=SLOW_SCAN)
    env.bootstrap()
    tenant = env.run_coroutine(env.create_tenant("acme"))
    return env, tenant


class TestEchoFiltering:
    """The syncer must not re-sync its own upward writes downward."""

    def test_status_only_change_filtered(self):
        old = make_pod("p")
        new = old.copy()
        new.status.phase = "Running"
        assert not Syncer._downward_relevant_change(old, new)

    def test_node_name_change_filtered(self):
        """Binding is syncer-managed: nodeName-only diffs are echoes."""
        old = make_pod("p")
        new = old.copy()
        new.spec.node_name = "vk-node-001"
        assert not Syncer._downward_relevant_change(old, new)

    def test_spec_change_relevant(self):
        old = make_pod("p")
        new = old.copy()
        new.spec.containers[0].image = "other"
        assert Syncer._downward_relevant_change(old, new)

    def test_label_change_relevant(self):
        old = make_pod("p")
        new = old.copy()
        new.metadata.labels["team"] = "blue"
        assert Syncer._downward_relevant_change(old, new)

    def test_deletion_timestamp_relevant(self):
        old = make_pod("p")
        new = old.copy()
        new.metadata.deletion_timestamp = 5.0
        assert Syncer._downward_relevant_change(old, new)

    def test_data_change_relevant(self):
        from repro.objects import ConfigMap

        old = ConfigMap()
        old.metadata.name = "c"
        old.metadata.namespace = "default"
        new = old.copy()
        new.data = {"k": "v"}
        assert Syncer._downward_relevant_change(old, new)

    def test_none_old_is_relevant(self):
        assert Syncer._downward_relevant_change(None, make_pod("p"))


class TestSyncerBookkeeping:
    def test_stats_shape(self, env_and_tenant):
        env, _tenant = env_and_tenant
        stats = env.syncer.stats()
        assert stats["tenants"] == 1
        for key in ("downward", "upward", "dws_lock_contentions",
                    "cpu_seconds", "peak_memory_bytes", "traces"):
            assert key in stats

    def test_namespace_origin_mapping(self, env_and_tenant):
        env, tenant = env_and_tenant
        env.run_coroutine(tenant.create_pod("mapper"))
        env.run_until_pods_ready(tenant, ["default/mapper"], timeout=60)
        from repro.core.crd import super_namespace

        sname = super_namespace(tenant.vc, "default")
        origin = env.syncer.resolve_super_namespace(sname)
        assert origin == (tenant.key, "default")
        assert env.syncer.resolve_super_namespace("nonsense") is None

    def test_owns(self, env_and_tenant):
        env, tenant = env_and_tenant
        from repro.core.syncer.conversion import to_super

        translated = to_super(make_pod("x"), tenant.vc)
        assert env.syncer.owns(tenant.key, translated)
        assert not env.syncer.owns("other/vc", translated)
        assert not env.syncer.owns(tenant.key, make_pod("native"))

    def test_memory_meters_registered(self, env_and_tenant):
        env, tenant = env_and_tenant
        env.run_coroutine(tenant.create_pod("heavy"))
        env.run_until_pods_ready(tenant, ["default/heavy"], timeout=60)
        env.run_for(1)
        assert env.syncer.mem.peak > 0
        # Two copies: tenant-side cache and super-side cache both nonzero.
        snapshot = {name: fn()
                    for name, fn in env.syncer.mem._meters.items()}
        assert snapshot["super-informer-caches"] > 0
        assert snapshot["tenant-informer-caches"] > 0

    def test_unregister_tenant_removes_queues(self):
        env = VirtualClusterEnv(num_virtual_nodes=1, config=SLOW_SCAN)
        env.bootstrap()
        tenant = env.run_coroutine(env.create_tenant("gone"))
        assert env.syncer.downward.stats()["tenants"] == 1
        env.syncer.unregister_tenant(tenant.key)
        assert env.syncer.downward.stats()["tenants"] == 0
        assert env.syncer.upward.stats()["tenants"] == 0

    def test_double_register_is_idempotent(self, env_and_tenant):
        env, tenant = env_and_tenant
        first = env.syncer.tenants[tenant.key]
        again = env.syncer.register_tenant(tenant.vc,
                                           tenant.control_plane)
        assert again is first
