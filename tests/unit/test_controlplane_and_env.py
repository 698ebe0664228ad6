"""Unit tests for control-plane assembly, kubeconfigs, and the env API."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.core import SuperCluster, TenantControlPlane, VirtualClusterEnv
from repro.core.swapper import SWAPPED, SwapState, control_plane_memory
from repro.objects import make_namespace, make_pod
from repro.simkernel import Simulation
from repro.workloads import even_split


class TestControlPlaneAssembly:
    def test_tenant_cp_has_controllers_but_no_scheduler(self):
        sim = Simulation()
        control_plane = TenantControlPlane(sim, "tenant-x", DEFAULT_CONFIG)
        control_plane.start()
        assert control_plane.scheduler is None
        assert control_plane.controller_manager is not None
        control_plane.stop()

    def test_super_cluster_has_scheduler(self):
        sim = Simulation()
        super_cluster = SuperCluster(sim, DEFAULT_CONFIG)
        super_cluster.start()
        assert super_cluster.scheduler is not None
        super_cluster.stop()

    def test_tenant_credential_distinct_from_admin(self):
        sim = Simulation()
        control_plane = TenantControlPlane(sim, "tenant-x", DEFAULT_CONFIG)
        assert control_plane.tenant_credential.cert_hash != \
            control_plane.admin.cert_hash

    def test_kubeconfig_round_trip(self):
        sim = Simulation()
        control_plane = TenantControlPlane(sim, "tenant-x", DEFAULT_CONFIG)
        client = control_plane.client(control_plane.tenant_credential)
        sim.run(until=sim.process(client.create(make_namespace("default"))))
        pod = sim.run(until=sim.process(client.create(make_pod("p"))))
        assert pod.metadata.uid

    def test_vc_type_registered_on_super(self):
        sim = Simulation()
        super_cluster = SuperCluster(sim, DEFAULT_CONFIG)
        assert super_cluster.api.registry.has("virtualclusters")

    def test_register_user_and_reject_stranger(self):
        from repro.apiserver import Credential, Unauthorized

        sim = Simulation()
        control_plane = TenantControlPlane(sim, "t", DEFAULT_CONFIG)
        known = control_plane.register_user("alice")
        client = control_plane.client(credential=known)
        sim.run(until=sim.process(client.create(make_namespace("default"))))
        stranger = Credential("mallory")
        bad_client = control_plane.client(credential=stranger)
        with pytest.raises(Unauthorized):
            sim.run(until=sim.process(bad_client.list("pods",
                                                      namespace="default")))


class TestEnvHelpers:
    def test_run_until_times_out(self):
        env = VirtualClusterEnv(num_virtual_nodes=1)
        env.bootstrap()
        with pytest.raises(TimeoutError):
            env.run_until(lambda: False, timeout=1.0)

    def test_runaway_wait_fails_on_its_dispatch_budget(self, monkeypatch):
        """A condition that never holds over a busy env — a creator that
        never stops, like a controller that cannot see its own Pods —
        fails once the wait has spent the dispatch budget, long before
        its simulated timeout."""
        from repro.core import env as env_module

        monkeypatch.setattr(env_module, "RUN_DISPATCH_BUDGET", 20_000)
        env = VirtualClusterEnv(num_virtual_nodes=2)
        env.bootstrap()
        admin = env.super_admin_client()

        def runaway():
            index = 0
            while True:
                yield from admin.create(make_pod(f"p{index}"))
                index += 1

        env.sim.spawn(runaway(), name="runaway")
        before = env.sim.kernel_stats()["dispatched"]
        with pytest.raises(env_module.RunawayRun):
            env.run_until(lambda: False, timeout=3600.0)
        spent = env.sim.kernel_stats()["dispatched"] - before
        assert 20_000 <= spent < 30_000
        assert env.sim.now < 600.0

    def test_bootstrap_idempotent(self):
        env = VirtualClusterEnv(num_virtual_nodes=1)
        env.bootstrap()
        t = env.sim.now
        env.bootstrap()
        assert env.sim.now == t

    def test_named_env_prefixes_nodes(self):
        env = VirtualClusterEnv(num_virtual_nodes=2, name="west")
        env.bootstrap()
        names = [vk.node_name for vk in env.virtual_kubelets]
        assert all(name.startswith("west-vk-node-") for name in names)

    def test_shared_sim_between_envs(self):
        sim = Simulation()
        env_a = VirtualClusterEnv(sim=sim, name="a", num_virtual_nodes=1)
        env_b = VirtualClusterEnv(sim=sim, name="b", num_virtual_nodes=1)
        assert env_a.sim is env_b.sim
        assert env_a.super_cluster.api is not env_b.super_cluster.api


class TestSwapStateUnit:
    def test_ensure_awake_noop_when_not_swapped(self):
        sim = Simulation()
        state = SwapState(sim, wake_latency=1.0)

        def probe():
            yield from state.ensure_awake()
            return sim.now

        assert sim.run(until=sim.process(probe())) == 0.0

    def test_ensure_awake_pays_latency_once(self):
        sim = Simulation()
        state = SwapState(sim, wake_latency=1.0)
        state.state = SWAPPED

        def probe():
            yield from state.ensure_awake()
            first = sim.now
            yield from state.ensure_awake()
            return first, sim.now

        first, second = sim.run(until=sim.process(probe()))
        assert first == 1.0
        assert second == 1.0  # second call free
        assert state.swap_ins == 1

    def test_control_plane_memory_reflects_objects(self):
        sim = Simulation()
        control_plane = TenantControlPlane(sim, "t", DEFAULT_CONFIG)
        empty = control_plane_memory(control_plane)
        client = control_plane.client()
        sim.run(until=sim.process(client.create(make_namespace("default"))))
        fuller = control_plane_memory(control_plane)
        assert fuller > empty


class TestEvenSplit:
    def test_exact_division(self):
        assert even_split(10, 5) == [2, 2, 2, 2, 2]

    def test_remainder_spread(self):
        assert even_split(10, 3) == [4, 3, 3]
        assert sum(even_split(10, 3)) == 10

    def test_more_parts_than_total(self):
        assert even_split(2, 4) == [1, 1, 0, 0]
