"""Idle control-plane swapping (§V future work #2, implemented here)."""

import pytest

from repro.config import SwapperConfig
from repro.core.swapper import IdleSwapper, control_plane_memory


@pytest.fixture
def swapper(env):
    # The ablation: immediate page-out, no warm pool, unbounded wakes.
    swapper = IdleSwapper(env.sim, SwapperConfig(
        idle_threshold=20.0, check_interval=5.0, cold_wake_latency=0.8,
        swapout_latency=0.0, warm_pool=0, wake_concurrency=0))
    swapper.start()
    return swapper


class TestIdleSwapping:
    def test_idle_tenant_swapped_out(self, env, tenant, swapper):
        swapper.track(tenant.control_plane)
        awake_bytes = control_plane_memory(tenant.control_plane)
        env.run_for(40)  # no tenant activity
        assert tenant.control_plane.api.swap_state.swapped
        swapped_bytes = control_plane_memory(tenant.control_plane)
        assert swapped_bytes < 0.25 * awake_bytes

    def test_first_request_pays_wake_latency(self, env, tenant, swapper):
        swapper.track(tenant.control_plane)
        env.run_for(40)
        assert tenant.control_plane.api.swap_state.swapped
        start = env.sim.now
        env.run_coroutine(tenant.client.list("pods", namespace="default"))
        elapsed = env.sim.now - start
        assert elapsed >= 0.8  # the page-in cost
        assert not tenant.control_plane.api.swap_state.swapped
        assert tenant.control_plane.api.swap_state.swap_ins == 1

    def test_subsequent_requests_fast_again(self, env, tenant, swapper):
        swapper.track(tenant.control_plane)
        env.run_for(40)
        env.run_coroutine(tenant.client.list("pods", namespace="default"))
        start = env.sim.now
        env.run_coroutine(tenant.client.list("pods", namespace="default"))
        assert env.sim.now - start < 0.1

    def test_active_tenant_never_swapped(self, env, tenant, swapper):
        swapper.track(tenant.control_plane)

        def keep_busy():
            for _ in range(20):
                yield from tenant.client.list("pods", namespace="default")
                yield env.sim.timeout(2.0)

        env.run_coroutine(keep_busy())
        assert not tenant.control_plane.api.swap_state.swapped
        assert tenant.control_plane.api.swap_state.swap_outs == 0

    def test_fleet_memory_savings(self, env, swapper):
        """The paper's cost argument: with many idle tenants the control
        plane pool's resident memory shrinks substantially."""
        tenants = [env.run_coroutine(env.create_tenant(f"idle-{i}"))
                   for i in range(5)]
        for handle in tenants:
            swapper.track(handle.control_plane)
        before = swapper.total_resident_bytes()
        env.run_for(60)
        after = swapper.total_resident_bytes()
        assert swapper.swapped_count() == 5
        assert after < 0.3 * before

    def test_workloads_still_run_after_wake(self, env, tenant, swapper):
        swapper.track(tenant.control_plane)
        env.run_for(40)
        assert tenant.control_plane.api.swap_state.swapped
        env.run_coroutine(tenant.create_pod("after-nap"))
        env.run_until_pods_ready(tenant, ["default/after-nap"], timeout=60)
